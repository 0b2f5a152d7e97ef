"""Full-row reference for the ranking's top-K summary.

``rank_direction`` grades each query block against the distinct candidate
label sets. ``topk_of_grades`` builds the same ``TopK`` from a full (b, n)
matrix of grades, so tests can state a ranking by its grade rows.
"""

import numpy as np

from tcmr import retrieval as rt


def topk_of_grades(grades, order, gt_counts):
    """The TopK of full (b, n) grade rows, given each row's ranked candidates."""
    return rt.TopK(order=order, grades=np.take_along_axis(grades, order, axis=1),
                   ideal=-np.sort(-grades, axis=1)[:, :order.shape[1]],
                   relevant=(grades > 0).sum(axis=1), gt_counts=gt_counts)
