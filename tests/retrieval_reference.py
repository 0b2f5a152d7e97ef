"""Full-row reference for the ranking's top-K summary.

``grade_split`` grades the distinct label sets of a split against each
other and ``rank_direction`` gathers each ranked candidate's grade from
them. ``topk_of_grades`` builds the same fields from a full (b, n) matrix
of grades, so tests can state a ranking by its grade rows.
"""

from dataclasses import dataclass

import numpy as np


@dataclass
class TopK:
    """Each query's top candidates and the counts its metrics need beyond them."""

    order: np.ndarray  # (b, K) candidate rows, best first: rank_direction
    grades: np.ndarray  # (b, K) shared-category counts in that order: rank_direction
    ideal: np.ndarray  # (b, K) the K largest shared-category counts, descending: Grading
    relevant: np.ndarray  # (b,) candidates sharing a category with the query: Grading
    gt_counts: np.ndarray  # (b, bins) relevant candidates per time bin: Grading


def topk_of_grades(grades, order, gt_counts):
    """The TopK of full (b, n) grade rows, given each row's ranked candidates."""
    return TopK(order=order, grades=np.take_along_axis(grades, order, axis=1),
                ideal=-np.sort(-grades, axis=1)[:, :order.shape[1]],
                relevant=(grades > 0).sum(axis=1), gt_counts=gt_counts)
