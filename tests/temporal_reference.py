"""Scalar one-pair references for the temporal models' pair matrices.

Training scores a whole batch at once through ``document_table`` and
``pair_matrix``. These functions score one (doc_i, doc_j) pair straight from
a fitted model's parameters, one loop per definition, so tests can check the
batched path entry by entry. ``reference_sim`` returns None for a miss (no
shared fitted category, or no known word in doc_i), which the model scores 0.
"""

import math

import numpy as np

from tcmr.corpus import Document


def recency_sim(model, doc_i, doc_j):
    """exp(-|t_i - t_j| / h_rec); recency never misses."""
    return math.exp(-abs(doc_i.timestamp - doc_j.timestamp) / model.h_rec)


def category_sim(model, doc_i, doc_j):
    """Max over shared fitted categories of the two density values' product."""
    best = None
    for lab in doc_i.labels & doc_j.labels:
        if lab not in model.categories:
            continue
        curve = model.curves[model.categories.index(lab)]
        value = float(np.interp(doc_i.timestamp, model.grid, curve)
                      * np.interp(doc_j.timestamp, model.grid, curve))
        if best is None or value > best:
            best = value
    return best


def topic_sim(model, doc_i, doc_j):
    """doc_i's word profile at the effective slice of doc_j's timestamp.

    The profile is exp(m - max m), where m is the mean (geometric) or the sum
    (product) of log(max(phi, floor)) over doc_i's known words, taken in
    vocabulary order. The slice of doc_j is its floored timestamp, clamped to
    the time axis, sent through the slice map.
    """
    rows = sorted(model.vocabulary.index(tok) for tok in doc_i.text_counts
                  if tok in model.vocabulary)
    if not rows:
        return None
    logq = np.log(np.maximum(model.phi[rows, :], model.floor))
    m = {"geometric": logq.mean(axis=0), "product": logq.sum(axis=0)}[model.aggregate]
    profile = np.exp(m - m.max())
    t = min(max(math.floor(doc_j.timestamp), 0), model.time_axis.num_slices - 1)
    return float(profile[int(model.slice_map[t])])


def topic_profiles(model, documents):
    """``TopicDensity.document_table``'s profiles, one NumPy mean (or sum) per document.

    The production table adds every document's j-th known word at once;
    this is the per-document loop it replaced, kept to pin its bytes.
    """
    column = {tok: i for i, tok in enumerate(model.vocabulary)}
    log_phi = np.log(np.maximum(model.phi, model.floor))
    profiles = np.zeros((len(documents), model.num_effective_slices))
    for i, doc in enumerate(documents):
        rows = sorted(column[t] for t in doc.text_counts if t in column)
        if not rows:
            continue
        logq = log_phi[rows]
        m = logq.mean(axis=0) if model.aggregate == "geometric" else logq.sum(axis=0)
        profiles[i] = np.exp(m - m.max())
    return profiles


REFERENCES = {"recency": recency_sim, "category": category_sim, "topic": topic_sim}


def reference_sim(model, doc_i, doc_j):
    """The pair's temporal correlation, or None when the model misses it."""
    return REFERENCES[model.kind](model, doc_i, doc_j)


def pair_sim(model, doc_i, doc_j):
    """The pair's temporal correlation as training sees it: a miss scores 0."""
    value = reference_sim(model, doc_i, doc_j)
    return 0.0 if value is None else value


def all_pairs(model, docs):
    """Production ``pair_matrix`` over every pair of ``docs``."""
    return model.pair_matrix(model.document_table(docs), np.arange(len(docs)))


def doc_at(t, labels=("l",), tokens=None):
    """A document at time ``t`` (time units) with the given labels and tokens."""
    return Document(f"t{t}", np.zeros(1), dict(tokens or {}), float(t), frozenset(labels), round(t))
