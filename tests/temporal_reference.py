"""Scalar one-pair references for the temporal models' pair matrices.

Training scores a whole batch at once through ``document_table`` and
``pair_matrix``. These functions score one pair of corpus rows (i, j)
straight from a fitted model's parameters, one loop per definition, so tests
can check the batched path entry by entry. ``reference_sim`` returns None
for a miss (no shared fitted category, or no known word in row i), which
the model scores 0.
"""

import math

import numpy as np

from tcmr import corpus as cp

DAY = 86400
ORIGIN_UNIT = 1000.0  # epoch seconds per time unit in ``corpus_at``: 3 decimals are exact


def day_corpus(doc_specs, time_unit=DAY):
    """A ``from_records`` corpus of (day, tokens, labels) specs, days in ``time_unit``s."""
    records = [(f"d{i}", np.zeros(2), tokens, day * time_unit, labels)
               for i, (day, tokens, labels) in enumerate(doc_specs)]
    return cp.from_records(records, time_unit=time_unit)


def doc_at(t, labels=("l",), tokens=None):
    """The spec of a document at time ``t`` (time units) with the given labels and tokens."""
    return t, dict(tokens or {}), sorted(labels)


def corpus_at(docs):
    """A corpus whose row i is ``docs[i]``, a ``doc_at`` spec, at its time ``t`` to 3 decimals.

    It is built by ``from_records`` with a first record at time 0, which sets the time origin
    and keeps the vocabulary non-empty, then dropped by ``take``.
    """
    records = [(f"d{i}", np.zeros(2), tokens, round(t * ORIGIN_UNIT), labels)
               for i, (t, tokens, labels) in enumerate(docs)]
    corpus = cp.from_records([("origin", np.zeros(2), {"origin": 1}, 0, ["l"]), *records],
                             time_unit=ORIGIN_UNIT)
    return corpus.take(np.arange(1, len(corpus)))


def row_tokens(corpus, i):
    """Row i's tokens, in the row's order."""
    cols = corpus.text.indices[corpus.text.indptr[i]:corpus.text.indptr[i + 1]]
    return [corpus.vocabulary[c] for c in cols.tolist()]


def recency_sim(model, corpus, i, j):
    """exp(-|t_i - t_j| / h_rec); recency never misses."""
    return math.exp(-abs(corpus.timestamps[i] - corpus.timestamps[j]) / model.h_rec)


def category_sim(model, corpus, i, j):
    """Max over shared fitted categories of the two density values' product."""
    best = None
    for lab in corpus.label_sets[i] & corpus.label_sets[j]:
        if lab not in model.categories:
            continue
        curve = model.curves[model.categories.index(lab)]
        value = float(np.interp(corpus.timestamps[i], model.grid, curve)
                      * np.interp(corpus.timestamps[j], model.grid, curve))
        if best is None or value > best:
            best = value
    return best


def topic_sim(model, corpus, i, j):
    """Row i's word profile at the effective slice of row j's timestamp.

    The profile is exp(m - max m), where m is the mean (geometric) or the sum
    (product) of log(max(phi, floor)) over row i's known words, taken in
    vocabulary order. The slice of row j is its floored timestamp, clamped to
    the time axis, sent through the slice map.
    """
    rows = sorted(model.vocabulary.index(tok) for tok in row_tokens(corpus, i)
                  if tok in model.vocabulary)
    if not rows:
        return None
    logq = np.log(np.maximum(model.phi[rows, :], model.floor))
    m = {"geometric": logq.mean(axis=0), "product": logq.sum(axis=0)}[model.aggregate]
    profile = np.exp(m - m.max())
    t = min(max(math.floor(corpus.timestamps[j]), 0), model.time_axis.num_slices - 1)
    return float(profile[int(model.slice_map[t])])


def topic_profiles(model, corpus):
    """``TopicDensity.document_table``'s profiles, one NumPy mean (or sum) per row.

    The production table adds every row's j-th known word at once; this is
    the per-document loop it replaced, kept to pin its bytes.
    """
    column = {tok: i for i, tok in enumerate(model.vocabulary)}
    log_phi = np.log(np.maximum(model.phi, model.floor))
    profiles = np.zeros((len(corpus), model.num_effective_slices))
    for i in range(len(corpus)):
        rows = sorted(column[t] for t in row_tokens(corpus, i) if t in column)
        if not rows:
            continue
        logq = log_phi[rows]
        m = logq.mean(axis=0) if model.aggregate == "geometric" else logq.sum(axis=0)
        profiles[i] = np.exp(m - m.max())
    return profiles


REFERENCES = {"recency": recency_sim, "category": category_sim, "topic": topic_sim}


def reference_sim(model, corpus, i, j):
    """The correlation of rows i and j, or None when the model misses it."""
    return REFERENCES[model.kind](model, corpus, i, j)


def pair_sim(model, corpus, i, j):
    """The correlation of rows i and j as training sees it: a miss scores 0."""
    value = reference_sim(model, corpus, i, j)
    return 0.0 if value is None else value


def all_pairs(model, corpus):
    """Production ``pair_matrix`` over every pair of the corpus's rows."""
    return model.pair_matrix(model.document_table(corpus), np.arange(len(corpus)))
