"""Retrieval indexes, cross-modal top-K queries, and ranking metrics.

Evaluation follows the usual cross-media protocol: every test document
serves as a query in each direction (image-to-text and text-to-image),
candidates are the opposite modality of the full test split, a candidate
is relevant if it shares at least one category with the query, and graded
relevance is the number of shared categories. Reported metrics are mAP@K,
nDCG@K, a precision-scope curve (mAP@k over a range of k), and the
histogram intersection between the temporal distribution of retrieved
relevant instances and that of all ground-truth instances.

Evaluation has two steps. Grading (``grade_split``) runs once per split
and builds all that depends only on labels, ids and times: grading needs
only a query's label set, so the G distinct label sets are graded against
each other, and their (G, G) shared-category counts, with each set's size
and documents per time bin, give every query's relevant count, ideal
grades and per-bin relevant counts. That saves most where G is much
smaller than n, as with one label per document. Ranking
(``rank_direction``) runs per direction or validation epoch and streams
over blocks of EVAL_BLOCK queries: a block's (b, n) scores are reduced to
each query's top K candidates (K the largest cut-off), sorted on the score
alone with the id tie-break only in rows that hold equal scores, then
dropped. Memory is a few block × n arrays plus n × K, never n × n. The
metrics, ``average_precision`` (every cut-off from one cumulative-hit
array) and ``dcg``, give one value per query, and ``evaluate_direction``
takes each mean once, over the queries with a relevant candidate. Reports
are bit-identical to a full sort of every row with per-query metric loops;
tests keep that as a reference.

Projection is blocked too: ``build_index``, which ``eval``, ``query`` and
every validation epoch call, runs a split through each network
EVAL_BLOCK rows at a time into one (n, d_subspace) output, so no
(n, hidden) activation is ever live: with hidden 256, a 20,000-document
``eval`` peaks at 149 MB RSS against 204 MB for one pass over the split
(two BLAS threads). BLAS may round a block's products in the last bit
differently from one pass over the whole split (seen in short last
blocks, and at the paper's 1024-wide layers with two BLAS threads); like
the blocked scores, that changes a ranking only where two candidates
score that close.

Every score comes one way: text rows from ``tfidf_matrix``, a ``forward``
pass, then ``rank_candidates``. ``evaluate_direction`` serves ``eval`` and
training-time validation; ``query_topk`` serves one ad-hoc input row.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import Corpus, TimeAxis, label_matrix, tfidf_matrix
from .projection import DegenerateProjectionError, ProjectionModel

I2T = "I2T"
T2I = "T2I"
DIRECTIONS = (I2T, T2I)
DEFAULT_SCOPE_KS = (10, 20, 30, 40, 50)


class MetricError(ValueError):
    """No query produced a defined metric value."""


@dataclass
class RetrievalIndex:
    """Projected, unit-normalized test corpus; immutable after construction.

    It keeps the split's ids, label sets and times under ``Corpus``'s names, so ``grade_split``
    reads either. An index for one direction's candidates holds None for the other side.
    """

    image_matrix: np.ndarray | None
    text_matrix: np.ndarray | None
    ids: list[str]
    label_sets: list[frozenset[str]]
    timestamps: np.ndarray
    time_axis: TimeAxis

    def __len__(self):
        return len(self.ids)


@dataclass
class EvalReport:
    direction: str
    k: int
    map_at_k: float
    ndcg_at_k: float
    scope_curve: list[tuple[int, float]]
    temporal_fit: float
    num_queries: int
    num_excluded: int
    bin_edges: list[float] = field(default_factory=list)
    gt_hist: list[float] = field(default_factory=list)
    result_hist: list[float] = field(default_factory=list)


# ---------------------------------------------------------------------------
# Index construction and querying


def build_index(
    test: Corpus, model: ProjectionModel, idf: np.ndarray, candidates_of: str | None = None
) -> RetrievalIndex:
    """Project both sides of ``test``, or with ``candidates_of`` a direction only that
    direction's candidates (all ``query_topk`` reads), beside its ids, labels and times."""
    if len(test) == 0:
        raise ValueError("cannot build an index over an empty corpus")
    image = text = None
    if candidates_of != I2T:
        image = _project_split(model.image_net, test.image, test.ids, "image")
    if candidates_of != T2I:
        text = _project_split(model.text_net, tfidf_matrix(test.text, idf), test.ids, "text")
    return RetrievalIndex(image_matrix=image, text_matrix=text, ids=test.ids,
                          label_sets=test.label_sets, timestamps=test.timestamps,
                          time_axis=test.time_axis)


def _project_split(net, x, ids, modality: str) -> np.ndarray:
    """Project a split's (n, d) inputs EVAL_BLOCK rows at a time; a degenerate
    row is named by its document.

    Only a block's (b, hidden) activations are live, never the split's (n, hidden).
    """
    n = x.shape[0]
    out = np.empty((n, net.W2.shape[0]))
    for start in range(0, n, EVAL_BLOCK):
        rows = slice(start, start + EVAL_BLOCK)
        try:
            out[rows] = net.forward(x[rows])[0]
        except DegenerateProjectionError as exc:
            row = start + exc.row
            raise DegenerateProjectionError(
                f"degenerate {modality} projection for document {ids[row]!r}", row,
            ) from None
    return out


def _id_ranks(ids) -> np.ndarray:
    order = np.argsort(np.array(ids))
    ranks = np.empty(len(ids), dtype=np.intp)
    ranks[order] = np.arange(len(ids))
    return ranks


def rank_candidates(scores: np.ndarray, id_ranks: np.ndarray, depth: int) -> np.ndarray:
    """Top-``depth`` candidates of each (b, n) score row: score descending, id rank ascending.

    Equal to the first ``depth`` columns of a full ``lexsort`` of each row,
    but only the candidates scoring at or above the row's depth-th score
    are sorted, and on the score alone: a row where two of them score the
    same is sorted again with the id key, and a row where equal scores
    straddle the depth-th score is sorted on its own.
    """
    b, n = scores.shape
    depth = min(depth, n)
    kth = np.partition(scores, n - depth, axis=1)[:, [n - depth]]  # a copy: frees the partition
    above = scores >= kth
    rows, cols = np.divmod(np.flatnonzero(above), n)
    # every row has at least depth candidates at or above its depth-th score
    straddle = np.bincount(rows, minlength=b) > depth
    fast = np.flatnonzero(~straddle)
    cols = cols[~straddle[rows]].reshape(len(fast), depth)
    neg = -scores[fast[:, None], cols]
    by_score = np.argsort(neg, axis=1)
    cols = np.take_along_axis(cols, by_score, axis=1)
    neg = np.take_along_axis(neg, by_score, axis=1)
    # a row not strictly ascending holds equal scores (or NaN), which the id key orders
    tied = np.flatnonzero(~(neg[:, 1:] > neg[:, :-1]).all(axis=1))
    by_key = np.lexsort((id_ranks[cols[tied]], neg[tied]), axis=1)
    cols[tied] = np.take_along_axis(cols[tied], by_key, axis=1)
    order = np.empty((b, depth), dtype=np.intp)
    order[fast] = cols
    for r in np.flatnonzero(straddle):
        cand = np.flatnonzero(above[r])
        order[r] = cand[np.lexsort((id_ranks[cand], -scores[r, cand]))[:depth]]
    return order


def _sides(index: RetrievalIndex, direction: str):
    if direction == I2T:
        return index.image_matrix, index.text_matrix
    if direction == T2I:
        return index.text_matrix, index.image_matrix
    raise ValueError(f"unknown direction {direction!r}")


def query_topk(index: RetrievalIndex, model: ProjectionModel, direction: str, row, k: int):
    """Top-K (doc_id, score) and a truncation flag for one input row: a (1, d)
    image row for I2T or a (1, V) ``tfidf_matrix`` row for T2I."""
    if k < 1:
        raise ValueError("k must be >= 1")
    candidates = _sides(index, direction)[1]
    net = model.image_net if direction == I2T else model.text_net
    (vec,) = net.forward(row)[0]  # exactly one row
    scores = candidates @ vec
    top = rank_candidates(scores[None], _id_ranks(index.ids), k)[0]
    return [(index.ids[i], float(scores[i])) for i in top], k > len(index)


# ---------------------------------------------------------------------------
# Metrics
#
# Each metric takes every query's top candidates (rows of a ranking) plus the
# per-query counts that need the whole candidate set, and returns one value
# per query; ``evaluate_direction`` takes the means. Row sums run over
# contiguous rows of fixed length, which NumPy adds in the same pairwise
# order as a 1-D sum of that row.


def average_precision(hits, relevant, ks) -> np.ndarray:
    """AP@k of each query at each cut-off of ``ks``: a (b, len(ks)) array.

    ``hits[i]`` flags query i's ranked candidates (at least its top max(ks))
    and ``relevant[i]`` counts all its relevant candidates. AP@k is the sum
    of precision at hit ranks within the top k over min(R, k); a query with
    R = 0 holds NaN. Precision at a rank does not depend on the cut-off, so
    every k reads one cumulative-hit array, and a cut-off keeps a prefix of
    each row's precisions at its hit ranks.
    """
    hits = np.atleast_2d(np.asarray(hits, dtype=bool))
    relevant = np.asarray(relevant)
    cumulative = np.cumsum(hits, axis=1)
    at_hits = cumulative[hits] / (np.nonzero(hits)[1] + 1)  # row after row
    first = np.cumsum(cumulative[:, -1]) - cumulative[:, -1]  # each row's start in at_hits
    ap = np.zeros((len(hits), len(ks)))
    for j, k in enumerate(ks):
        num_hits = cumulative[:, min(k, hits.shape[1]) - 1]
        by_hits = np.argsort(num_hits, kind="stable")
        ends = np.cumsum(np.bincount(num_hits))
        # rows with m hits sum an (rows, m) array, each row as its own 1-D sum would
        for m in range(1, len(ends)):
            rows = by_hits[ends[m - 1]:ends[m]]
            if len(rows):
                ap[rows, j] = at_hits[first[rows, None] + np.arange(m)].sum(axis=1)
    with np.errstate(invalid="ignore"):
        return ap / np.minimum(relevant[:, None], ks)


def dcg(grades, k: int, gain: str) -> np.ndarray:
    """DCG@k of each row of ``grades``, shared-category counts in ranked order: (b,).

    Linear gain uses the grade directly; "exponential" uses 2^grade - 1.
    """
    grades = np.atleast_2d(np.asarray(grades, dtype=np.float64))[:, :k]
    if gain == "exponential":
        grades = np.exp2(grades) - 1.0
    elif gain != "linear":
        raise ValueError(f"unknown gain {gain!r}")
    return (grades * (1.0 / np.log2(np.arange(2, grades.shape[1] + 2)))).sum(axis=1)


def time_bins(timestamps, time_axis: TimeAxis, bins: int) -> np.ndarray:
    """Bin of each timestamp in ``bins`` equal bins over the timespan; -1 outside it.

    The assignment is ``np.histogram``'s: bin i holds edge_i <= t < edge_i+1,
    and the last bin also holds its right edge.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    span = float(time_axis.num_slices)
    t = np.asarray(timestamps, dtype=np.float64)
    out = np.searchsorted(np.linspace(0.0, span, bins + 1), t, side="right") - 1
    out[t == span] = bins - 1
    out[~((t >= 0.0) & (t <= span))] = -1
    return out


def temporal_fit(result_counts, gt_counts) -> np.ndarray:
    """Histogram intersection of each row's result and ground-truth time histograms.

    Rows are bin counts; both histograms are normalized to sum to 1, and a
    row without results scores 0.
    """
    result_counts = np.atleast_2d(result_counts)
    gt_counts = np.atleast_2d(gt_counts)
    results = result_counts.sum(axis=1, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = result_counts / results
        q = gt_counts / gt_counts.sum(axis=1, keepdims=True)
    return np.where(results[:, 0] > 0, np.minimum(p, q).sum(axis=1), 0.0)


# ---------------------------------------------------------------------------
# Full evaluation

# Rows projected, graded and scored at a time: evaluation holds a few
# (block, n) arrays and a block's (block, hidden) activations. A (128, n)
# float64 array stays under glibc's 32 MB ceiling for reusing freed memory up
# to n = 32,768, so a block's temporaries are not mapped and zeroed afresh
# each time; at n = 1,920 it is about L2-sized.
EVAL_BLOCK = 128


@dataclass(frozen=True)
class Grading:
    """What evaluating a split needs from its label sets, ids and times alone.

    ``grade_split`` builds it once per split, from the ``Corpus`` or its index: both
    directions of ``eval`` and every validation epoch rank against the same grading.
    Documents with the same label set form a group, and a query's counts are its group's:
    ``relevant[group]`` gives every query's relevant count.
    """

    group: np.ndarray  # (n,) each document's group: its row of ``sets``
    sets: np.ndarray  # (G, C) label rows of the split's distinct label sets
    id_ranks: np.ndarray  # (n,) each document's place in id order, the ranking's tie-break
    doc_bins: np.ndarray  # (n,) each document's time bin, -1 outside the timespan
    relevant: np.ndarray  # (G,) candidates sharing a category with a query of the group
    ideal: np.ndarray  # (G, depth) the group's largest shared-category counts, descending
    gt_counts: np.ndarray  # (G, bins) the group's relevant candidates per time bin


def _bin_counts(rows, item_bins, num_rows: int, bins: int) -> np.ndarray:
    """(num_rows, bins) integer counts of items by row and time bin; bin -1 is not counted."""
    inside = item_bins >= 0
    cells = rows[inside] * bins + item_bins[inside]
    return np.bincount(cells, minlength=num_rows * bins).reshape(num_rows, bins)


def grade_split(split: Corpus | RetrievalIndex, bins: int, depth: int) -> Grading:
    """Grade every document of ``split`` as a query against all of them.

    ``split`` is a ``Corpus`` or its index; only ids, label sets and times
    are read. A query needs only its label set, so grading runs once per group of
    documents with the same set, against the G groups: their (G, G) shared-category
    counts, with each group's size and documents per time bin among ``bins``, give each
    group's relevant count, ideal grades to ``depth`` (at least the nDCG cut-off) and
    per-bin relevant counts. Groups are graded EVAL_BLOCK at a time, so memory stays a
    few EVAL_BLOCK x G arrays even where G nears n.
    """
    doc_bins = time_bins(split.timestamps, split.time_axis, bins)
    groups = {}  # each distinct label set and its row in ``sets``
    group = np.array([groups.setdefault(s, len(groups)) for s in split.label_sets], dtype=np.intp)
    sets = label_matrix(list(groups))
    num_groups = len(sets)
    # counts go through float64 products, which run in BLAS and stay exact below 2**53
    size = np.bincount(group, minlength=num_groups).astype(np.float64)
    group_bins = _bin_counts(group, doc_bins, num_groups, bins).astype(np.float64)
    depth = min(depth, len(split))
    relevant = np.empty(num_groups, dtype=np.int64)
    ideal = np.zeros((num_groups, depth))
    gt_counts = np.empty((num_groups, bins), dtype=np.int64)
    ranks = np.arange(depth)
    for start in range(0, num_groups, EVAL_BLOCK):
        rows = slice(start, start + EVAL_BLOCK)
        shared = sets[rows] @ sets.T  # exact small integers
        hit = (shared > 0).astype(np.float64)
        relevant[rows] = hit @ size
        gt_counts[rows] = hit @ group_bins
        # counting sort of each row: position j holds the largest g with more than j grades >= g
        block_ideal = ideal[rows]
        for g in range(1, int(shared.max(initial=0)) + 1):
            at_least = (shared >= g).astype(np.float64) @ size
            block_ideal[ranks < at_least[:, None]] = g
    return Grading(group=group, sets=sets, id_ranks=_id_ranks(split.ids), doc_bins=doc_bins,
                   relevant=relevant, ideal=ideal, gt_counts=gt_counts)


def rank_direction(index: RetrievalIndex, grading: Grading, direction: str,
                   depth: int) -> tuple[np.ndarray, np.ndarray]:
    """Top ``depth`` of one direction with every index row as a query:
    (n, depth) candidate rows, best first, and their shared-category counts.

    Queries are scored EVAL_BLOCK rows at a time, so memory grows with
    EVAL_BLOCK x n rather than n x n. A block's scores are the rows of
    ``queries[block] @ candidates.T``; BLAS may round them in the last bit
    differently from the rows of the full (n, n) product, which changes a
    ranking only where two candidates score that close. A block's grades
    are gathered from its (b, G) counts against ``grading``'s groups.
    """
    queries, candidates = _sides(index, direction)
    group, sets = grading.group, grading.sets
    n = len(index)
    depth = min(depth, n)
    # every buffer allocated once: fresh arrays for each block can page-fault on every block
    scores = np.empty((min(EVAL_BLOCK, n), n))
    order = np.empty((n, depth), dtype=np.intp)
    grades = np.empty((n, depth))
    for start in range(0, n, EVAL_BLOCK):
        stop = min(start + EVAL_BLOCK, n)
        rows = slice(start, stop)
        block = np.matmul(queries[rows], candidates.T, out=scores[:stop - start])
        order[rows] = rank_candidates(block, grading.id_ranks, depth)
        shared = sets[group[rows]] @ sets.T  # exact small integers
        grades[rows] = np.take_along_axis(shared, group[order[rows]], axis=1)
    return order, grades


def evaluate_direction(index: RetrievalIndex, grading: Grading, direction: str, k: int,
                       k_list, *, ndcg_gain: str) -> EvalReport:
    """Evaluate one retrieval direction with every index row as a query.

    ``grading`` is the split's ``grade_split`` to a depth of at least k, and
    ``k_list`` the caller's scope cut-offs. Every mean runs over the queries
    with at least one relevant candidate; with none, it raises MetricError.
    """
    n, bins = len(index), grading.gt_counts.shape[1]
    group = grading.group
    ks = list(dict.fromkeys([k, *k_list]))  # each distinct cut-off once
    if min(ks) < 1:
        raise ValueError("k must be >= 1")
    if grading.ideal.shape[1] < min(k, n):
        raise ValueError(f"the grading's ideal grades stop above k = {k}")
    relevant = grading.relevant[group]
    queried = relevant > 0  # also the queries with a nonzero ideal ranking
    if not queried.any():
        raise MetricError("every query has zero relevant candidates")
    order, grades = rank_direction(index, grading, direction, max(ks))
    hits = grades > 0

    ap = average_precision(hits, relevant, ks)
    map_values = {c: float(np.mean(ap[queried, j])) for j, c in enumerate(ks)}
    ndcg = dcg(grades, k, ndcg_gain)[queried] / dcg(grading.ideal, k, ndcg_gain)[group[queried]]

    rows, ranks = np.nonzero(hits[:, :k])  # the relevant results in each top k
    result_counts = _bin_counts(rows, grading.doc_bins[order[rows, ranks]], n, bins)
    gt_counts = grading.gt_counts[group[queried]]
    fits = temporal_fit(result_counts[queried], gt_counts)
    gt_hist = gt_counts.sum(axis=0)
    result_hist = result_counts[queried].sum(axis=0)
    gt_hist = gt_hist / max(1, gt_hist.sum())
    result_hist = result_hist / max(1, result_hist.sum())
    edges = np.linspace(0.0, float(index.time_axis.num_slices), bins + 1)

    return EvalReport(
        direction=direction,
        k=k,
        map_at_k=map_values[k],
        ndcg_at_k=float(np.mean(ndcg)),
        scope_curve=[(c, map_values[c]) for c in k_list],
        temporal_fit=float(np.mean(fits)),
        num_queries=n,
        num_excluded=int(n - np.count_nonzero(queried)),
        bin_edges=[float(e) for e in edges[:-1]],
        gt_hist=[float(v) for v in gt_hist],
        result_hist=[float(v) for v in result_hist],
    )


# ---------------------------------------------------------------------------
# Report output


def write_report_json(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(asdict(report), fh, indent=2, sort_keys=True)
        fh.write("\n")


def write_scope_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "map"])
        for k, value in report.scope_curve:
            writer.writerow([k, f"{value:.6f}"])


def write_temporal_csv(report: EvalReport, path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_start", "gt_mass", "result_mass"])
        for start, gt, res in zip(report.bin_edges, report.gt_hist, report.result_hist):
            writer.writerow([f"{start:.6f}", f"{gt:.6f}", f"{res:.6f}"])
