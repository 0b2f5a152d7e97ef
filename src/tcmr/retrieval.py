"""Retrieval indexes, cross-modal top-K queries, and ranking metrics.

Evaluation follows the usual cross-media protocol: every test document
serves as a query in each direction (image-to-text and text-to-image),
candidates are the opposite modality of the full test split, a candidate
is relevant if it shares at least one category with the query, and graded
relevance is the number of shared categories. Reported metrics are mAP@K,
nDCG@K, a precision-scope curve (mAP@k over a range of k), and the
histogram intersection between the temporal distribution of retrieved
relevant instances and that of all ground-truth instances.

Evaluation streams over blocks of EVAL_BLOCK queries: a block's (b, n)
scores are reduced to each query's top K candidates (K the largest
cut-off), then dropped. Grading needs only the query's label set, so each
block is graded against the G distinct candidate label sets, not the n
candidates: its (b, G) shared-category counts, with each set's size and
candidates per time bin, give every query's relevant count, ideal grades
and per-bin relevant counts. That saves most where G is much smaller
than n, as with one label per document. Memory is a few block × n arrays
plus n × K, never n × n. Reports are bit-identical to a full sort of every
row with per-query metric loops; tests keep that as a reference.

Every score comes one way: text rows from ``tfidf_matrix``, a ``forward``
pass, then ``rank_candidates``. ``evaluate_direction`` serves ``eval`` and
training-time validation; ``query_topk`` serves one ad-hoc input row.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .corpus import Corpus, DocFrequency, TimeAxis, label_matrix, tfidf_matrix
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

    An index built for one direction's candidates holds None for the other side.
    """

    image_matrix: np.ndarray | None
    text_matrix: np.ndarray | None
    doc_ids: list[str]
    label_sets: list[frozenset[str]]
    timestamps: np.ndarray
    time_axis: TimeAxis

    def __len__(self):
        return len(self.doc_ids)


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
    test: Corpus, model: ProjectionModel, stats: DocFrequency, candidates_of: str | None = None
) -> RetrievalIndex:
    """Project both sides of ``test``, or with ``candidates_of`` a direction
    only that direction's candidates, which is all ``query_topk`` reads."""
    if len(test.documents) == 0:
        raise ValueError("cannot build an index over an empty corpus")
    image = text = None
    if candidates_of != I2T:
        image = _project_split(model.image_net, test.image_matrix(), test, "image")
    if candidates_of != T2I:
        text_rows = tfidf_matrix([d.text_counts for d in test.documents], stats)
        text = _project_split(model.text_net, text_rows, test, "text")
    return RetrievalIndex(
        image_matrix=image,
        text_matrix=text,
        doc_ids=[d.id for d in test.documents],
        label_sets=test.label_sets(),
        timestamps=test.timestamps(),
        time_axis=test.time_axis,
    )


def _project_split(net, x, test: Corpus, modality: str) -> np.ndarray:
    """Project a split's (n, d) inputs; a degenerate row is named by its document."""
    try:
        return net.forward(x)[0]
    except DegenerateProjectionError as exc:
        raise DegenerateProjectionError(
            f"degenerate {modality} projection for document {test.documents[exc.row].id!r}",
            exc.row,
        ) from None


def _id_ranks(doc_ids) -> np.ndarray:
    order = np.argsort(np.array(doc_ids))
    ranks = np.empty(len(doc_ids), dtype=np.intp)
    ranks[order] = np.arange(len(doc_ids))
    return ranks


def rank_candidates(scores: np.ndarray, id_ranks: np.ndarray, depth: int) -> np.ndarray:
    """Top-``depth`` candidates of each (b, n) score row: score descending, id rank ascending.

    Equal to the first ``depth`` columns of a full ``lexsort`` of each row,
    but only the candidates scoring at or above the row's depth-th score
    are sorted. A row where equal scores straddle that score is sorted on
    its own.
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
    by_key = np.lexsort((id_ranks[cols], -scores[fast[:, None], cols]), axis=1)
    order = np.empty((b, depth), dtype=np.intp)
    order[fast] = np.take_along_axis(cols, by_key, axis=1)
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
    top = rank_candidates(scores[None], _id_ranks(index.doc_ids), k)[0]
    return [(index.doc_ids[i], float(scores[i])) for i in top], k > len(index)


# ---------------------------------------------------------------------------
# Metrics
#
# Each metric takes every query's top candidates (rows of a TopK) plus the
# per-query counts that need the whole candidate set, so no metric needs the
# full ranking. Row sums run over contiguous rows of fixed length, which
# NumPy adds in the same pairwise order as a 1-D sum of that row.


def map_at_k(hits, relevant, k: int):
    """Mean AP@K over queries with at least one relevant candidate.

    ``hits[i]`` flags query i's ranked candidates (at least its top K) and
    ``relevant[i]`` counts all its relevant candidates. AP is the sum of
    precision at hit ranks over min(R, K). Returns (value, number of
    excluded queries).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    hits = np.atleast_2d(np.asarray(hits, dtype=bool))[:, :k]
    relevant = np.asarray(relevant)
    defined = relevant > 0
    if not defined.any():
        raise MetricError("every query has zero relevant candidates")
    precision = np.cumsum(hits, axis=1) / np.arange(1, hits.shape[1] + 1)
    num_hits = hits.sum(axis=1)
    ap = np.zeros(len(hits))
    # rows with m hits sum an (rows, m) array, each row as its own 1-D sum would
    for m in np.flatnonzero(np.bincount(num_hits[defined])[1:]) + 1:
        rows = np.flatnonzero(defined & (num_hits == m))
        ap[rows] = precision[rows][hits[rows]].reshape(len(rows), m).sum(axis=1)
    ap = ap[defined] / np.minimum(relevant[defined], k)
    return float(np.mean(ap)), int(len(defined) - defined.sum())


def _gains(grades, gain):
    grades = np.asarray(grades, dtype=np.float64)
    if gain == "exponential":
        return np.exp2(grades) - 1.0
    if gain != "linear":
        raise ValueError(f"unknown gain {gain!r}")
    return grades


def ndcg_at_k(grades, ideal, k: int, gain: str):
    """Mean nDCG@K over queries with a nonzero ideal ranking.

    ``grades[i]`` holds query i's shared-category counts in ranked order and
    ``ideal[i]`` its largest counts in descending order, at least min(K, n)
    of each. Linear gain uses the grade directly; "exponential" uses
    2^grade - 1. Returns (value, number of excluded queries).
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    gains = _gains(np.atleast_2d(grades)[:, :k], gain)
    discounts = 1.0 / np.log2(np.arange(2, gains.shape[1] + 2))
    dcg = (gains * discounts).sum(axis=1)
    idcg = (_gains(np.atleast_2d(ideal)[:, : gains.shape[1]], gain) * discounts).sum(axis=1)
    defined = idcg != 0.0
    if not defined.any():
        raise MetricError("every query has an all-zero ideal ranking")
    return float(np.mean(dcg[defined] / idcg[defined])), int(len(idcg) - defined.sum())


def precision_scope(hits, relevant, k_list=DEFAULT_SCOPE_KS):
    """mAP@k for each k; k_list must be strictly increasing."""
    ks = list(k_list)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_list must be strictly increasing")
    return [(k, map_at_k(hits, relevant, k)[0]) for k in ks]


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

# Query rows scored at a time: evaluation holds a few (block, n) arrays. A
# (128, n) float64 array stays under glibc's 32 MB ceiling for reusing freed
# memory up to n = 32,768, so a block's temporaries are not mapped and zeroed
# afresh each time; at n = 1,920 it is about L2-sized.
EVAL_BLOCK = 128


@dataclass
class TopK:
    """Each query's top candidates and the counts its metrics need beyond them."""

    order: np.ndarray  # (n, K) candidate rows, best first
    grades: np.ndarray  # (n, K) shared-category counts in that order
    ideal: np.ndarray  # (n, K) the K largest shared-category counts, descending
    relevant: np.ndarray  # (n,) candidates sharing a category with the query
    gt_counts: np.ndarray  # (n, bins) relevant candidates per time bin


def _bin_counts(rows, item_bins, num_rows: int, bins: int) -> np.ndarray:
    """(num_rows, bins) integer counts of items by row and time bin; bin -1 is not counted."""
    inside = item_bins >= 0
    cells = rows[inside] * bins + item_bins[inside]
    return np.bincount(cells, minlength=num_rows * bins).reshape(num_rows, bins)


def rank_direction(index: RetrievalIndex, direction: str, depth: int,
                   doc_bins, bins: int) -> TopK:
    """Top ``depth`` of one direction with every index row as a query.

    Queries are scored EVAL_BLOCK rows at a time, so memory grows with
    EVAL_BLOCK x n rather than n x n. A block's scores are the rows of
    ``queries[block] @ candidates.T``; BLAS may round them in the last bit
    differently from the rows of the full (n, n) product, which changes a
    ranking only where two candidates score that close.

    A block is graded against the G distinct candidate label sets, so its
    grade counts are (b, G). ``doc_bins`` gives each candidate's time bin
    among ``bins`` (-1 outside the timespan).
    """
    queries, candidates = _sides(index, direction)
    groups = {}  # each distinct label set and its row in ``sets``
    group = np.array([groups.setdefault(s, len(groups)) for s in index.label_sets], dtype=np.intp)
    sets = label_matrix(list(groups))
    # counts go through float64 products, which run in BLAS and stay exact below 2**53
    size = np.bincount(group, minlength=len(sets)).astype(np.float64)
    group_bins = _bin_counts(group, doc_bins, len(sets), bins).astype(np.float64)
    # every buffer allocated once: fresh arrays for each block can page-fault on every block
    n = len(index)
    depth = min(depth, n)
    scores = np.empty((min(EVAL_BLOCK, n), n))
    top = TopK(
        order=np.empty((n, depth), dtype=np.intp),
        grades=np.empty((n, depth)),
        ideal=np.zeros((n, depth)),
        relevant=np.empty(n, dtype=np.int64),
        gt_counts=np.empty((n, bins), dtype=np.int64),
    )
    id_ranks = _id_ranks(index.doc_ids)
    ranks = np.arange(depth)
    for start in range(0, n, EVAL_BLOCK):
        stop = min(start + EVAL_BLOCK, n)
        rows = slice(start, stop)
        order = top.order[rows]
        order[:] = rank_candidates(np.matmul(queries[rows], candidates.T,
                                             out=scores[:stop - start]), id_ranks, depth)
        shared = sets[group[rows]] @ sets.T  # exact small integers
        relevant = (shared > 0).astype(np.float64)
        num_relevant = relevant @ size
        # counting sort of each row: position j holds the largest g with more than j grades >= g
        ideal = top.ideal[rows]
        for g in range(1, int(shared.max(initial=0)) + 1):
            at_least = num_relevant if g == 1 else (shared >= g).astype(np.float64) @ size
            ideal[ranks < at_least[:, None]] = g
        top.grades[rows] = np.take_along_axis(shared, group[order], axis=1)
        top.relevant[rows] = num_relevant
        top.gt_counts[rows] = relevant @ group_bins
    return top


def evaluate_direction(index: RetrievalIndex, direction: str, k: int,
                       k_list=DEFAULT_SCOPE_KS, *, bins: int, ndcg_gain: str) -> EvalReport:
    """Evaluate one retrieval direction with every index row as a query."""
    doc_bins = time_bins(index.timestamps, index.time_axis, bins)
    top = rank_direction(index, direction, max([k, *k_list]), doc_bins, bins)
    hits = top.grades > 0

    map_value, excluded = map_at_k(hits, top.relevant, k)
    ndcg_value, _ = ndcg_at_k(top.grades, top.ideal, k, gain=ndcg_gain)
    scope = precision_scope(hits, top.relevant, k_list)

    n = len(index)
    rows, ranks = np.nonzero(hits[:, :k])  # the relevant results in each top k
    result_counts = _bin_counts(rows, doc_bins[top.order[rows, ranks]], n, bins)
    queried = top.relevant > 0
    fits = temporal_fit(result_counts[queried], top.gt_counts[queried])
    gt_hist = top.gt_counts[queried].sum(axis=0)
    result_hist = result_counts[queried].sum(axis=0)
    gt_hist = gt_hist / max(1, gt_hist.sum())
    result_hist = result_hist / max(1, result_hist.sum())
    edges = np.linspace(0.0, float(index.time_axis.num_slices), bins + 1)

    return EvalReport(
        direction=direction,
        k=k,
        map_at_k=map_value,
        ndcg_at_k=ndcg_value,
        scope_curve=scope,
        temporal_fit=float(np.mean(fits)) if fits.size else 0.0,
        num_queries=n,
        num_excluded=excluded,
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
