"""Retrieval indexes, cross-modal top-K queries, and ranking metrics.

Evaluation follows the usual cross-media protocol: every test document
serves as a query in each direction (image-to-text and text-to-image),
candidates are the opposite modality of the full test split, a candidate
is relevant if it shares at least one category with the query, and graded
relevance is the number of shared categories. Reported metrics are mAP@K,
nDCG@K, a precision-scope curve (mAP@k over a range of k), and the
histogram intersection between the temporal distribution of retrieved
relevant instances and that of all ground-truth instances.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field

import numpy as np

from .corpus import Corpus, DocFrequency, TimeAxis, label_matrix, tfidf_matrix, tfidf_vector
from .projection import DegenerateProjectionError, ProjectionModel

I2T = "I2T"
T2I = "T2I"
DIRECTIONS = (I2T, T2I)
DEFAULT_SCOPE_KS = (10, 20, 30, 40, 50)


class MetricError(ValueError):
    """No query produced a defined metric value."""


@dataclass
class RetrievalIndex:
    """Projected, unit-normalized test corpus; immutable after construction."""

    image_matrix: np.ndarray
    text_matrix: np.ndarray
    doc_ids: list[str]
    label_sets: list[frozenset[str]]
    timestamps: np.ndarray
    time_axis: TimeAxis

    def __len__(self):
        return len(self.doc_ids)


@dataclass
class Query:
    """Exactly one modality; labels/timestamp are optional evaluation hints."""

    image_feat: np.ndarray | None = None
    text_counts: dict | None = None
    labels: frozenset | None = None
    timestamp: float | None = None

    def __post_init__(self):
        if (self.image_feat is None) == (self.text_counts is None):
            raise ValueError("query must set exactly one of image_feat or text_counts")


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

    def to_dict(self) -> dict:
        return {
            "direction": self.direction,
            "k": self.k,
            "map_at_k": self.map_at_k,
            "ndcg_at_k": self.ndcg_at_k,
            "scope_curve": [[int(k), v] for k, v in self.scope_curve],
            "temporal_fit": self.temporal_fit,
            "num_queries": self.num_queries,
            "num_excluded": self.num_excluded,
            "bin_edges": self.bin_edges,
            "gt_hist": self.gt_hist,
            "result_hist": self.result_hist,
        }


# ---------------------------------------------------------------------------
# Index construction and querying


def build_index(test: Corpus, model: ProjectionModel, stats: DocFrequency) -> RetrievalIndex:
    if len(test.documents) == 0:
        raise ValueError("cannot build an index over an empty corpus")
    try:
        image_matrix = model.image_net.project(test.image_matrix())
    except DegenerateProjectionError:
        _raise_naming_document(test, model, modality="image")
    try:
        text_matrix = model.text_net.project(tfidf_matrix(test, stats))
    except DegenerateProjectionError:
        _raise_naming_document(test, model, modality="text", stats=stats)
    return RetrievalIndex(
        image_matrix=image_matrix,
        text_matrix=text_matrix,
        doc_ids=[d.id for d in test.documents],
        label_sets=test.label_sets(),
        timestamps=test.timestamps(),
        time_axis=test.time_axis,
    )


def _raise_naming_document(test, model, modality, stats=None):
    for doc in test.documents:
        try:
            if modality == "image":
                model.image_net.project(doc.image_feat)
            else:
                model.text_net.project(tfidf_vector(doc.text_counts, stats))
        except DegenerateProjectionError:
            raise DegenerateProjectionError(
                f"degenerate {modality} projection for document {doc.id!r}"
            ) from None
    raise DegenerateProjectionError(f"degenerate {modality} projection")  # pragma: no cover


def _id_ranks(doc_ids) -> np.ndarray:
    order = np.argsort(np.array(doc_ids))
    ranks = np.empty(len(doc_ids), dtype=np.intp)
    ranks[order] = np.arange(len(doc_ids))
    return ranks


def rank_candidates(scores: np.ndarray, doc_ids) -> np.ndarray:
    """Candidate order per query row: score descending, doc_id ascending."""
    id_ranks = _id_ranks(doc_ids)
    scores = np.atleast_2d(scores)
    order = np.empty(scores.shape, dtype=np.intp)
    for row, out in zip(scores, order):
        out[:] = np.lexsort((id_ranks, -row))
    return order


def query_topk(index: RetrievalIndex, q: Query, model: ProjectionModel,
               stats: DocFrequency, k: int):
    """Top-K (doc_id, score) from the opposite modality, plus a truncation flag."""
    if k < 1:
        raise ValueError("k must be >= 1")
    if q.image_feat is not None:
        vec = model.project_images(q.image_feat)
        candidates = index.text_matrix
    else:
        vec = model.project_texts(tfidf_vector(q.text_counts, stats))
        candidates = index.image_matrix
    scores = candidates @ vec
    order = rank_candidates(scores, index.doc_ids)[0]
    truncated = k > len(index)
    top = order[: min(k, len(index))]
    return [(index.doc_ids[i], float(scores[i])) for i in top], truncated


# ---------------------------------------------------------------------------
# Metrics


def average_precision_at_k(flags, total_relevant: int, k: int):
    """Truncated AP: sum of precision at hit ranks over min(R, K); None if R=0."""
    if total_relevant == 0:
        return None
    flags = np.asarray(flags, dtype=bool)[:k]
    if not flags.any():
        return 0.0
    hits = np.cumsum(flags)
    ranks = np.arange(1, len(flags) + 1)
    return float((hits[flags] / ranks[flags]).sum() / min(total_relevant, k))


def map_at_k(per_query_flags, k: int):
    """Mean AP@K over queries with at least one relevant candidate.

    Each entry of per_query_flags is the full ranked relevance vector of one
    query. Returns (value, number of excluded queries).
    """
    values, excluded = [], 0
    for flags in per_query_flags:
        flags = np.asarray(flags, dtype=bool)
        ap = average_precision_at_k(flags, int(flags.sum()), k)
        if ap is None:
            excluded += 1
        else:
            values.append(ap)
    if not values:
        raise MetricError("every query has zero relevant candidates")
    return float(np.mean(values)), excluded


def ndcg_at_k(per_query_grades, k: int, gain: str = "linear"):
    """Mean nDCG@K over queries with a nonzero ideal ranking.

    Grades are shared-category counts in ranked order (full vectors). Linear
    gain uses the grade directly; "exponential" uses 2^grade - 1.
    """
    values, excluded = [], 0
    for grades in per_query_grades:
        grades = np.asarray(grades, dtype=np.float64)
        if gain == "exponential":
            grades = np.exp2(grades) - 1.0
        elif gain != "linear":
            raise ValueError(f"unknown gain {gain!r}")
        discounts = 1.0 / np.log2(np.arange(2, min(k, len(grades)) + 2))
        dcg = float((grades[:k] * discounts).sum())
        ideal = np.sort(grades)[::-1]
        idcg = float((ideal[:k] * discounts).sum())
        if idcg == 0.0:
            excluded += 1
        else:
            values.append(dcg / idcg)
    if not values:
        raise MetricError("every query has an all-zero ideal ranking")
    return float(np.mean(values)), excluded


def precision_scope(per_query_flags, k_list=DEFAULT_SCOPE_KS):
    """mAP@k for each k; k_list must be strictly increasing."""
    ks = list(k_list)
    if any(b <= a for a, b in zip(ks, ks[1:])):
        raise ValueError("k_list must be strictly increasing")
    return [(k, map_at_k(per_query_flags, k)[0]) for k in ks]


def temporal_fit(result_timestamps, gt_timestamps, time_axis: TimeAxis, bins: int) -> float:
    """Histogram intersection of the two timestamp sets over the timespan.

    Both histograms are normalized to sum to 1; an empty result set scores 0.
    """
    if bins < 1:
        raise ValueError("bins must be >= 1")
    result_timestamps = np.asarray(result_timestamps, dtype=np.float64)
    gt_timestamps = np.asarray(gt_timestamps, dtype=np.float64)
    if result_timestamps.size == 0 or gt_timestamps.size == 0:
        return 0.0
    span = (0.0, float(time_axis.num_slices))
    p, _ = np.histogram(result_timestamps, bins=bins, range=span)
    q, _ = np.histogram(gt_timestamps, bins=bins, range=span)
    p = p / p.sum()
    q = q / q.sum()
    return float(np.minimum(p, q).sum())


# ---------------------------------------------------------------------------
# Full evaluation


def shared_label_matrix(label_sets):
    """(n, n) shared-category counts; small integers, so exact in float64."""
    labels = label_matrix(label_sets)
    return labels @ labels.T


def rank_direction(index: RetrievalIndex, direction: str):
    """Rank one direction with every index row as a query.

    Returns (order, ranked): ``order[i]`` lists query i's candidates by
    score descending, doc id ascending, and ``ranked[i]`` their
    shared-category counts in that order.
    """
    if direction == I2T:
        queries, candidates = index.image_matrix, index.text_matrix
    elif direction == T2I:
        queries, candidates = index.text_matrix, index.image_matrix
    else:
        raise ValueError(f"unknown direction {direction!r}")
    # the (n, n) scores are freed before the grade matrices are built
    order = rank_candidates(queries @ candidates.T, index.doc_ids)
    return order, np.take_along_axis(shared_label_matrix(index.label_sets), order, axis=1)


def evaluate_direction(index: RetrievalIndex, direction: str, k: int = 50,
                       k_list=DEFAULT_SCOPE_KS, bins: int = 10,
                       ndcg_gain: str = "linear") -> EvalReport:
    """Evaluate one retrieval direction with every index row as a query."""
    order, ranked = rank_direction(index, direction)
    hits = ranked > 0

    map_value, excluded = map_at_k(hits, k)
    ndcg_value, _ = ndcg_at_k(ranked, k, gain=ndcg_gain)
    scope = precision_scope(hits, k_list)

    fits = []
    pooled_results, pooled_gt = [], []
    for i in range(len(index)):
        if not hits[i].any():
            continue
        result_ts = index.timestamps[order[i, :k][hits[i, :k]]]
        gt_ts = index.timestamps[order[i][hits[i]]]
        fits.append(temporal_fit(result_ts, gt_ts, index.time_axis, bins))
        pooled_results.extend(result_ts)
        pooled_gt.extend(gt_ts)

    span = (0.0, float(index.time_axis.num_slices))
    edges = np.linspace(span[0], span[1], bins + 1)
    gt_hist, _ = np.histogram(pooled_gt, bins=bins, range=span)
    result_hist, _ = np.histogram(pooled_results, bins=bins, range=span)
    gt_hist = gt_hist / max(1, gt_hist.sum())
    result_hist = result_hist / max(1, result_hist.sum())

    return EvalReport(
        direction=direction,
        k=k,
        map_at_k=map_value,
        ndcg_at_k=ndcg_value,
        scope_curve=scope,
        temporal_fit=float(np.mean(fits)) if fits else 0.0,
        num_queries=len(index),
        num_excluded=excluded,
        bin_edges=[float(e) for e in edges[:-1]],
        gt_hist=[float(v) for v in gt_hist],
        result_hist=[float(v) for v in result_hist],
    )


# ---------------------------------------------------------------------------
# Report output


def write_report_json(report: EvalReport, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_dict(), fh, indent=2, sort_keys=True)
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
