"""Joint training of both projection networks with early stopping.

Per epoch the training split is reshuffled, cut into mini-batches, and each
batch contributes one SGD-with-momentum step on the total objective. When a
validation split is present, mean mAP@K over both retrieval directions, as
``eval``'s ``evaluate_direction`` reports it, is computed after every epoch;
the best-scoring model is kept and training stops once the score fails to
improve for more than ``patience`` epochs. The whole run is deterministic
given the config seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import ConfigError, RunConfig
from .corpus import Corpus, document_frequencies, label_matrix, tfidf_matrix
from .objective import build_batch_plan, total_loss
from .projection import ProjectionModel, SgdMomentum
from .retrieval import DIRECTIONS, build_index, evaluate_direction, grade_split, split_index
from .temporal import RecencyModel, fit_category_kde, fit_topic_densities

TEMPORAL_KINDS = ("recency", "category", "topic")


@dataclass
class EpochLog:
    epoch: int
    train_loss: float  # per-document mean of the total objective
    loss_ranking: float
    loss_temporal: float  # lambda-weighted
    val_map: float | None
    skipped_anchors: int


@dataclass
class TrainResult:
    model: ProjectionModel
    history: list[EpochLog] = field(default_factory=list)
    best_epoch: int = -1
    best_val_map: float | None = None


def fit_temporal_model(kind: str, train: Corpus, cfg: RunConfig):
    """Fit the temporal correlation model named by ``kind`` on the train split."""
    if kind == "recency":
        return RecencyModel(h_rec=cfg.recency_scale)
    if kind == "category":
        return fit_category_kde(train, bandwidth=cfg.kde_bandwidth, grid_size=cfg.kde_grid_size)
    if kind == "topic":
        return fit_topic_densities(
            train,
            num_topics=cfg.num_topics,
            seed=cfg.seed,
            gibbs_iters=cfg.gibbs_iters,
            kappa=cfg.kappa,
            floor=cfg.topic_floor,
            aggregate=cfg.topic_aggregate,
        )
    raise ValueError(f"unknown temporal model kind {kind!r}")


def mean_map_both_directions(index, grading, k: int, ndcg_gain: str) -> float:
    """Validation score: the ``eval`` mAP@k, averaged over both retrieval directions.

    ``grading`` is the index's ``grade_split``; only the top k is ranked.
    """
    return float(np.mean([evaluate_direction(index, grading, d, k, (), ndcg_gain=ndcg_gain).map_at_k
                          for d in DIRECTIONS]))


def train_model(train: Corpus, val: Corpus | None, cfg: RunConfig,
                temporal_model=None) -> TrainResult:
    if cfg.lam > 0 and temporal_model is None:
        raise ConfigError("lambda > 0 requires --temporal with a fitted model")

    idf = document_frequencies(train)
    x_txt = tfidf_matrix(train.text, idf)
    labels = label_matrix(train.label_sets)
    table = temporal_model.document_table(train) if cfg.lam > 0 else None
    n = len(train)

    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    model = ProjectionModel.initialize(
        train.d_image, train.d_text, cfg.hidden, cfg.d_subspace, seed=init_ss
    )
    opt = SgdMomentum(eta=cfg.eta, momentum=cfg.momentum, decay=cfg.decay)
    rng = np.random.default_rng(batch_ss)
    use_val = val is not None and len(val) > 0
    if use_val:  # the val split's grading does not change between epochs
        val_grading = grade_split(split_index(val), cfg.eval_bins, cfg.k_eval)

    result = TrainResult(model=model)  # kept as trained when there is no val split
    best_map = -np.inf
    bad_epochs = 0

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        total = ranking = temporal = 0.0
        skipped = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            plan = build_batch_plan(labels[idx], rng, cfg.negatives_per_anchor)
            if cfg.lam > 0:
                plan.sim_temp = temporal_model.pair_matrix(table, idx)
            out, grads = total_loss(train.image[idx], x_txt[idx], plan, model, cfg)
            opt.step(model, grads, batch_size=len(idx))
            total += out.total
            ranking += out.ranking
            temporal += cfg.lam * out.temporal
            skipped += plan.skipped_anchors

        val_map = None
        if not use_val:
            result.best_epoch = epoch
        else:
            val_index = build_index(val, model, idf)
            val_map = mean_map_both_directions(val_index, val_grading, cfg.k_eval, cfg.ndcg_gain)
            if val_map > best_map:
                best_map = val_map
                result.model = model.copy()
                result.best_epoch = epoch
                result.best_val_map = val_map
                bad_epochs = 0
            else:
                bad_epochs += 1
        result.history.append(
            EpochLog(
                epoch=epoch,
                train_loss=total / n,
                loss_ranking=ranking / n,
                loss_temporal=temporal / n,
                val_map=val_map,
                skipped_anchors=skipped,
            )
        )
        if bad_epochs > cfg.patience:
            break
    return result


def write_training_log(history: list[EpochLog], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in history:
            fh.write(json.dumps(asdict(entry), sort_keys=True) + "\n")
