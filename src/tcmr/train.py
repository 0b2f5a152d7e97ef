"""Joint training of both projection networks with early stopping.

Per epoch the training split is reshuffled, cut into mini-batches, and each
batch contributes one SGD-with-momentum step on the total objective. When a
validation split is present, mean mAP@K over both retrieval directions is
computed after every epoch; the best-scoring model is kept and training
stops once the score fails to improve for more than ``patience`` epochs.
The whole run is deterministic given the config seed.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field

import numpy as np

from .config import RunConfig
from .corpus import Corpus, DocFrequency, document_frequencies, label_matrix, tfidf_matrix
from .objective import build_batch_plan, total_loss
from .projection import ProjectionModel, SgdMomentum
from .retrieval import DIRECTIONS, build_index, evaluate_direction
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
    stats: DocFrequency
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


def mean_map_both_directions(index, k: int) -> float:
    """Validation score: the ``eval`` mAP@k, averaged over both retrieval directions."""
    values = [evaluate_direction(index, d, k, k_list=()).map_at_k for d in DIRECTIONS]
    return float(np.mean(values))


def train_model(train: Corpus, val: Corpus | None, cfg: RunConfig,
                temporal_model=None) -> TrainResult:
    if cfg.lam > 0 and temporal_model is None:
        raise ValueError("lambda > 0 requires a fitted temporal model")

    stats = document_frequencies(train)
    x_img = train.image_matrix()
    x_txt = tfidf_matrix([d.text_counts for d in train.documents], stats)
    labels = label_matrix(train.label_sets())
    table = temporal_model.document_table(train.documents) if cfg.lam > 0 else None
    n = len(train.documents)

    init_ss, batch_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    model = ProjectionModel.initialize(
        train.d_image, train.d_text, cfg.hidden, cfg.d_subspace, seed=init_ss
    )
    opt = SgdMomentum(eta=cfg.eta, momentum=cfg.momentum, decay=cfg.decay)
    rng = np.random.default_rng(batch_ss)
    use_val = val is not None and len(val.documents) > 0

    result = TrainResult(model=model, stats=stats)
    best_model = model.copy()
    best_map = -np.inf
    bad_epochs = 0

    for epoch in range(1, cfg.epochs + 1):
        perm = rng.permutation(n)
        total = ranking = temporal = 0.0
        skipped = 0
        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            plan = build_batch_plan(
                labels[idx], rng, negatives_per_anchor=cfg.negatives_per_anchor
            )
            if cfg.lam > 0:
                plan.sim_temp = temporal_model.pair_matrix(table, idx, plan.positive_mask)
            out, grads = total_loss(x_img[idx], x_txt[idx], plan, model, cfg)
            opt.step(model, grads, batch_size=len(idx))
            total += out.total
            ranking += out.ranking
            temporal += cfg.lam * out.temporal
            skipped += out.skipped_anchors

        val_map = None
        if use_val:
            val_index = build_index(val, model, stats)
            val_map = mean_map_both_directions(val_index, cfg.k_eval)
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
        if use_val:
            if val_map > best_map:
                best_map = val_map
                best_model = model.copy()
                result.best_epoch = epoch
                result.best_val_map = val_map
                bad_epochs = 0
            else:
                bad_epochs += 1
                if bad_epochs > cfg.patience:
                    break

    result.model = best_model if use_val else model
    if not use_val:
        result.best_epoch = len(result.history)
    return result


def write_training_log(history: list[EpochLog], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for entry in history:
            fh.write(json.dumps(asdict(entry), sort_keys=True) + "\n")
