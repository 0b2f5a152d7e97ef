"""Output checks that do not trust the code they check.

``oracle_check`` re-scores the eval stage from the checkpoint's own
projections, with every test document as a candidate. Each query's AP@K,
nDCG@K and temporal fit (histogram intersection of the timestamps of the
relevant documents in the top K with those of all relevant documents) are
computed here, vectorised over all queries; their means must equal the
figures the eval stage printed. For a seeded sample of queries the AP@K and
nDCG@K must also equal the definitional oracles ``tcmr.synth.oracle_ap``
and ``oracle_ndcg``, which are plain Python and too slow for every query
of a large split.
"""

from __future__ import annotations

import json
import math

import numpy as np

ORACLE_SAMPLE = 256
TOLERANCE = 1e-9


def finite_loss(log_path) -> tuple[bool, str]:
    """Every epoch of the training log reports a finite loss."""
    with open(log_path, encoding="utf-8") as fh:
        epochs = [json.loads(line) for line in fh if line.strip()]
    if not epochs:
        return False, "training log is empty"
    for entry in epochs:
        for key in ("train_loss", "loss_ranking", "loss_temporal"):
            if not math.isfinite(entry.get(key, math.nan)):
                return False, f"epoch {entry.get('epoch')}: {key} = {entry.get(key)}"
    return True, f"{len(epochs)} epochs, final train_loss {epochs[-1]['train_loss']:.6g}"


def per_query(scores, grades, timestamps, span, k, gain, bins):
    """AP@K, nDCG@K (NaN where undefined) and temporal fit of every query row.

    Candidates are ranked by score descending, ties by index ascending.
    """
    n = len(scores)
    order = np.lexsort((np.broadcast_to(np.arange(n), scores.shape), -scores), axis=1)[:, :k]
    ranked = np.take_along_axis(grades, order, axis=1)
    hit = ranked > 0
    relevant = grades > 0
    ranks = np.arange(1, order.shape[1] + 1)
    with np.errstate(invalid="ignore", divide="ignore"):
        ap = (np.cumsum(hit, axis=1) / ranks * hit).sum(axis=1) / np.minimum(relevant.sum(1), k)
        gains = grades if gain == "linear" else np.exp2(grades) - 1.0
        discounts = 1.0 / np.log2(ranks + 1)
        dcg = (np.take_along_axis(gains, order, axis=1) * discounts).sum(axis=1)
        idcg = (-np.sort(-gains, axis=1)[:, : len(ranks)] * discounts).sum(axis=1)
        ndcg = np.where(idcg > 0, dcg / idcg, np.nan)
    fits = []
    for i in np.flatnonzero(relevant.any(axis=1)):
        result = timestamps[order[i][hit[i]]]
        if result.size == 0:
            fits.append(0.0)
            continue
        p, _ = np.histogram(result, bins=bins, range=span)
        q, _ = np.histogram(timestamps[relevant[i]], bins=bins, range=span)
        fits.append(float(np.minimum(p / p.sum(), q / q.sum()).sum()))
    return ap, ndcg, np.array(fits)


def oracle_check(checkpoint, bundle, eval_summary, k, seed) -> list[tuple[str, bool, str]]:
    from tcmr import corpus as cp
    from tcmr import retrieval as rt
    from tcmr import synth as sy
    from tcmr.cli import load_bundle
    from tcmr.config import config_from_dict
    from tcmr.projection import load_checkpoint

    model, snapshot, _ = load_checkpoint(checkpoint)
    cfg = config_from_dict(snapshot)
    corpus = load_bundle(bundle, cfg.time_unit)
    train, _, test = cp.split(
        corpus, cp.SplitSpec(cfg.dev_fraction, cfg.val_fraction, cfg.seed)
    )
    stats = cp.document_frequencies(train)

    # sorted by id, so the index tie-break here equals the eval stage's id tie-break
    docs = sorted(test.documents, key=lambda d: d.id)
    index = rt.build_index(test.with_documents(docs), model, stats)
    categories = sorted(set().union(*index.label_sets))
    onehot = np.array([[c in labels for c in categories] for labels in index.label_sets],
                      dtype=np.float64)
    grades = onehot @ onehot.T  # shared-category counts
    span = (0.0, float(index.time_axis.num_slices))
    n = len(docs)
    sample = np.random.default_rng([seed, 17]).choice(n, size=min(n, ORACLE_SAMPLE),
                                                      replace=False)

    results = []
    for direction in rt.DIRECTIONS:
        if direction == rt.I2T:
            scores = index.image_matrix @ index.text_matrix.T
        else:
            scores = index.text_matrix @ index.image_matrix.T
        ap, ndcg, fits = per_query(scores, grades, index.timestamps, span, k,
                                   cfg.ndcg_gain, cfg.eval_bins)
        tag = direction.lower()
        for what, values in (("map", ap), ("ndcg", ndcg), ("temporal_fit", fits)):
            expected = float(np.nanmean(values))
            got = eval_summary.get(f"{what}_{tag}", math.nan)
            results.append((
                f"{direction} {what}@{k} of all queries", abs(expected - got) <= TOLERANCE,
                f"recomputed {expected:.12f} vs eval {got:.12f} over {n} queries",
            ))
        worst = 0.0
        for i in sample:
            row, grade = scores[i].tolist(), grades[i].tolist()
            oracle = (sy.oracle_ap(row, [g > 0 for g in grade], k),
                      sy.oracle_ndcg(row, grade, k, gain=cfg.ndcg_gain))
            for value, mine in zip(oracle, (ap[i], ndcg[i])):
                if value is None:
                    worst = max(worst, 0.0 if math.isnan(mine) else math.inf)
                else:
                    worst = max(worst, abs(value - mine))
        results.append((
            f"{direction} oracle ap/ndcg@{k} of sampled queries", bool(worst <= TOLERANCE),
            f"largest difference {worst:.3g} over {len(sample)} of {n} queries",
        ))
    return results
