"""Training objective over a mini-batch of projected document pairs.

Two parts, combined additively:

  * a bidirectional margin ranking loss: for each anchor document, its own
    image/text pair must score higher (by the margin) than sampled negatives
    that share no category with it, in both query directions;
  * temporal soft constraints over in-batch positives (documents sharing at
    least one category): temporally correlated positives should have high
    cross-modality similarity (C1) and temporally uncorrelated ones low
    similarity (C2), each averaged over the positive set.

Cross-modality similarity is the harmonic mean of the two cross dot
products, clamped to [0, 1]. Temporal correlation values are precomputed
constants, one (b, b) matrix per batch; gradients flow only through the
projections. With lambda = 0 the temporal part is skipped, which is the
ranking-only ablation; ``plan.sim_temp`` may then stay None.

Positives come from the batch label matrix as masks over ``L @ L.T``; the
hinge terms are gathered through index arrays and the constraint terms are
masked (b, b) operations. Hinge entries of dL/dS (the diagonal and pairs
sharing no label) never overlap constraint entries (distinct pairs sharing a
label), so the gradient equals the per-anchor accumulation bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig


@dataclass
class BatchPlan:
    """Sampled negatives and the positive-pair mask of one mini-batch.

    All indices are batch-local. ``negatives_text[i]`` and
    ``negatives_image[i]`` are anchor i's sampled negatives;
    ``positive_mask[i, j]`` is True when documents i != j share a category.
    ``sim_temp`` is the (b, b) temporal correlation matrix, read at the
    positive pairs; it stays None when no temporal model is in play.
    """

    negatives_text: list[np.ndarray]
    negatives_image: list[np.ndarray]
    positive_mask: np.ndarray
    sim_temp: np.ndarray | None = None
    skipped_anchors: int = 0


def build_batch_plan(labels, rng, negatives_per_anchor=1) -> BatchPlan:
    """Sample per-anchor negatives and mask the in-batch positives.

    ``labels`` is the batch's (b, C) 0/1 label matrix. Negatives are drawn
    uniformly (without replacement) from batch members sharing no category
    with the anchor, with one ``rng.choice`` per anchor and direction, text
    first; anchors with an empty negative pool are skipped for the ranking
    term and counted.
    """
    labels = np.asarray(labels, dtype=np.float64)
    shared = labels @ labels.T > 0.0
    neg_text, neg_image = [], []
    skipped = 0
    for i in range(len(labels)):
        pool = np.flatnonzero(~shared[i])
        if pool.size == 0:
            skipped += 1
            chosen_t = np.empty(0, dtype=np.intp)
            chosen_i = np.empty(0, dtype=np.intp)
        else:
            k = min(negatives_per_anchor, pool.size)
            chosen_t = rng.choice(pool, size=k, replace=False)
            chosen_i = rng.choice(pool, size=k, replace=False)
        neg_text.append(chosen_t)
        neg_image.append(chosen_i)
    np.fill_diagonal(shared, False)
    return BatchPlan(
        negatives_text=neg_text,
        negatives_image=neg_image,
        positive_mask=shared,
        skipped_anchors=skipped,
    )


# ---------------------------------------------------------------------------
# Similarity and constraint algebra


def sim_cmod_value(s_ij, s_ji, epsilon=1e-8):
    """Harmonic-mean cross-modality similarity from the two cross dot products.

    Negative dot products are clamped to 0 first, keeping the result in
    [0, 1] so the (1 - sim) complements in the constraints stay well-posed.
    """
    a = np.maximum(np.asarray(s_ij, dtype=np.float64), 0.0)
    b = np.maximum(np.asarray(s_ji, dtype=np.float64), 0.0)
    return 2.0 * a * b / (a + b + epsilon)


@dataclass
class LossBreakdown:
    total: float = 0.0
    ranking: float = 0.0
    temporal: float = 0.0  # unweighted sum of per-anchor C1+C2
    skipped_anchors: int = 0
    active_hinges: int = 0


def _anchor_pairs(per_anchor):
    """(anchor, negative) index arrays from per-anchor negative arrays."""
    anchors = np.repeat(np.arange(len(per_anchor)), [len(j) for j in per_anchor])
    return anchors, np.concatenate([np.empty(0, np.intp), *per_anchor]).astype(np.intp)


def loss_terms_from_projections(proj_img, proj_txt, plan: BatchPlan, cfg: RunConfig):
    """Loss value and gradients w.r.t. the projected batch.

    proj_img and proj_txt are (n, D) unit-row matrices. Returns
    (LossBreakdown, d_proj_img, d_proj_txt).
    """
    A = np.asarray(proj_img, dtype=np.float64)
    B = np.asarray(proj_txt, dtype=np.float64)
    S = A @ B.T  # S[i, j] = image_i . text_j
    G = np.zeros_like(S)  # dL/dS
    out = LossBreakdown(skipped_anchors=plan.skipped_anchors)

    # anchor i's text negative j scores S[i, j], its image negative j S[j, i]
    anc_t, neg_t = _anchor_pairs(plan.negatives_text)
    anc_i, neg_i = _anchor_pairs(plan.negatives_image)
    anchors = np.concatenate([anc_t, anc_i])
    rows = np.concatenate([anc_t, neg_i])
    cols = np.concatenate([neg_t, anc_i])
    hinge = (cfg.margin - S[anchors, anchors]) + S[rows, cols]
    active = hinge > 0.0
    out.ranking = float(hinge[active].sum())
    out.active_hinges = int(active.sum())
    np.add.at(G, (anchors[active], anchors[active]), -1.0)
    np.add.at(G, (rows[active], cols[active]), 1.0)

    if cfg.lam > 0.0:
        if plan.sim_temp is None:
            raise ValueError("temporal term requested but plan has no sim_temp values")
        eps = cfg.epsilon
        pos = plan.positive_mask
        count = pos.sum(axis=1)
        t = plan.sim_temp
        # entry [i, j] is anchor i's term for positive j, from S[i, j] and S[j, i]
        s_cm = sim_cmod_value(S, S.T, eps)
        c1 = np.where(pos, t * (1.0 - s_cm), 0.0).sum(axis=1)
        c2 = np.where(pos, (1.0 - t) * s_cm, 0.0).sum(axis=1)
        has_pos = count > 0
        out.temporal = float((c1[has_pos] / count[has_pos] + c2[has_pos] / count[has_pos]).sum())
        # d(C1+C2)/d(s_cm) = (1 - 2 t) / |J|, weighted by lambda
        w = cfg.lam * (1.0 - 2.0 * t) / np.maximum(count, 1)[:, None]
        a = np.maximum(S, 0.0)
        b = np.maximum(S.T, 0.0)
        denom = a + b + eps
        ds_da = 2.0 * b * (b + eps) / denom**2
        ds_db = 2.0 * a * (a + eps) / denom**2
        G += np.where(pos, w * ds_da * (S > 0.0), 0.0)
        G += np.where(pos, w * ds_db * (S.T > 0.0), 0.0).T

    out.total = out.ranking + cfg.lam * out.temporal
    dA = G @ B
    dB = G.T @ A
    return out, dA, dB


def total_loss(image_feats, text_vecs, plan, model, cfg):
    """Ranking loss plus lambda-weighted temporal penalty, with gradients in params() order."""
    proj_img, cache_img = model.image_net.forward(image_feats)
    proj_txt, cache_txt = model.text_net.forward(text_vecs)
    breakdown, dA, dB = loss_terms_from_projections(proj_img, proj_txt, plan, cfg)
    grads_img, _ = model.image_net.backward(cache_img, dA)
    grads_txt, _ = model.text_net.backward(cache_txt, dB)
    return breakdown, grads_img + grads_txt
