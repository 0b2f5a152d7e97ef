import math
from collections import Counter
from dataclasses import fields
from itertools import permutations

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import stats

from tcmr import objective as ob
from tcmr.config import ConfigError, RunConfig
from tcmr.corpus import label_matrix
from tcmr.projection import TENSOR_NAMES, ProjectionModel

EPS = RunConfig().epsilon


def empty_plan(n):
    e = np.empty(0, dtype=np.intp)
    return ob.BatchPlan(
        anchors=e, text_negatives=e, image_negatives=e,
        positive_mask=np.zeros((n, n), dtype=bool),
    )


def per_anchor(anchors, negatives, n):
    """Each anchor's negatives from one direction's pair arrays, which run anchor-major."""
    assert (np.diff(anchors) >= 0).all() and (anchors < n).all()
    return [negatives[anchors == i] for i in range(n)]


# ---------------------------------------------------------------------------
# Per-anchor loop references: the original implementations, kept to check the
# vectorized ones against


def reference_batch_plan(label_sets):
    """(pools, positives, skipped) by per-pair loops: each anchor's negative pool (the members
    sharing no category with it), its positives, and the count of anchors with an empty pool."""
    n = len(label_sets)
    pools = [np.array([j for j in range(n) if not (label_sets[i] & label_sets[j])], dtype=np.intp)
             for i in range(n)]
    positives = [np.array([j for j in range(n) if j != i and (label_sets[i] & label_sets[j])],
                          dtype=np.intp) for i in range(n)]
    return pools, positives, sum(pool.size == 0 for pool in pools)


def check_plan(plan, label_sets, negatives_per_anchor):
    """The plan keeps the sampler's contract against the loop reference.

    In each direction pairs run anchor-major, and each anchor gets min(k, pool size) distinct
    negatives from its pool; the positive mask and the skipped count equal the reference's.
    """
    n = len(label_sets)
    pools, positives, skipped = reference_batch_plan(label_sets)
    for negatives in (plan.text_negatives, plan.image_negatives):
        assert plan.anchors.shape == negatives.shape
        for got, pool in zip(per_anchor(plan.anchors, negatives, n), pools, strict=True):
            assert got.size == min(negatives_per_anchor, pool.size)
            assert np.unique(got).size == got.size
            assert np.isin(got, pool).all()
    for i, pos in enumerate(positives):
        np.testing.assert_array_equal(np.flatnonzero(plan.positive_mask[i]), pos)
    assert plan.skipped_anchors == skipped


def assert_same_plan(a, b):
    for f in fields(ob.BatchPlan):
        np.testing.assert_array_equal(getattr(a, f.name), getattr(b, f.name))


def reference_loss_terms(proj_img, proj_txt, plan, cfg):
    """Per-anchor hinge and constraint loops over the plan's positive lists."""
    A = np.asarray(proj_img, dtype=np.float64)
    B = np.asarray(proj_txt, dtype=np.float64)
    n = A.shape[0]
    S = A @ B.T
    G = np.zeros_like(S)
    out = ob.LossBreakdown()
    m = cfg.margin
    for i in range(n):
        s_pos = S[i, i]
        for j in plan.text_negatives[plan.anchors == i]:
            hinge = m - s_pos + S[i, j]
            if hinge > 0.0:
                out.ranking += hinge
                out.active_hinges += 1
                G[i, i] -= 1.0
                G[i, j] += 1.0
        for j in plan.image_negatives[plan.anchors == i]:
            hinge = m - s_pos + S[j, i]
            if hinge > 0.0:
                out.ranking += hinge
                out.active_hinges += 1
                G[i, i] -= 1.0
                G[j, i] += 1.0
    if cfg.lam > 0.0:
        eps = cfg.epsilon
        for i in range(n):
            J = np.flatnonzero(plan.positive_mask[i])
            if J.size == 0:
                continue
            t = plan.sim_temp[i, J]
            a_raw = S[i, J]
            b_raw = S[J, i]
            a = np.maximum(a_raw, 0.0)
            b = np.maximum(b_raw, 0.0)
            denom = a + b + eps
            s_cm = 2.0 * a * b / denom
            out.temporal += np.mean(t * (1.0 - s_cm)) + np.mean((1.0 - t) * s_cm)
            w = cfg.lam * (1.0 - 2.0 * t) / J.size
            ds_da = 2.0 * b * (b + eps) / denom**2
            ds_db = 2.0 * a * (a + eps) / denom**2
            G[i, J] += w * ds_da * (a_raw > 0.0)
            G[J, i] += w * ds_db * (b_raw > 0.0)
    out.total = out.ranking + cfg.lam * out.temporal
    return out, G @ B, G.T @ A


def random_label_sets(rng, n, num_categories, max_labels=2):
    return [
        frozenset(f"c{c}" for c in rng.choice(num_categories, size=rng.integers(1, max_labels + 1),
                                              replace=False))
        for _ in range(n)
    ]


def unit_rows(rng, n, d):
    v = rng.normal(size=(n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


def loss_value(model, x_img, x_txt, plan, cfg):
    a, _ = model.image_net.forward(x_img)
    b, _ = model.text_net.forward(x_txt)
    breakdown, _, _ = ob.loss_terms_from_projections(a, b, plan, cfg)
    return breakdown.total


def anchor_constraints(t, cross):
    """C1 + C2 of anchor 0, computed by loss_terms_from_projections.

    Documents 1..m are anchor 0's only positives, with temporal values t.
    Both cross dot products of pair (0, j) equal cross[j - 1] in [0, 1], so
    its cross-modality similarity is 0 when that is 0, and within 1e-8 of
    it otherwise.
    """
    m = len(t)
    proj = np.zeros((m + 1, m + 1))
    proj[0, 0] = 1.0
    for j, c in enumerate(cross, 1):
        proj[j, 0], proj[j, j] = c, math.sqrt(1.0 - c * c)
    plan = empty_plan(m + 1)
    plan.positive_mask[0, 1:] = True
    plan.sim_temp = np.zeros((m + 1, m + 1))
    plan.sim_temp[0, 1:] = t
    out, _, _ = ob.loss_terms_from_projections(proj, proj, plan, RunConfig(lam=1.0))
    return out.temporal


def c1_c2(t, cross):
    """(C1, C2) for one positive pair: C1 = t (1 - s) and C2 = (1 - t) s are
    linear in t, and C1 + C2 is 1 - s at t = 1 and s at t = 0."""
    return t * anchor_constraints([1.0], [cross]), (1.0 - t) * anchor_constraints([0.0], [cross])


def toy_setup(seed, lam=1.0):
    """6-doc batch, 3 categories with 2 docs each, random sim_temp."""
    rng = np.random.default_rng(seed)
    model = ProjectionModel.initialize(8, 8, 6, 4, seed=seed)
    x_img = rng.normal(size=(6, 8))
    x_txt = rng.normal(size=(6, 8))
    labels = label_matrix([frozenset([f"c{i // 2}"]) for i in range(6)])
    plan = ob.build_batch_plan(labels, rng, negatives_per_anchor=1)
    plan.sim_temp = rng.uniform(size=(6, 6))
    cfg = RunConfig(margin=1.0, lam=lam, epsilon=1e-8)
    return model, x_img, x_txt, plan, cfg


class TestRankingLoss:
    def test_satisfied_margins_give_zero(self):
        # aligned pair at +x, negatives at -x: hinges are 1 - 1 - 1 < 0
        proj_img = np.array([[1.0, 0.0], [-1.0, 0.0]])
        proj_txt = np.array([[1.0, 0.0], [-1.0, 0.0]])
        plan = empty_plan(2)
        plan.anchors = np.array([0])
        plan.text_negatives = plan.image_negatives = np.array([1])
        out, dA, dB = ob.loss_terms_from_projections(
            proj_img, proj_txt, plan, RunConfig(lam=0.0)
        )
        assert out.ranking == 0.0
        assert out.total == 0.0
        assert not dA.any() and not dB.any()

    def test_zero_similarities_give_two(self):
        # pos sim 0 and neg sim 0 with m=1: each direction contributes 1
        proj_img = np.array([[1.0, 0.0], [1.0, 0.0]])
        proj_txt = np.array([[0.0, 1.0], [0.0, -1.0]])
        plan = empty_plan(2)
        plan.anchors = np.array([0])
        plan.text_negatives = plan.image_negatives = np.array([1])
        out, _, _ = ob.loss_terms_from_projections(
            proj_img, proj_txt, plan, RunConfig(lam=0.0)
        )
        assert out.ranking == pytest.approx(2.0)
        assert out.active_hinges == 2

    def test_empty_negatives_zero_loss(self):
        rng = np.random.default_rng(0)
        proj = rng.normal(size=(3, 4))
        proj /= np.linalg.norm(proj, axis=1, keepdims=True)
        out, _, _ = ob.loss_terms_from_projections(
            proj, proj, empty_plan(3), RunConfig(lam=0.0)
        )
        assert out.total == 0.0

    def test_loss_nonnegative(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a = rng.normal(size=(5, 3))
            a /= np.linalg.norm(a, axis=1, keepdims=True)
            b = rng.normal(size=(5, 3))
            b /= np.linalg.norm(b, axis=1, keepdims=True)
            labels = label_matrix([frozenset([str(rng.integers(3))]) for _ in range(5)])
            plan = ob.build_batch_plan(labels, rng, 1)
            out, _, _ = ob.loss_terms_from_projections(
                a, b, plan, RunConfig(lam=0.0)
            )
            assert out.ranking >= 0.0


class TestSimCmod:
    def test_equal_arguments(self):
        assert ob.sim_cmod_value(0.8, 0.8, EPS) == pytest.approx(0.8, abs=1e-7)

    def test_hand_value(self):
        assert ob.sim_cmod_value(0.6, 0.3, EPS) == pytest.approx(0.4, abs=1e-7)

    def test_clamped_zero_annihilates(self):
        assert ob.sim_cmod_value(-0.4, 1.0, EPS) == pytest.approx(0.0, abs=1e-7)

    def test_both_zero_guarded(self):
        assert ob.sim_cmod_value(0.0, 0.0, EPS) == 0.0

    @given(
        st.floats(min_value=-1.0, max_value=1.0),
        st.floats(min_value=-1.0, max_value=1.0),
    )
    def test_range_and_symmetry(self, a, b):
        s = ob.sim_cmod_value(a, b, EPS)
        assert 0.0 <= s <= 1.0
        assert s == ob.sim_cmod_value(b, a, EPS)

    def test_document_level_symmetry(self):
        rng = np.random.default_rng(1)
        model = ProjectionModel.initialize(4, 5, 6, 3, seed=1)
        xi, xj = rng.normal(size=4), rng.normal(size=4)
        ti, tj = rng.normal(size=5), rng.normal(size=5)
        (pi, pj), _ = model.image_net.forward(np.stack([xi, xj]))
        (qi, qj), _ = model.text_net.forward(np.stack([ti, tj]))
        assert ob.sim_cmod_value(pi @ qj, qi @ pj, EPS) == pytest.approx(
            ob.sim_cmod_value(pj @ qi, qj @ pi, EPS)
        )


class TestConstraintPenalty:
    def test_correlated_but_distant(self):
        c1, c2 = c1_c2(1.0, 0.0)
        assert (c1, c2) == (1.0, 0.0)

    def test_uncorrelated_and_distant(self):
        assert anchor_constraints([0.0, 0.0], [0.0, 0.0]) == 0.0

    def test_mixed_half(self):
        c1, c2 = c1_c2(0.5, 0.5)
        assert c1 == pytest.approx(0.25)
        assert c2 == pytest.approx(0.25)
        assert c1 + c2 == pytest.approx(0.5)

    def test_empty_positive_set(self):
        assert anchor_constraints([], []) == 0.0

    @given(
        st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=8),
        st.data(),
    )
    def test_penalty_in_unit_interval(self, t, data):
        s = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=1.0),
                min_size=len(t), max_size=len(t),
            )
        )
        assert 0.0 <= anchor_constraints(t, s) <= 1.0 + 1e-12


class TestTotalLoss:
    def test_lambda_zero_equals_ranking(self):
        model, x_img, x_txt, plan, _ = toy_setup(seed=5, lam=0.0)
        plan.sim_temp = None
        cfg0 = RunConfig(lam=0.0)
        total, grads_t = ob.total_loss(x_img, x_txt, plan, model, cfg0)
        a, cache_a = model.image_net.forward(x_img)
        b, cache_b = model.text_net.forward(x_txt)
        rank, dA, dB = reference_loss_terms(a, b, plan, cfg0)
        grads_r = model.image_net.backward(cache_a, dA) + model.text_net.backward(cache_b, dB)
        assert total.total == total.ranking and total.temporal == 0.0
        assert rank.total == rank.ranking and rank.temporal == 0.0
        # only the summation order of the hinge values differs
        assert total.ranking == pytest.approx(rank.ranking, rel=1e-12, abs=0.0)
        for g_t, g_r in zip(grads_t, grads_r, strict=True):
            np.testing.assert_array_equal(g_t, g_r)

    def test_additivity(self):
        model, x_img, x_txt, plan, cfg = toy_setup(seed=6, lam=1.0)
        out, _ = ob.total_loss(x_img, x_txt, plan, model, cfg)
        assert out.total == pytest.approx(out.ranking + cfg.lam * out.temporal)

    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_gradients_match_finite_difference(self, seed):
        model, x_img, x_txt, plan, cfg = toy_setup(seed=seed, lam=1.0)
        _, grads = ob.total_loss(x_img, x_txt, plan, model, cfg)
        eps = 1e-5
        for name, p, analytic in zip(TENSOR_NAMES, model.params(), grads, strict=True):
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                up = loss_value(model, x_img, x_txt, plan, cfg)
                p[idx] = orig - eps
                down = loss_value(model, x_img, x_txt, plan, cfg)
                p[idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
                it.iternext()
            denom = np.maximum(1e-8, np.abs(numeric))
            assert (np.abs(analytic - numeric) / denom).max() < 1e-4, name

    def test_missing_sim_temp_rejected(self):
        model, x_img, x_txt, plan, cfg = toy_setup(seed=7, lam=1.0)
        plan.sim_temp = None
        with pytest.raises(ValueError, match="sim_temp"):
            ob.total_loss(x_img, x_txt, plan, model, cfg)


class TestBatchPlan:
    def test_negatives_share_no_category(self):
        rng = np.random.default_rng(8)
        labels = [frozenset(["a"]), frozenset(["a", "b"]), frozenset(["c"]),
                  frozenset(["b"]), frozenset(["c", "d"])]
        plan = ob.build_batch_plan(label_matrix(labels), rng, negatives_per_anchor=2)
        for negatives in (plan.text_negatives, plan.image_negatives):
            for i, j in zip(plan.anchors, negatives):
                assert not (labels[i] & labels[j])

    def test_positives_share_a_category_and_exclude_self(self):
        rng = np.random.default_rng(9)
        labels = [frozenset(["a"]), frozenset(["a"]), frozenset(["b"])]
        plan = ob.build_batch_plan(label_matrix(labels), rng, 1)
        assert list(np.flatnonzero(plan.positive_mask[0])) == [1]
        assert list(np.flatnonzero(plan.positive_mask[1])) == [0]
        assert list(np.flatnonzero(plan.positive_mask[2])) == []

    def test_anchor_without_negatives_skipped(self):
        rng = np.random.default_rng(10)
        labels = label_matrix([frozenset(["a"]), frozenset(["a"])])
        plan = ob.build_batch_plan(labels, rng, 1)
        assert plan.skipped_anchors == 2
        assert plan.anchors.size == plan.text_negatives.size == 0

    def test_config_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(margin=0.0)
        with pytest.raises(ConfigError):
            RunConfig(epsilon=1e-3)
        with pytest.raises(ConfigError):
            RunConfig(lam=-0.1)
        with pytest.raises(ConfigError):
            RunConfig(negatives_per_anchor=0)


class TestAgainstLoopReferences:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("negatives", [1, 3])
    def test_plan_draws_the_same_negatives(self, seed, negatives):
        """One seed draws the same plan twice, and the plan keeps the sampler's contract."""
        rng = np.random.default_rng(seed)
        label_sets = random_label_sets(rng, 24, num_categories=4 + seed % 3)
        labels = label_matrix(label_sets)
        plan = ob.build_batch_plan(labels, np.random.default_rng(100 + seed), negatives)
        check_plan(plan, label_sets, negatives)
        assert_same_plan(plan, ob.build_batch_plan(labels, np.random.default_rng(100 + seed),
                                                   negatives))

    # pools of 3 == k and 2 < k; pools of 1, 2 and 3, all < k; an empty pool and
    # pools of 1 == k; every pool empty
    @example(label_sets=[{"a"}, {"b"}, {"c"}, {"c"}], negatives=3, seed=0)
    @example(label_sets=[{"a"}, {"a", "c"}, {"b"}, {"c"}], negatives=4, seed=1)
    @example(label_sets=[{"a"}, {"a", "b"}, {"b"}], negatives=1, seed=2)
    @example(label_sets=[{"a"}, {"a"}], negatives=2, seed=3)
    @settings(deadline=None)
    @given(
        label_sets=st.integers(1, 8).flatmap(lambda c: st.lists(
            st.frozensets(st.sampled_from([f"c{j}" for j in range(c)]), min_size=1, max_size=3),
            min_size=1, max_size=70,
        )),
        negatives=st.integers(1, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_plan_samples_each_pool(self, label_sets, negatives, seed):
        """For any batch, the plan keeps the sampler's contract, and a seed repeats it."""
        label_sets = [frozenset(s) for s in label_sets]
        labels = label_matrix(label_sets)
        plan = ob.build_batch_plan(labels, np.random.default_rng(seed), negatives)
        check_plan(plan, label_sets, negatives)
        assert_same_plan(plan, ob.build_batch_plan(labels, np.random.default_rng(seed),
                                                   negatives))

    @pytest.mark.parametrize("negatives", [1, 2])
    def test_negatives_are_uniform(self, negatives):
        """Anchor 0's pool is members 1-5; member 6 shares its category. Over 10,000 seeded
        plans, the counts of each member and of each ordered draw in each direction, and of
        each (text draw, image draw) pair, pass a chi-square test at the 0.999 quantile."""
        labels = label_matrix([frozenset(["a"]), *(frozenset([f"b{j}"]) for j in range(5)),
                               frozenset(["a"])])
        rng = np.random.default_rng(23)
        members = {"text": Counter(), "image": Counter()}
        ordered = {"text": Counter(), "image": Counter()}
        joint = Counter()
        for _ in range(10_000):
            plan = ob.build_batch_plan(labels, rng, negatives)
            drawn = {d: tuple(getattr(plan, f"{d}_negatives")[plan.anchors == 0].tolist())
                     for d in members}
            for d in members:
                members[d].update(drawn[d])
                ordered[d][drawn[d]] += 1
            joint[drawn["text"], drawn["image"]] += 1
        tuples = list(permutations(range(1, 6), negatives))
        tests = [(joint, [(t, i) for t in tuples for i in tuples])]
        for d in members:
            assert sorted(members[d]) == [1, 2, 3, 4, 5]
            assert sorted(ordered[d]) == sorted(tuples)
            tests += [(members[d], range(1, 6)), (ordered[d], tuples)]
        for counts, cells in tests:
            observed = [counts[c] for c in cells]
            expected = sum(observed) / len(observed)
            chi2 = sum((o - expected) ** 2 for o in observed) / expected
            assert chi2 < stats.chi2.ppf(0.999, len(observed) - 1), observed

    @pytest.mark.parametrize("seed", range(8))
    def test_loss_terms_match_per_anchor_loops(self, seed):
        rng = np.random.default_rng(seed)
        n = 32
        label_sets = random_label_sets(rng, n, num_categories=3 + seed % 4)
        plan = ob.build_batch_plan(label_matrix(label_sets), rng, 1 + seed % 3)
        plan.sim_temp = rng.uniform(size=(n, n))
        plan.sim_temp[rng.uniform(size=(n, n)) < 0.2] = 0.0
        cfg = RunConfig(margin=0.2 + 0.3 * (seed % 3), lam=0.5 * (seed % 3))
        a, b = unit_rows(rng, n, 6), unit_rows(rng, n, 6)
        got, dA, dB = ob.loss_terms_from_projections(a, b, plan, cfg)
        want, ref_dA, ref_dB = reference_loss_terms(a, b, plan, cfg)
        np.testing.assert_array_equal(dA, ref_dA)
        np.testing.assert_array_equal(dB, ref_dB)
        assert got.active_hinges == want.active_hinges > 0
        # only the summation order of the loss values changed
        assert got.ranking == pytest.approx(want.ranking, rel=1e-12, abs=0.0)
        assert got.temporal == pytest.approx(want.temporal, rel=1e-12, abs=0.0)
        assert got.total == pytest.approx(want.total, rel=1e-12, abs=0.0)
