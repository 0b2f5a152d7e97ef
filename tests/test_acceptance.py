"""Acceptance suite: one test per acceptance criterion.

Each test prints a single [PASS]/[FAIL] line (visible with -s or in the
captured output) and asserts the criterion at its stated tolerance. The two
multi-seed experiments first print one line per seed and a summary of the
per-seed margins (``margins``), so a seed that flips shows before a mean
crosses its gate. The planted-structure experiments train real models and
take a few minutes in total; runtime bounds are asserted where the
criterion states them.
"""

import itertools
import math
import time

import numpy as np
import pytest

from retrieval_reference import topk_of_grades
from tcmr import corpus as cp
from tcmr import objective as ob
from tcmr import retrieval as rt
from tcmr import synth
from tcmr import temporal as tp
from tcmr.cli import main
from tcmr.config import RunConfig
from tcmr.projection import ProjectionModel
from tcmr.train import fit_temporal_model, train_model
from temporal_reference import all_pairs, corpus_at, doc_at


def report(name, ok, detail=""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


def margins(name, ahead, behind, diffs, fmt):
    """Print how many seeds each arm wins (a tie is neither's) and the smallest and largest
    per-seed difference ``ahead - behind``."""
    print(f"  {name}: {ahead} wins {sum(d > 0 for d in diffs)}, {behind} wins"
          f" {sum(d < 0 for d in diffs)} of {len(diffs)} seeds; difference"
          f" {min(diffs):{fmt}} to {max(diffs):{fmt}}")


# ---------------------------------------------------------------------------
# Shared experiment machinery


def run_experiment(spec_kwargs, cfg_kwargs, seed, lam, temporal_kind=None):
    """Generate, split, optionally fit a temporal model, train, evaluate.

    Returns (mean mAP@50, mean temporal fit) over both retrieval directions
    on the test split.
    """
    corpus, _ = synth.generate(synth.SynthSpec(seed=seed, **spec_kwargs))
    cfg = RunConfig(lam=lam, seed=seed, **cfg_kwargs)
    train, val, test = cp.split(
        corpus, cp.SplitSpec(cfg.dev_fraction, cfg.val_fraction, cfg.seed)
    )
    temporal_model = (
        fit_temporal_model(temporal_kind, train, cfg) if temporal_kind else None
    )
    result = train_model(train, val, cfg, temporal_model=temporal_model)
    index = rt.build_index(test, result.model, cp.document_frequencies(train))
    grading = rt.grade_split(index, cfg.eval_bins, cfg.k_eval)
    reports = [rt.evaluate_direction(index, grading, d, cfg.k_eval, ndcg_gain=cfg.ndcg_gain)
               for d in rt.DIRECTIONS]
    mean_map = float(np.mean([r.map_at_k for r in reports]))
    mean_fit = float(np.mean([r.temporal_fit for r in reports]))
    return mean_map, mean_fit


BASE_CFG = dict(
    d_subspace=64, hidden=256, batch_size=64, k_eval=50, patience=5,
    kde_grid_size=1024, gibbs_iters=30,
)


def test_gradient_correctness():
    """Analytic total-loss gradients vs central finite differences."""
    start = time.monotonic()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(seed)
        model = ProjectionModel.initialize(8, 8, 6, 4, seed=seed)
        x_img = rng.normal(size=(6, 8))
        x_txt = rng.normal(size=(6, 8))
        labels = cp.label_matrix([frozenset([f"c{i // 2}"]) for i in range(6)])
        plan = ob.build_batch_plan(labels, rng, 1)
        plan.sim_temp = rng.uniform(size=(6, 6))
        cfg = RunConfig(margin=1.0, lam=1.0)

        def loss():
            a, _ = model.image_net.forward(x_img)
            b, _ = model.text_net.forward(x_txt)
            out, _, _ = ob.loss_terms_from_projections(a, b, plan, cfg)
            return out.total

        _, grads = ob.total_loss(x_img, x_txt, plan, model, cfg)
        eps = 1e-5
        for p, g in zip(model.params(), grads, strict=True):
            numeric = np.zeros_like(p)
            it = np.nditer(p, flags=["multi_index"])
            while not it.finished:
                idx = it.multi_index
                orig = p[idx]
                p[idx] = orig + eps
                up = loss()
                p[idx] = orig - eps
                down = loss()
                p[idx] = orig
                numeric[idx] = (up - down) / (2 * eps)
                it.iternext()
            rel = np.abs(g - numeric) / np.maximum(1e-8, np.abs(numeric))
            worst = max(worst, float(rel.max()))
    elapsed = time.monotonic() - start
    report(
        "gradient-correctness",
        worst < 1e-4 and elapsed < 10.0,
        f"worst relative error {worst:.2e} over 5 configs in {elapsed:.1f}s",
    )


def ranked_topk(scores, grades, depth):
    """One query's TopK through the production ranking; ties broken by index."""
    scores = np.array([scores], dtype=np.float64)
    grades = np.array([grades], dtype=np.float64)
    order = rt.rank_candidates(scores, np.arange(scores.shape[1]), depth)
    return topk_of_grades(grades, order, (grades > 0).sum(axis=1, keepdims=True))


def test_metric_oracles():
    """average_precision / dcg vs definitional oracles, exhaustively to n=6."""
    checked = 0
    for n in range(1, 7):
        scores = [n - i for i in range(n)]  # ranking equals list order
        for rel in itertools.product([0, 1], repeat=n):
            if not any(rel):
                continue
            for k in range(1, n + 1):
                expected = synth.oracle_ap(scores, rel, k)
                top = ranked_topk(scores, rel, k)
                got = rt.average_precision(top.grades > 0, top.relevant, [k])[0, 0]
                assert got == expected or abs(got - expected) < 1e-12, (rel, k)
                checked += 1
        for grades in itertools.product([0, 1, 2], repeat=min(n, 5)):
            if not any(grades):
                continue
            g_scores = [len(grades) - i for i in range(len(grades))]
            for k in (1, len(grades)):
                expected = synth.oracle_ndcg(g_scores, grades, k)
                top = ranked_topk(g_scores, grades, k)
                got = rt.dcg(top.grades, k, "linear")[0] / rt.dcg(top.ideal, k, "linear")[0]
                assert abs(got - expected) < 1e-12, (grades, k)
                checked += 1

    top = ranked_topk([3, 2, 1], [1, 0, 1], 50)
    ap = rt.average_precision(top.grades > 0, top.relevant, [50])[0, 0]
    assert abs(ap - 0.8333) < 1e-4
    top = ranked_topk([3, 2, 1], [2, 0, 1], 3)
    ndcg = rt.dcg(top.grades, 3, "linear")[0] / rt.dcg(top.ideal, 3, "linear")[0]
    assert abs(ndcg - 0.9502) < 1e-4
    report("metric-oracles", True, f"{checked} oracle comparisons plus hand values")


def pair_constraints(t, cross):
    """C1 + C2 of a two-document batch whose one positive pair is (0, 1).

    Computed by loss_terms_from_projections; both cross dot products of the
    pair equal ``cross``, so s is their harmonic mean, within 1e-8 of it.
    """
    proj = np.array([[1.0, 0.0], [cross, math.sqrt(1.0 - cross * cross)]])
    none = np.empty(0, dtype=np.intp)
    plan = ob.BatchPlan(
        anchors=none, text_negatives=none, image_negatives=none,
        positive_mask=np.array([[False, True], [False, False]]),
        sim_temp=np.array([[0.0, t], [0.0, 0.0]]),
    )
    out, _, _ = ob.loss_terms_from_projections(proj, proj, plan, RunConfig(lam=1.0))
    return out.temporal


def test_constraint_algebra():
    """Hand C1/C2 values; sim_cmod_value bounded over 1e5 random unit vectors."""
    # C1 = t (1 - s) and C2 = (1 - t) s are linear in t: C1 + C2 is 1 - s at
    # t = 1 and s at t = 0
    t = 1.0
    c1, c2 = t * pair_constraints(1.0, 0.0), (1.0 - t) * pair_constraints(0.0, 0.0)
    assert (c1, c2) == (1.0, 0.0)
    # t = 0.5 and s >= 0.5: 0.5 (1 - s) and 0.5 s are exact, so is their sum
    assert pair_constraints(0.5, 0.8) == 0.5

    rng = np.random.default_rng(0)
    def unit(n, d):
        v = rng.normal(size=(n, d))
        return v / np.linalg.norm(v, axis=1, keepdims=True)

    n, d = 100_000, 8
    a = (unit(n, d) * unit(n, d)).sum(axis=1)
    b = (unit(n, d) * unit(n, d)).sum(axis=1)
    s = ob.sim_cmod_value(a, b, RunConfig().epsilon)
    inside = (s >= 0.0).all() and (s <= 1.0).all()
    report(
        "constraint-algebra",
        bool(inside),
        f"hand values exact; sim_cmod_value in [{s.min():.3f}, {s.max():.3f}] over {n} draws",
    )


def test_temporal_model_correctness():
    """KDE vs direct oracle; recency hand value; phi normalization; ranges."""
    rng = np.random.default_rng(3)
    n_evals = 100_000

    # grid queries vs the direct Gaussian-sum oracle over the training observations
    days = np.concatenate([[0.0, 30.0], rng.uniform(0, 30, size=50)])
    corpus = cp.from_records(
        [(f"d{i}", np.zeros(2), {"w": 1}, int(t * 86400), ["a"]) for i, t in enumerate(days)]
    )
    kde = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=512)
    obs = corpus.timestamps[["a" in labels for labels in corpus.label_sets]]
    peak = tp.gaussian_kde_density(obs, kde.grid, 1.0).max()
    queries = rng.uniform(0, 30, size=2000)
    direct = tp.gaussian_kde_density(obs, queries, 1.0) / peak
    curve_a = kde.curves[kde.categories.index("a")]
    interp = np.interp(queries, kde.grid, curve_a)
    kde_err = float(np.abs(interp - direct).max())
    assert kde_err < 1e-3

    rec = tp.RecencyModel(h_rec=0.3)
    assert abs(all_pairs(rec, corpus_at([doc_at(0.0, "a"), doc_at(0.3, "a")]))[0, 1]
               - math.exp(-1)) < 1e-9

    topic_corpus = cp.from_records(
        [
            (
                f"t{i}",
                np.zeros(2),
                {f"w{rng.integers(12)}": int(rng.integers(1, 4)) for _ in range(3)},
                int(rng.integers(0, 10) * 86400),
                ["l"],
            )
            for i in range(60)
        ]
    )
    topic = tp.fit_topic_densities(topic_corpus, num_topics=3, seed=0, gibbs_iters=10,
                                   kappa=0.5, floor=1e-6, aggregate="geometric")
    phi_err = float(np.abs(topic.phi.sum(axis=1) - 1.0).max())
    assert phi_err < 1e-9

    # range sweeps, 1e5 evaluations per model kind
    gaps = rng.uniform(0, 50, size=n_evals)
    rec_vals = np.exp(-gaps / rec.h_rec)
    assert ((rec_vals >= 0) & (rec_vals <= 1)).all()

    ts = rng.uniform(0, 30, size=(n_evals, 2))
    # pair_matrix over 100 documents scores 10k pairs; the rest vectorized
    spot = math.isqrt(n_evals // 10)
    cat_vals = all_pairs(kde, corpus_at([doc_at(t, "a") for t in ts[:spot, 0]]))
    ok_cat = cat_vals.size == n_evals // 10 and bool(((cat_vals >= 0) & (cat_vals <= 1)).all())
    curve_vals = np.interp(ts[:, 0], kde.grid, curve_a) * np.interp(ts[:, 1], kde.grid, curve_a)
    ok_cat = ok_cat and bool(((curve_vals >= 0) & (curve_vals <= 1)).all())

    # a batch of 100 documents drawn with repeats: 10k (i, j) pairs
    batch = rng.integers(0, len(topic_corpus), size=spot)
    table = topic.document_table(topic_corpus)
    topic_vals = topic.pair_matrix(table, batch)
    prof, _ = table  # every document has a known word, so every row is a profile peaking at 1
    ok_topic = bool((prof.max(axis=1) == 1.0).all() and ((prof >= 0) & (prof <= 1.0 + 1e-12)).all())
    ok_topic = ok_topic and bool(((topic_vals >= 0) & (topic_vals <= 1)).all())

    report(
        "temporal-models",
        ok_cat and ok_topic,
        f"KDE grid error {kde_err:.2e}; recency exact; phi sum error {phi_err:.1e};"
        f" all sim_temp values in [0,1]",
    )


def test_pipeline_sanity_floor():
    """Separable corpus, lambda=0: test mAP@50 >= 0.95 within 25 epochs."""
    start = time.monotonic()
    spec = dict(
        num_categories=10, docs_per_category=200, timespan=30.0,
        modes=[(8.0, 1.5, 0.5), (22.0, 1.5, 0.5)], d_image=16,
        image_noise=0.05, vocab_size=80, words_per_doc=8,
        word_concentration=0.2, drift=0.0,
    )
    cfg = dict(BASE_CFG, epochs=25, kde_bandwidth=1.0)
    mean_map, _ = run_experiment(spec, cfg, seed=0, lam=0.0)
    elapsed = time.monotonic() - start
    report(
        "pipeline-sanity-floor",
        mean_map >= 0.95 and elapsed < 300.0,
        f"lambda=0 test mAP@50 = {mean_map:.4f} in {elapsed:.0f}s",
    )


CENTRAL_SPEC = dict(
    num_categories=4, docs_per_category=700, timespan=30.0,
    modes=[(8.0, 1.0, 0.5), (22.0, 1.0, 0.5)], d_image=16,
    image_noise=0.2, vocab_size=60, words_per_doc=6,
    word_concentration=0.25, drift=1.0,
)
CENTRAL_CFG = dict(BASE_CFG, epochs=25, kde_bandwidth=3.0)


@pytest.mark.slow
def test_central_claim_at_desk_scale():
    """Temporal soft-smoothing beats the lambda=0 ablation on a corpus with
    two temporally separated, feature-distinct modes per category."""
    start = time.monotonic()
    d_map, d_fit = [], []
    for seed in range(5):
        base_map, base_fit = run_experiment(CENTRAL_SPEC, CENTRAL_CFG, seed, lam=0.0)
        temp_map, temp_fit = run_experiment(
            CENTRAL_SPEC, CENTRAL_CFG, seed, lam=2.0, temporal_kind="category"
        )
        d_map.append(100.0 * (temp_map - base_map))
        d_fit.append(temp_fit - base_fit)
        print(f"  central-claim seed {seed}: lambda=0 mAP@50 {base_map:.4f} fit {base_fit:.3f};"
              f" lambda=2 mAP@50 {temp_map:.4f} fit {temp_fit:.3f}; difference"
              f" {d_map[-1]:+.2f} points, fit {d_fit[-1]:+.3f}")
    elapsed = time.monotonic() - start
    margins("central-claim mAP@50 points", "lambda=2", "lambda=0", d_map, "+.2f")
    margins("central-claim temporal fit", "lambda=2", "lambda=0", d_fit, "+.3f")
    mean_map, mean_fit = float(np.mean(d_map)), float(np.mean(d_fit))
    report(
        "central-claim",
        mean_map >= 3.0 and mean_fit >= 0.10 and elapsed < 900.0,
        f"mean mAP@50 gain {mean_map:+.2f} points, mean temporal-fit gain "
        f"{mean_fit:+.3f}, over 5 seeds in {elapsed:.0f}s",
    )


GRAN_CFG = dict(BASE_CFG, epochs=20, kde_bandwidth=1.0, num_topics=2)


def gran_a_spec():
    # every category shares the same six modes; word/image usage drifts
    # continuously across them
    centers = [2.5 + 5.0 * i for i in range(6)]
    return dict(
        num_categories=8, docs_per_category=150, timespan=30.0,
        modes=[(c, 1.2, 1.0 / 6.0) for c in centers], d_image=16,
        image_noise=0.2, vocab_size=60, words_per_doc=10,
        word_concentration=0.2, drift=1.0,
    )


def gran_b_spec():
    # phase-shifted periodic modes per category, no drift; word usage is
    # temporally diluted by cross-category sharing
    modes = []
    for c in range(6):
        phase = 0.6 * c
        modes.append(
            [(2.0 + phase, 0.8, 1 / 3), (12.0 + phase, 0.8, 1 / 3), (22.0 + phase, 0.8, 1 / 3)]
        )
    return dict(
        num_categories=6, docs_per_category=200, timespan=30.0, modes=modes,
        d_image=16, image_noise=0.3, vocab_size=40, words_per_doc=10,
        word_concentration=0.3, drift=0.0,
    )


@pytest.mark.slow
def test_granularity_contrast():
    """Word-level vs category-level temporal models trade places as the
    corpus's temporal structure changes."""
    start = time.monotonic()
    a_topic, a_kde = [], []
    for seed in range(5):
        kde_map, _ = run_experiment(gran_a_spec(), GRAN_CFG, seed, 2.0, "category")
        topic_map, _ = run_experiment(gran_a_spec(), GRAN_CFG, seed, 2.0, "topic")
        a_kde.append(kde_map)
        a_topic.append(topic_map)
    b_topic, b_kde = [], []
    for seed in range(5):
        kde_map, _ = run_experiment(gran_b_spec(), GRAN_CFG, seed, 2.0, "category")
        topic_map, _ = run_experiment(gran_b_spec(), GRAN_CFG, seed, 2.0, "topic")
        b_kde.append(kde_map)
        b_topic.append(topic_map)
    elapsed = time.monotonic() - start
    for arm, ahead, behind, firsts, seconds in (("drifting", "topic", "kde", a_topic, a_kde),
                                                ("periodic", "kde", "topic", b_kde, b_topic)):
        diffs = [first - second for first, second in zip(firsts, seconds)]
        for seed, (first, second, diff) in enumerate(zip(firsts, seconds, diffs)):
            print(f"  granularity {arm} seed {seed}: {ahead} {first:.4f}, {behind} {second:.4f};"
                  f" difference {diff:+.4f}")
        margins(f"granularity {arm} mAP@50", ahead, behind, diffs, "+.4f")
    a_ok = np.mean(a_topic) >= np.mean(a_kde)
    b_ok = np.mean(b_kde) >= np.mean(b_topic)
    report(
        "granularity-contrast",
        bool(a_ok and b_ok),
        f"drifting words: topic {np.mean(a_topic):.3f} >= kde {np.mean(a_kde):.3f}; "
        f"periodic categories: kde {np.mean(b_kde):.3f} >= topic {np.mean(b_topic):.3f} "
        f"(5 seeds each, {elapsed:.0f}s)",
    )


def test_determinism(tmp_path):
    """Identical seed and config give bit-identical checkpoints and reports."""
    data = tmp_path / "data"
    assert main([
        "synth", "--out", str(data), "--categories", "4", "--docs-per-category", "25",
        "--timespan", "20", "--modes", "5:1:0.5,15:1:0.5", "--d-image", "8",
        "--image-noise", "0.05", "--vocab-size", "30", "--words-per-doc", "6",
        "--concentration", "0.2", "--drift", "0", "--seed", "3",
    ]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        "d_subspace = 16\nhidden = 32\nepochs = 3\nbatch_size = 32\n"
        "k_eval = 10\nkde_grid_size = 256\nlambda = 1.0\nseed = 3\n"
    )
    temporal = tmp_path / "kde.txnt"
    assert main([
        "fit-temporal", "--kind", "category", "--corpus", str(data),
        "--config", str(cfg), "--out", str(temporal),
    ]) == 0

    artifacts = []
    for run in ("a", "b"):
        ckpt = tmp_path / f"model-{run}.txnm"
        out = tmp_path / f"eval-{run}"
        assert main([
            "train", "--corpus", str(data), "--config", str(cfg),
            "--temporal", str(temporal), "--out", str(ckpt),
        ]) == 0
        assert main([
            "eval", "--checkpoint", str(ckpt), "--corpus", str(data),
            "--out", str(out), "--k", "10",
        ]) == 0
        artifacts.append(
            (ckpt.read_bytes(),
             (out / "report-i2t.json").read_bytes(),
             (out / "report-t2i.json").read_bytes())
        )
    identical = artifacts[0] == artifacts[1]
    report("determinism", identical, "checkpoints and eval reports bit-identical")
