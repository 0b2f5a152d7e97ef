import dataclasses
import math

import numpy as np
import pytest

from tcmr import corpus as cp
from tcmr import temporal as tp
from tcmr.config import RunConfig
from tcmr.train import fit_temporal_model
from temporal_reference import (all_pairs, corpus_at, day_corpus, doc_at, pair_sim,
                                reference_sim, topic_profiles)

TOPIC_FIT = {"kappa": 0.5, "floor": 1e-6, "aggregate": "geometric"}  # RunConfig's defaults


def curve(model, category):
    return model.curves[model.categories.index(category)]


def batch_sim(model, doc_i, doc_j):
    """pair_matrix's value for (doc_i, doc_j) in a batch of the two."""
    return float(all_pairs(model, corpus_at([doc_i, doc_j]))[0, 1])


class TestRecency:
    def test_zero_gap(self):
        model = tp.RecencyModel(h_rec=0.3)
        assert batch_sim(model, doc_at(4.2), doc_at(4.2)) == 1.0

    def test_gap_equal_to_scale(self):
        model = tp.RecencyModel(h_rec=0.3)
        assert batch_sim(model, doc_at(1.0), doc_at(1.3)) == pytest.approx(math.exp(-1), abs=1e-9)

    def test_large_gap_underflow_safe(self):
        model = tp.RecencyModel(h_rec=0.3)
        v = batch_sim(model, doc_at(0.0), doc_at(30.0))
        assert 0.0 <= v < 1e-40

    def test_symmetry(self):
        model = tp.RecencyModel(h_rec=0.7)
        early, late = doc_at(2.0), doc_at(5.0)
        assert batch_sim(model, early, late) == batch_sim(model, late, early)

    def test_bad_scale(self):
        with pytest.raises(tp.TemporalModelError):
            tp.RecencyModel(h_rec=0.0)


class TestCategoryKDE:
    def test_single_observation_peak(self):
        corpus = day_corpus([(3, {"w": 1}, ["a"]), (0, {"w": 1}, ["b"]), (6, {"w": 1}, ["b"])])
        model = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=1024)
        assert np.interp(3.0, model.grid, curve(model, "a")) == pytest.approx(1.0, abs=1e-6)

    def test_two_observation_hand_values(self):
        corpus = day_corpus([(0, {"w": 1}, ["a"]), (10, {"w": 1}, ["a"])])
        obs = np.array([0.0, 10.0])
        raw0 = tp.gaussian_kde_density(obs, 0.0, 1.0)
        assert raw0 == pytest.approx(0.5 * 0.3989422804, abs=1e-6)
        model = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=2048)
        assert np.interp(0.0, model.grid, curve(model, "a")) == pytest.approx(1.0, abs=1e-6)
        assert np.interp(10.0, model.grid, curve(model, "a")) == pytest.approx(1.0, abs=1e-6)
        mid = np.interp(5.0, model.grid, curve(model, "a"))
        assert mid == pytest.approx(7.45e-6, rel=0.05)
        assert mid == pytest.approx(tp.gaussian_kde_density(obs, 5.0, 1.0) / raw0, rel=1e-3)

    def test_grid_queries_match_direct_oracle(self):
        rng = np.random.default_rng(0)
        days = rng.uniform(0, 30, size=40)
        corpus = day_corpus(
            [(0, {"w": 1}, ["a"]), (30, {"w": 1}, ["a"])]
            + [(float(d), {"w": 1}, ["a"]) for d in days]
        )
        model = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=512)
        obs = corpus.timestamps[["a" in labels for labels in corpus.label_sets]]
        peak = tp.gaussian_kde_density(obs, model.grid, 1.0).max()
        for t in rng.uniform(0, 30, size=200):
            direct = tp.gaussian_kde_density(obs, float(t), 1.0) / peak
            assert abs(np.interp(float(t), model.grid, curve(model, "a")) - direct) < 1e-3

    def test_sim_peak_product(self):
        corpus = day_corpus([(5, {"w": 1}, ["a"]), (0, {"w": 1}, ["b"]), (10, {"w": 1}, ["b"])])
        model = tp.fit_category_kde(corpus, bandwidth=0.5, grid_size=2048)
        value = batch_sim(model, doc_at(5.0, "a"), doc_at(5.0, "ab"))
        assert value == pytest.approx(1.0, abs=1e-5)

    def test_sim_zero_density_region(self):
        corpus = day_corpus([(0, {"w": 1}, ["a"]), (30, {"w": 1}, ["a"])])
        model = tp.fit_category_kde(corpus, bandwidth=0.3, grid_size=4096)
        assert batch_sim(model, doc_at(0.0, "a"), doc_at(15.0, "a")) < 1e-12

    def test_sim_takes_maximizing_label(self):
        grid = np.linspace(0.0, 1.0, 8)
        model = tp.CategoryKDE(
            bandwidth=1.0,
            grid=grid,
            categories=["a", "b"],
            curves=np.array([np.full(8, math.sqrt(0.2)), np.full(8, math.sqrt(0.6))]),
        )
        assert batch_sim(model, doc_at(0.2, "ab"), doc_at(0.8, "ab")) == pytest.approx(0.6)

    def test_sim_without_fitted_shared_label(self):
        corpus = day_corpus([(0, {"w": 1}, ["a"]), (1, {"w": 1}, ["a"])])
        model = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=2048)
        assert batch_sim(model, doc_at(0.0, ["z"]), doc_at(1.0, ["z"])) == 0.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(3)
        corpus = day_corpus(
            [(float(rng.uniform(0, 20)), {"w": 1}, [str(rng.integers(3))]) for _ in range(60)]
        )
        model = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=512)
        for _ in range(500):
            t_i, t_j = rng.uniform(0, 20, size=2)
            lab = str(rng.integers(3))
            v = batch_sim(model, doc_at(t_i, [lab]), doc_at(t_j, [lab]))
            assert 0.0 <= v <= 1.0


class TestTopicDensity:
    def test_single_slice_profile_is_one(self):
        corpus = day_corpus([(0, {"a": 2, "b": 1}, ["l"]), (0, {"b": 3}, ["l"])])
        model = tp.fit_topic_densities(corpus, num_topics=2, seed=0, gibbs_iters=10, **TOPIC_FIT)
        assert model.phi.shape[1] == 1
        np.testing.assert_allclose(model.phi, 1.0)

    def test_word_concentrated_in_one_slice(self):
        specs = [(d, {"common": 3}, ["l"]) for d in range(5)]
        specs[3] = (3, {"common": 3, "rare": 4}, ["l"])
        corpus = day_corpus(specs)
        model = tp.fit_topic_densities(corpus, num_topics=1, seed=1, gibbs_iters=20, **TOPIC_FIT)
        curve = model.phi[model.vocabulary.index("rare")]
        assert int(np.argmax(curve)) == 3
        assert curve[3] > 0.5

    def test_profiles_sum_to_one(self):
        rng = np.random.default_rng(5)
        specs = [
            (int(rng.integers(0, 6)), {f"w{rng.integers(8)}": int(rng.integers(1, 4))}, ["l"])
            for _ in range(30)
        ]
        corpus = day_corpus(specs)
        model = tp.fit_topic_densities(corpus, num_topics=3, seed=2, gibbs_iters=15, **TOPIC_FIT)
        np.testing.assert_allclose(model.phi.sum(axis=1), 1.0, atol=1e-9)
        assert (model.phi >= 0).all()

    def test_seed_determinism(self, monkeypatch):
        specs = [(d % 4, {f"w{d % 5}": 2, "x": 1}, ["l"]) for d in range(20)]
        corpus = day_corpus(specs)
        gibbs_slice = tp._gibbs_slice
        counts_a = record_slice_counts(monkeypatch, gibbs_slice)
        a = tp.fit_topic_densities(corpus, num_topics=3, seed=9, gibbs_iters=15, **TOPIC_FIT)
        counts_b = record_slice_counts(monkeypatch, gibbs_slice)
        b = tp.fit_topic_densities(corpus, num_topics=3, seed=9, gibbs_iters=15, **TOPIC_FIT)
        np.testing.assert_array_equal(a.phi, b.phi)
        assert len(counts_a) == len(counts_b) == a.num_effective_slices
        for got, want in zip(counts_a, counts_b):
            np.testing.assert_array_equal(got, want)

    def _manual_model(self, phi, num_slices=None, aggregate="geometric"):
        phi = np.asarray(phi, dtype=np.float64)
        n_slices = num_slices or phi.shape[1]
        axis = cp.TimeAxis(unit=1.0, origin=0, num_slices=n_slices)
        return tp.TopicDensity(
            num_topics=1,
            vocabulary=[f"w{i}" for i in range(phi.shape[0])],
            phi=phi,
            slice_map=np.arange(n_slices, dtype=np.int64),
            time_axis=axis,
            floor=1e-6,
            aggregate=aggregate,
        )

    def test_uniform_densities_give_one_everywhere(self):
        model = self._manual_model(np.full((3, 4), 0.25))
        for t in range(4):
            doc = doc_at(0.0, tokens={"w0": 1, "w2": 2})
            assert batch_sim(model, doc, doc_at(float(t))) == pytest.approx(1.0)

    def test_fully_concentrated_word_peaks(self):
        model = self._manual_model([[0.0, 1.0, 0.0]])
        assert batch_sim(model, doc_at(0.0, tokens={"w0": 1}), doc_at(1.0)) == pytest.approx(1.0)

    def test_geometric_mean_hand_value(self):
        phi = np.array([[0.5, 0.5], [0.125, 0.875]])
        model = self._manual_model(phi)
        gm = np.sqrt(phi[0] * phi[1])  # per-slice direct product oracle
        assert gm[0] == pytest.approx(0.25)
        expected = gm / gm.max()
        doc = doc_at(0.0, tokens={"w0": 1, "w1": 1})
        assert batch_sim(model, doc, doc_at(0.0)) == pytest.approx(expected[0])
        assert batch_sim(model, doc, doc_at(1.0)) == pytest.approx(expected[1])

    def test_product_aggregate_matches_direct_product(self):
        phi = np.array([[0.5, 0.5], [0.125, 0.875]])
        model = self._manual_model(phi, aggregate="product")
        prod = phi[0] * phi[1]
        expected = prod / prod.max()
        doc = doc_at(0.0, tokens={"w0": 1, "w1": 1})
        assert batch_sim(model, doc, doc_at(0.0)) == pytest.approx(expected[0])

    def test_no_known_words_returns_zero(self):
        model = self._manual_model([[0.5, 0.5]])
        assert batch_sim(model, doc_at(0.0, tokens={"mystery": 1}), doc_at(0.0)) == 0.0

    def test_values_in_unit_interval(self):
        rng = np.random.default_rng(11)
        specs = [
            (
                int(rng.integers(0, 8)),
                {f"w{rng.integers(10)}": int(rng.integers(1, 3)) for _ in range(3)},
                ["l"],
            )
            for _ in range(40)
        ]
        corpus = day_corpus(specs)
        model = tp.fit_topic_densities(corpus, num_topics=2, seed=3, gibbs_iters=10, **TOPIC_FIT)
        values = all_pairs(model, corpus)
        assert ((values >= 0.0) & (values <= 1.0)).all()

    def test_asymmetric_by_construction(self):
        phi = np.array([[0.9, 0.1], [0.2, 0.8]])
        model = self._manual_model(phi)
        doc_i, doc_j = doc_at(0.0, tokens={"w0": 1}), doc_at(1.0, tokens={"w1": 1})
        assert batch_sim(model, doc_i, doc_j) != batch_sim(model, doc_j, doc_i)

    def test_empty_slices_merge_forward(self):
        # days 0 and 5 populated; slices 1..4 map forward to day 5's slot
        corpus = day_corpus([(0, {"a": 2}, ["l"]), (5, {"b": 2}, ["l"])])
        model = tp.fit_topic_densities(corpus, num_topics=1, seed=0, gibbs_iters=5, **TOPIC_FIT)
        assert model.num_effective_slices == 2
        assert list(model.slice_map) == [0, 1, 1, 1, 1, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_slice_map_equals_forward_merge_loop(self, seed):
        """Empty slices go to the next nonempty one; slices after the last go to the last."""
        rng = np.random.default_rng(seed)
        days = rng.choice(12, size=5, replace=False).tolist() + [12]
        corpus = day_corpus([(day, {"a": 1}, ["l"]) for day in days])
        train = corpus.take(range(5))  # the axis still ends at day 12
        model = tp.fit_topic_densities(train, num_topics=1, seed=0, gibbs_iters=1, **TOPIC_FIT)
        axis = train.time_axis
        nonempty = sorted(set(axis.slice_of(train.timestamps).tolist()))
        want, nxt = [], len(nonempty) - 1
        for s in range(axis.num_slices - 1, -1, -1):
            if s in nonempty:
                nxt = nonempty.index(s)
            want.append(nxt)
        assert model.slice_map.dtype == np.int64
        assert model.slice_map.tolist() == want[::-1]


def valid_arguments(kind):
    """Constructor arguments of a small valid model of each kind."""
    return {
        "recency": {"h_rec": 0.3},
        "category": {"bandwidth": 1.0, "grid": np.array([0.0, 1.0]), "categories": ["a"],
                     "curves": np.array([[0.5, 1.0]])},
        "topic": {"num_topics": 1, "vocabulary": ["x", "y"],
                  "phi": np.array([[0.5, 0.5], [1.0, 0.0]]), "slice_map": np.array([0.0, 1.0, 1.0]),
                  "time_axis": cp.TimeAxis(unit=1.0, origin=0, num_slices=3), "floor": 1e-6,
                  "aggregate": "geometric"},
    }[kind]


MODEL_CLASSES = {"recency": tp.RecencyModel, "category": tp.CategoryKDE, "topic": tp.TopicDensity}


class TestConstructorRules:
    """Fitters, the TXNT reader and direct construction share the constructors' rules."""

    @pytest.mark.parametrize("kind", sorted(MODEL_CLASSES))
    def test_valid_arguments_construct(self, kind):
        model = MODEL_CLASSES[kind](**valid_arguments(kind))
        if kind == "topic":
            assert model.slice_map.dtype == np.int64
            assert model.slice_map.tolist() == [0, 1, 1]

    @pytest.mark.parametrize("kind, field, value, fault", [
        ("recency", "h_rec", True, "h_rec must be positive and finite"),
        ("recency", "h_rec", "0.3", "h_rec must be positive and finite"),
        ("recency", "h_rec", math.nan, "h_rec must be positive and finite"),
        ("category", "bandwidth", False, "bandwidth must be positive and finite"),
        ("category", "bandwidth", math.inf, "bandwidth must be positive and finite"),
        ("category", "categories", ["a", "a"], "repeated entry in categories"),
        ("category", "categories", "a", "categories must be a list of strings"),
        ("category", "categories", [1], "categories must be a list of strings"),
        ("category", "grid", np.array([1.0, 0.0]), "at least 2 points in non-decreasing order"),
        ("category", "grid", np.array([0.0]), "at least 2 points in non-decreasing order"),
        ("category", "grid", np.array([[0.0, 1.0]]), "at least 2 points in non-decreasing order"),
        ("category", "curves", np.array([0.5, 1.0]), "one row per category"),
        ("category", "curves", np.array([[0.5, 1.5]]), r"values outside \[0, 1\]"),
        ("category", "curves", np.array([[0.5, math.nan]]), r"values outside \[0, 1\]"),
        ("topic", "num_topics", 0, "num_topics must be an int >= 1"),
        ("topic", "num_topics", True, "num_topics must be an int >= 1"),
        ("topic", "num_topics", 2.0, "num_topics must be an int >= 1"),
        ("topic", "vocabulary", ["x", "x"], "repeated entry in vocabulary"),
        ("topic", "vocabulary", ("x", "y"), "vocabulary must be a list of strings"),
        ("topic", "phi", np.array([[0.5, 0.5]]), "phi needs one row per vocabulary word"),
        ("topic", "slice_map", np.array([0, 1]), "one entry per time slice"),
        ("topic", "slice_map", np.array([0, 1, 2]), r"integers in \[0, 2\)"),
        ("topic", "slice_map", np.array([0.0, 0.5, 1.0]), r"integers in \[0, 2\)"),
        ("topic", "slice_map", np.array([-1, 0, 1]), r"integers in \[0, 2\)"),
        ("topic", "floor", 0.0, "floor must be positive and finite"),
        ("topic", "aggregate", "sum", "unknown aggregate 'sum'"),
        ("topic", "phi", np.array([[0.5, math.nan], [1.0, 0.0]]), "phi holds NaN or infinity"),
        ("topic", "phi", np.array([[0.5, 0.5], [math.inf, 0.0]]), "phi holds NaN or infinity"),
    ])
    def test_rule_is_enforced(self, kind, field, value, fault):
        args = dict(valid_arguments(kind), **{field: value})
        with pytest.raises(tp.TemporalModelError, match=fault):
            MODEL_CLASSES[kind](**args)

    def test_fit_with_one_grid_point_breaks_the_grid_rule(self):
        corpus = day_corpus([(0, {"w": 1}, ["a"]), (3, {"w": 1}, ["a"])])
        with pytest.raises(tp.TemporalModelError, match="at least 2 points"):
            tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=1)

    def test_fit_whose_counts_overflow_breaks_the_phi_rule(self):
        # kappa times a carried-over count of 2 overflows; no warning escapes the fit
        corpus = day_corpus([(0, {"w": 2}, ["a"]), (3, {"w": 1}, ["a"])])
        with pytest.raises(tp.TemporalModelError, match="phi holds NaN or infinity"):
            tp.fit_topic_densities(corpus, num_topics=1, seed=0, gibbs_iters=1, kappa=1e308,
                                   floor=1e-6, aggregate="geometric")

    def test_fit_with_unknown_aggregate_breaks_the_aggregate_rule(self):
        corpus = day_corpus([(0, {"w": 1}, ["a"]), (3, {"w": 1}, ["a"])])
        with pytest.raises(tp.TemporalModelError, match="unknown aggregate 'sum'"):
            tp.fit_topic_densities(corpus, num_topics=1, seed=0, gibbs_iters=1, kappa=0.5,
                                   floor=1e-6, aggregate="sum")


class TestSerialization:
    def test_recency_round_trip(self, tmp_path):
        path = tmp_path / "model.txnt"
        tp.write_temporal_model(path, tp.RecencyModel(h_rec=0.3))
        loaded = tp.read_temporal_model(path)
        assert isinstance(loaded, tp.RecencyModel)
        assert loaded.h_rec == 0.3

    def test_category_round_trip(self, tmp_path):
        corpus = day_corpus(
            [(0, {"w": 1}, ["a"]), (3, {"w": 1}, ["a", "b"]), (7, {"w": 1}, ["b"])]
        )
        model = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=256)
        path = tmp_path / "model.txnt"
        tp.write_temporal_model(path, model)
        loaded = tp.read_temporal_model(path)
        np.testing.assert_array_equal(loaded.grid, model.grid)
        assert loaded.categories == model.categories == ["a", "b"]
        np.testing.assert_array_equal(loaded.curves, model.curves)
        np.testing.assert_array_equal(all_pairs(loaded, corpus), all_pairs(model, corpus))

    def test_topic_round_trip(self, tmp_path):
        specs = [(d % 3, {f"w{d % 4}": 1, "z": 1}, ["l"]) for d in range(12)]
        corpus = day_corpus(specs)
        model = tp.fit_topic_densities(corpus, num_topics=2, seed=4, gibbs_iters=8, **TOPIC_FIT)
        path = tmp_path / "model.txnt"
        tp.write_temporal_model(path, model)
        loaded = tp.read_temporal_model(path)
        np.testing.assert_array_equal(loaded.phi, model.phi)
        np.testing.assert_array_equal(loaded.slice_map, model.slice_map)
        assert loaded.time_axis == model.time_axis
        np.testing.assert_array_equal(all_pairs(loaded, corpus.take(range(5))),
                                      all_pairs(model, corpus.take(range(5))))

    def test_single_timestamp_kde_round_trip(self, tmp_path):
        """A train split with one timestamp fits an all-zero grid, which loads."""
        corpus = day_corpus([(2, {"w": 1}, ["a"]), (2, {"w": 1}, ["b"])])
        model = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=8)
        assert not model.grid.any()
        path = tmp_path / "model.txnt"
        tp.write_temporal_model(path, model)
        loaded = tp.read_temporal_model(path)
        np.testing.assert_array_equal(loaded.grid, model.grid)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.txnt"
        path.write_bytes(b"NOPE" + b"\x00" * 16)
        with pytest.raises(tp.TemporalModelError, match="magic"):
            tp.read_temporal_model(path)

    @pytest.mark.parametrize("source", ["fit", "txnt"])
    @pytest.mark.parametrize("kind", sorted(MODEL_CLASSES))
    def test_models_are_frozen(self, tmp_path, kind, source):
        corpus = day_corpus([(d % 3, {f"w{d % 4}": 1}, [f"c{d % 2}"]) for d in range(12)])
        model = fit_temporal_model(kind, corpus, RunConfig(num_topics=2, gibbs_iters=2))
        if source == "txnt":
            tp.write_temporal_model(tmp_path / "model.txnt", model)
            model = tp.read_temporal_model(tmp_path / "model.txnt")
        assert type(model) is MODEL_CLASSES[kind]
        for field in dataclasses.fields(model):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(model, field.name, getattr(model, field.name))


def assert_pair_matrix_is_reference(model, corpus, batch):
    """pair_matrix over the corpus rows in ``batch`` equals the scalar reference entry
    by entry, and is exactly 0 at each miss. Returns (the values, the mask of missed pairs)."""
    want = np.array([[pair_sim(model, corpus, i, j) for j in batch] for i in batch])
    missed = np.array([[reference_sim(model, corpus, i, j) is None for j in batch]
                       for i in batch])
    got = model.pair_matrix(model.document_table(corpus), batch)
    assert got.shape == (len(batch), len(batch))
    np.testing.assert_array_equal(got, want)
    assert (got[missed] == 0.0).all()
    return want, missed


class TestPairMatrix:
    def test_recency(self):
        rng = np.random.default_rng(20)
        days = np.concatenate([rng.uniform(0, 30, size=40), [3.0, 3.0, 0.0, 29.9]])
        corpus = corpus_at([doc_at(t, [f"c{i % 3}"], {"w": 1}) for i, t in enumerate(days)])
        model = tp.RecencyModel(h_rec=0.3)
        values, missed = assert_pair_matrix_is_reference(model, corpus,
                                                         rng.permutation(len(corpus))[:30])
        assert not missed.any()
        assert (values > 0.0).any() and (values < 1e-40).any()

    def test_category_with_uncurved_shared_label(self):
        rng = np.random.default_rng(21)
        specs = [(int(rng.integers(0, 20)), {"w": 1},
                  sorted({f"c{rng.integers(4)}", f"c{rng.integers(4)}"})) for _ in range(40)]
        specs += [(4, {"w": 1}, ["c3"]), (9, {"w": 1}, ["c3"])]
        corpus = day_corpus(specs)
        fitted = tp.fit_category_kde(corpus, bandwidth=1.5, grid_size=300)
        keep = [c != "c3" for c in fitted.categories]  # pairs sharing only c3 now miss
        model = tp.CategoryKDE(bandwidth=1.5, grid=fitted.grid, curves=fitted.curves[keep],
                               categories=[c for c in fitted.categories if c != "c3"])
        values, missed = assert_pair_matrix_is_reference(model, corpus,
                                                         rng.permutation(len(corpus))[:36])
        assert missed.any() and not missed.all()
        assert ((values > 0.0) & (values < 1.0)).any()

    def test_topic_with_unknown_words(self):
        rng = np.random.default_rng(22)
        specs = [(int(rng.integers(0, 8)),
                  {f"w{rng.integers(10)}": int(rng.integers(1, 3)) for _ in range(3)},
                  [f"c{rng.integers(3)}"]) for _ in range(40)]
        model = tp.fit_topic_densities(day_corpus(specs), num_topics=2, seed=5, gibbs_iters=5,
                                       **TOPIC_FIT)
        # a document of unknown words, and one past the model's time axis
        corpus = day_corpus(specs + [(2.5, {"mystery": 2}, ["c0"]),
                                     (99, {"w1": 1, "zzz": 1}, ["c1"])])
        assert corpus.time_axis.origin == model.time_axis.origin
        assert corpus.timestamps[-1] >= model.time_axis.num_slices
        batch = np.concatenate([[len(corpus) - 2, len(corpus) - 1], rng.permutation(40)[:28]])
        values, missed = assert_pair_matrix_is_reference(model, corpus, batch)
        assert missed[0].all() and not missed[1:].any()
        assert not values[0].any()

    @pytest.mark.parametrize("aggregate", ["geometric", "product"])
    @pytest.mark.parametrize("seed", range(3))
    def test_topic_profiles_are_the_per_document_loop_bytes(self, aggregate, seed):
        """The batched profiles equal one mean (or sum) per document, bit for bit: with
        known words in any order, unknown tokens, and documents with no known word."""
        rng = np.random.default_rng(seed)
        vocab = [f"w{i:02d}" for i in range(40)]
        model = tp.TopicDensity(
            num_topics=3, vocabulary=vocab, phi=rng.dirichlet(np.full(7, 0.3), size=40),
            slice_map=np.arange(7), time_axis=cp.TimeAxis(unit=1.0, origin=0, num_slices=7),
            floor=1e-6, aggregate=aggregate,
        )
        specs = []
        for i in range(60):
            tokens = {vocab[w]: 1 for w in rng.permutation(40)[:rng.integers(0, 25)]}
            tokens.update({f"zz{j}": 2 for j in range(rng.integers(0, 3))})  # unknown
            specs.append((i % 7, tokens, ["l"]))
        corpus = day_corpus(specs)
        assert corpus.vocabulary != vocab  # its columns are not the model's
        assert any(not any(t in vocab for t in tokens) for _, tokens, _ in specs)
        profiles, _ = model.document_table(corpus)
        assert profiles.tobytes() == topic_profiles(model, corpus).tobytes()
        for none in (corpus.take([]), corpus_at([doc_at(0.0, tokens={"mystery": 1})])):
            got, _ = model.document_table(none)
            assert got.tobytes() == topic_profiles(model, none).tobytes()

    def test_topic_profile_follows_tokens_not_id(self):
        # synth corpora reuse ids across seeds: a profile cached by id went stale
        model = tp.TopicDensity(
            num_topics=1, vocabulary=["w0", "w1"], phi=np.array([[0.9, 0.1], [0.1, 0.9]]),
            slice_map=np.arange(2), time_axis=cp.TimeAxis(unit=1.0, origin=0, num_slices=2),
            floor=1e-6, aggregate="geometric",
        )
        other = doc_at(0.0, tokens={"w0": 1})
        corpus_a = corpus_at([doc_at(0.0, tokens={"w0": 1}), other])
        corpus_b = corpus_at([doc_at(0.0, tokens={"w1": 1}), other])
        assert corpus_a.ids == corpus_b.ids
        assert all_pairs(model, corpus_a)[0, 1] == pytest.approx(1.0)
        assert all_pairs(model, corpus_b)[0, 1] == pytest.approx(0.1 / 0.9)
        profile_a, profile_b = (model.document_table(c)[0][0] for c in (corpus_a, corpus_b))
        assert not np.array_equal(profile_a, profile_b)


def reference_gibbs_slice(doc_word_ids, num_topics, vocab_size, alpha, prior_kw, iters, rng):
    """Collapsed Gibbs sweep with one NumPy call per term of each draw."""
    n_dk = np.zeros((len(doc_word_ids), num_topics))
    n_kw = np.zeros((num_topics, vocab_size))
    n_k = np.zeros(num_topics)
    prior_k = prior_kw.sum(axis=1)
    assignments = []
    for d, words in enumerate(doc_word_ids):
        z = rng.integers(num_topics, size=len(words))
        assignments.append(z)
        for w, k in zip(words, z):
            n_dk[d, k] += 1
            n_kw[k, w] += 1
            n_k[k] += 1
    for _ in range(iters):
        for d, words in enumerate(doc_word_ids):
            z = assignments[d]
            for pos, w in enumerate(words):
                k = z[pos]
                n_dk[d, k] -= 1
                n_kw[k, w] -= 1
                n_k[k] -= 1
                p = (n_kw[:, w] + prior_kw[:, w]) / (n_k + prior_k) * (n_dk[d] + alpha)
                cum = np.cumsum(p)
                k = int(np.searchsorted(cum, rng.random() * cum[-1]))
                z[pos] = k
                n_dk[d, k] += 1
                n_kw[k, w] += 1
                n_k[k] += 1
    return n_kw


def record_slice_counts(monkeypatch, gibbs_slice):
    """Make topic fits sample with ``gibbs_slice``; returns the list its slice counts go to."""
    counts = []

    def recording(*args):
        counts.append(gibbs_slice(*args))
        return counts[-1]

    monkeypatch.setattr(tp, "_gibbs_slice", recording)
    return counts


def random_slice(rng, num_docs, vocab_size):
    """Sorted word-id lists of random lengths; the middle document is empty."""
    docs = [sorted(rng.integers(vocab_size, size=int(rng.integers(1, 25))).tolist())
            for _ in range(num_docs)]
    docs[num_docs // 2] = []
    return docs


class TestGibbsAgainstLoopReference:
    @pytest.mark.parametrize("num_topics", [1, 2, 3, 10, 30, 50])
    @pytest.mark.parametrize("carry_over", [False, True])
    def test_counts_and_stream_match(self, num_topics, carry_over):
        rng = np.random.default_rng(30 + num_topics)
        vocab_size = 12
        docs = random_slice(rng, 9, vocab_size)
        prior_kw = np.full((num_topics, vocab_size), 0.01)
        if carry_over:  # kappa times an earlier slice's counts, non-uniform
            prior_kw += 0.5 * rng.integers(0, 6, size=(num_topics, vocab_size))
        alpha = 50.0 / num_topics
        want_rng, got_rng = np.random.default_rng(7), np.random.default_rng(7)
        want = reference_gibbs_slice(docs, num_topics, vocab_size, alpha, prior_kw, 6, want_rng)
        got = tp._gibbs_slice(docs, num_topics, vocab_size, alpha, prior_kw, 6, got_rng)
        assert got.shape == (num_topics, vocab_size) and got.dtype == np.float64
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_many_sweeps_over_a_peaked_prior_match(self):
        """40 sweeps (the default gibbs_iters) where a carried-over prior puts each word
        on one topic, so most draws keep their topic and each document's alpha terms
        are carried through every sweep."""
        rng = np.random.default_rng(60)
        num_topics, vocab_size = 10, 12
        docs = random_slice(rng, 9, vocab_size)
        prior_kw = np.full((num_topics, vocab_size), 0.01)
        prior_kw[np.arange(vocab_size) % num_topics, np.arange(vocab_size)] += 500.0
        want_rng, got_rng = np.random.default_rng(9), np.random.default_rng(9)
        want = reference_gibbs_slice(docs, num_topics, vocab_size, 5.0, prior_kw, 40, want_rng)
        got = tp._gibbs_slice(docs, num_topics, vocab_size, 5.0, prior_kw, 40, got_rng)
        np.testing.assert_array_equal(got, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    def test_slice_of_empty_documents_draws_nothing(self):
        prior_kw = np.full((3, 4), 0.01)
        rng = np.random.default_rng(8)
        counts = tp._gibbs_slice([[], []], 3, 4, 1.0, prior_kw, 5, rng)
        np.testing.assert_array_equal(counts, np.zeros((3, 4)))
        assert rng.bit_generator.state == np.random.default_rng(8).bit_generator.state

    @pytest.mark.parametrize("num_topics", [1, 2, 3, 10])
    def test_fit_matches_reference(self, num_topics, monkeypatch):
        rng = np.random.default_rng(40 + num_topics)
        specs = [(int(rng.integers(0, 6)),
                  {f"w{rng.integers(15)}": int(rng.integers(1, 4)) for _ in range(4)},
                  ["l"]) for _ in range(30)]
        corpus = day_corpus(specs)
        got_counts = record_slice_counts(monkeypatch, tp._gibbs_slice)
        got = tp.fit_topic_densities(corpus, num_topics=num_topics, seed=3, gibbs_iters=6,
                                     **TOPIC_FIT)
        want_counts = record_slice_counts(monkeypatch, reference_gibbs_slice)
        want = tp.fit_topic_densities(corpus, num_topics=num_topics, seed=3, gibbs_iters=6,
                                      **TOPIC_FIT)
        assert want.num_effective_slices > 1  # later slices carry counts over
        np.testing.assert_array_equal(got.phi, want.phi)
        assert len(got_counts) == len(want_counts) == want.num_effective_slices
        for got_slice, want_slice in zip(got_counts, want_counts):
            np.testing.assert_array_equal(got_slice, want_slice)
