import itertools

import numpy as np
import pytest

from tcmr import corpus as cp
from tcmr import retrieval as rt
from tcmr import synth
from tcmr.projection import ProjectionModel


class _NormalizeHalf:
    def project(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        out = x / np.linalg.norm(x, axis=1, keepdims=True)
        return out if out.shape[0] > 1 else out[0]


class LinearStubModel:
    """Linear-then-normalize stand-in for the tanh networks."""

    def __init__(self):
        self.image_net = _NormalizeHalf()
        self.text_net = _NormalizeHalf()

    def project_images(self, x):
        return self.image_net.project(x)

    def project_texts(self, x):
        return self.text_net.project(x)


def make_index(image_rows, text_rows, doc_ids=None, labels=None, timestamps=None,
               num_slices=4):
    image_rows = np.asarray(image_rows, dtype=np.float64)
    n = image_rows.shape[0]
    return rt.RetrievalIndex(
        image_matrix=image_rows,
        text_matrix=np.asarray(text_rows, dtype=np.float64),
        doc_ids=doc_ids or [f"d{i}" for i in range(n)],
        label_sets=labels or [frozenset(["l"])] * n,
        timestamps=np.asarray(timestamps if timestamps is not None else np.zeros(n)),
        time_axis=cp.TimeAxis(unit=1.0, origin=0, num_slices=num_slices),
    )


DAY = 86400


def tiny_corpus(n=5, d_image=3, seed=0):
    rng = np.random.default_rng(seed)
    records = [
        (
            f"d{i}",
            rng.normal(size=d_image),
            {f"w{i % 3}": 1, "shared": 1},
            i * DAY,
            [f"lab{i % 2}"],
        )
        for i in range(n)
    ]
    return cp.from_records(records)


class TestBuildIndex:
    def test_empty_corpus_rejected(self):
        corpus = tiny_corpus(2)
        empty = corpus.with_documents([])
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=0)
        stats = cp.document_frequencies(corpus)
        with pytest.raises(ValueError, match="empty"):
            rt.build_index(empty, model, stats)

    def test_rows_unit_norm(self):
        corpus = tiny_corpus(6)
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=1)
        stats = cp.document_frequencies(corpus)
        index = rt.build_index(corpus, model, stats)
        np.testing.assert_allclose(np.linalg.norm(index.image_matrix, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(index.text_matrix, axis=1), 1.0, atol=1e-9)

    def test_degenerate_projection_names_document(self):
        corpus = tiny_corpus(3)
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=2)
        model.image_net.W1[:] = 0.0
        model.image_net.b1[:] = 0.0
        model.image_net.W2[:] = 0.0
        model.image_net.b2[:] = 0.0
        stats = cp.document_frequencies(corpus)
        with pytest.raises(Exception, match="d0"):
            rt.build_index(corpus, model, stats)


class TestQueryTopK:
    def test_hand_ordering(self):
        index = make_index(np.eye(3), [[0.9], [0.5], [0.1]])
        index.text_matrix = np.array([[0.9], [0.5], [0.1]])
        index.image_matrix = np.array([[0.9], [0.5], [0.1]])
        q = rt.Query(image_feat=np.array([2.0]))
        results, truncated = rt.query_topk(index, q, LinearStubModel(), None, k=3)
        assert [doc for doc, _ in results] == ["d0", "d1", "d2"]
        assert [round(s, 6) for _, s in results] == [0.9, 0.5, 0.1]
        assert not truncated

    def test_tie_broken_by_doc_id(self):
        index = make_index([[1.0], [1.0]], [[0.5], [0.5]], doc_ids=["zz", "aa"])
        q = rt.Query(image_feat=np.array([1.0]))
        results, _ = rt.query_topk(index, q, LinearStubModel(), None, k=2)
        assert [doc for doc, _ in results] == ["aa", "zz"]

    def test_k_beyond_index_flags_truncation(self):
        index = make_index([[1.0]], [[1.0]])
        q = rt.Query(image_feat=np.array([1.0]))
        results, truncated = rt.query_topk(index, q, LinearStubModel(), None, k=10)
        assert len(results) == 1
        assert truncated

    def test_rank1_is_argmax(self):
        rng = np.random.default_rng(3)
        text = rng.normal(size=(8, 4))
        text /= np.linalg.norm(text, axis=1, keepdims=True)
        index = make_index(np.zeros((8, 4)), text)
        qvec = rng.normal(size=4)
        results, _ = rt.query_topk(index, rt.Query(image_feat=qvec), LinearStubModel(), None, k=1)
        scores = text @ (qvec / np.linalg.norm(qvec))
        assert results[0][0] == f"d{int(np.argmax(scores))}"
        assert results[0][1] == pytest.approx(scores.max())

    def test_scores_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(4)
        text = rng.normal(size=(6, 5))
        text /= np.linalg.norm(text, axis=1, keepdims=True)
        index = make_index(np.zeros((6, 5)), text)
        x = rng.normal(size=5)
        a, _ = rt.query_topk(index, rt.Query(image_feat=x), LinearStubModel(), None, k=6)
        b, _ = rt.query_topk(index, rt.Query(image_feat=7.3 * x), LinearStubModel(), None, k=6)
        assert [d for d, _ in a] == [d for d, _ in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == pytest.approx(sb)

    def test_query_requires_exactly_one_modality(self):
        with pytest.raises(ValueError, match="exactly one"):
            rt.Query(image_feat=np.ones(2), text_counts={"a": 1})
        with pytest.raises(ValueError, match="exactly one"):
            rt.Query()


class TestMapAtK:
    def test_hand_value(self):
        flags = [True, False, True] + [False] * 47
        value, excluded = rt.map_at_k([flags], k=50)
        assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-6)
        assert excluded == 0

    def test_perfect_ranking(self):
        value, _ = rt.map_at_k([[True] * 5], k=3)
        assert value == 1.0

    def test_no_hits_in_top_k(self):
        value, _ = rt.map_at_k([[False] * 5 + [True]], k=3)
        assert value == 0.0

    def test_zero_relevant_excluded_and_counted(self):
        value, excluded = rt.map_at_k([[False, False], [True, False]], k=2)
        assert excluded == 1
        assert value == 1.0

    def test_all_excluded_is_error(self):
        with pytest.raises(rt.MetricError):
            rt.map_at_k([[False], [False]], k=1)

    def test_matches_oracle_on_permutations(self):
        for n in range(1, 6):
            for rel in itertools.product([0, 1], repeat=n):
                if not any(rel):
                    continue
                for k in (1, 2, n):
                    scores = [n - i for i in range(n)]  # ranking = given order
                    expected = synth.oracle_ap(scores, rel, k)
                    got, _ = rt.map_at_k([list(map(bool, rel))], k)
                    assert got == pytest.approx(expected), (rel, k)


class TestNdcgAtK:
    def test_hand_value(self):
        value, _ = rt.ndcg_at_k([[2, 0, 1]], k=3)
        idcg = 2.0 + 1.0 / np.log2(3)
        assert value == pytest.approx(2.5 / idcg, abs=1e-9)
        assert value == pytest.approx(0.9502, abs=1e-4)

    def test_ideal_ordering_scores_one(self):
        value, _ = rt.ndcg_at_k([[3, 2, 2, 1, 0]], k=5)
        assert value == 1.0

    def test_all_zero_grades_excluded(self):
        value, excluded = rt.ndcg_at_k([[0, 0], [1, 0]], k=2)
        assert excluded == 1
        assert value == 1.0

    def test_all_excluded_is_error(self):
        with pytest.raises(rt.MetricError):
            rt.ndcg_at_k([[0, 0]], k=2)

    def test_matches_oracle_on_permutations(self):
        base = [2, 0, 1, 3]
        for perm in itertools.permutations(base):
            scores = [len(perm) - i for i in range(len(perm))]
            expected = synth.oracle_ndcg(scores, perm, k=3)
            got, _ = rt.ndcg_at_k([list(perm)], k=3)
            assert got == pytest.approx(expected), perm

    def test_exponential_gain_switch(self):
        value, _ = rt.ndcg_at_k([[2, 0, 1]], k=3, gain="exponential")
        expected = synth.oracle_ndcg([3, 2, 1], [2, 0, 1], k=3, gain="exponential")
        assert value == pytest.approx(expected)


class TestPrecisionScope:
    def test_k1_reduces_to_precision_at_one(self):
        flags = [[True, False], [False, True], [False, False, True]]
        curve = rt.precision_scope(flags, k_list=[1])
        assert curve == [(1, pytest.approx(1.0 / 3.0))]

    def test_curve_shape(self):
        flags = [[True] * 10]
        curve = rt.precision_scope(flags, k_list=[2, 4, 6])
        assert [k for k, _ in curve] == [2, 4, 6]

    def test_non_increasing_k_list_rejected(self):
        with pytest.raises(ValueError):
            rt.precision_scope([[True]], k_list=[3, 3])

    def test_matches_per_k_oracle(self):
        rng = np.random.default_rng(5)
        queries = [list(rng.random(6) < 0.5) for _ in range(3)]
        if not any(any(q) for q in queries):
            queries[0][0] = True
        curve = rt.precision_scope(queries, k_list=[1, 3, 5])
        for k, value in curve:
            oracle_vals = []
            for q in queries:
                scores = [len(q) - i for i in range(len(q))]
                ap = synth.oracle_ap(scores, q, k)
                if ap is not None:
                    oracle_vals.append(ap)
            assert value == pytest.approx(np.mean(oracle_vals))


class TestTemporalFit:
    AXIS = cp.TimeAxis(unit=1.0, origin=0, num_slices=2)

    def test_identical_distributions(self):
        ts = [0.2, 0.4, 1.2, 1.8]
        assert rt.temporal_fit(ts, ts, self.AXIS, bins=4) == 1.0

    def test_disjoint_supports(self):
        assert rt.temporal_fit([0.1, 0.3], [1.5, 1.9], self.AXIS, bins=2) == 0.0

    def test_hand_value(self):
        result = [0.5, 1.5]
        gt = [0.5, 1.5, 1.5, 1.5]
        assert rt.temporal_fit(result, gt, self.AXIS, bins=2) == pytest.approx(0.75)

    def test_empty_results_zero(self):
        assert rt.temporal_fit([], [0.5], self.AXIS, bins=2) == 0.0


class TestEvaluateDirection:
    def _index(self):
        rng = np.random.default_rng(6)
        img = rng.normal(size=(12, 4))
        img /= np.linalg.norm(img, axis=1, keepdims=True)
        txt = img + 0.1 * rng.normal(size=(12, 4))
        txt /= np.linalg.norm(txt, axis=1, keepdims=True)
        labels = [frozenset([f"c{i % 3}"]) for i in range(12)]
        ts = rng.uniform(0, 4, size=12)
        return make_index(img, txt, labels=labels, timestamps=ts, num_slices=4)

    def test_report_fields_in_range(self):
        index = self._index()
        for direction in rt.DIRECTIONS:
            report = rt.evaluate_direction(index, direction, k=5, k_list=[1, 3, 5], bins=4)
            assert 0.0 <= report.map_at_k <= 1.0
            assert 0.0 <= report.ndcg_at_k <= 1.0
            assert 0.0 <= report.temporal_fit <= 1.0
            assert [k for k, _ in report.scope_curve] == [1, 3, 5]
            for _, v in report.scope_curve:
                assert 0.0 <= v <= 1.0

    def test_report_round_trip_files(self, tmp_path):
        index = self._index()
        report = rt.evaluate_direction(index, rt.I2T, k=5, k_list=[1, 5], bins=4)
        rt.write_report_json(report, tmp_path / "report.json")
        rt.write_scope_csv(report, tmp_path / "scope.csv")
        rt.write_temporal_csv(report, tmp_path / "temporal.csv")
        import json

        loaded = json.loads((tmp_path / "report.json").read_text())
        assert loaded["direction"] == "I2T"
        assert loaded["map_at_k"] == pytest.approx(report.map_at_k)
        scope_lines = (tmp_path / "scope.csv").read_text().strip().splitlines()
        assert scope_lines[0] == "k,map"
        assert len(scope_lines) == 3
        temporal_lines = (tmp_path / "temporal.csv").read_text().strip().splitlines()
        assert temporal_lines[0] == "bin_start,gt_mass,result_mass"
        assert len(temporal_lines) == 5


class TestSharedLabelMatrix:
    @staticmethod
    def reference(label_sets):
        """The per-pair intersection loop the matrix product replaces."""
        n = len(label_sets)
        grades = np.zeros((n, n), dtype=np.float64)
        for i in range(n):
            for j in range(i, n):
                grades[i, j] = grades[j, i] = len(label_sets[i] & label_sets[j])
        return grades

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_intersection_loop(self, seed):
        rng = np.random.default_rng(seed)
        label_sets = [
            frozenset(f"c{c}" for c in rng.choice(9, size=rng.integers(1, 5), replace=False))
            for _ in range(70)
        ]
        got = rt.shared_label_matrix(label_sets)
        assert got.dtype == np.float64
        np.testing.assert_array_equal(got, self.reference(label_sets))

    def test_label_matrix_columns(self):
        labels = cp.label_matrix([frozenset(["b", "a"]), frozenset(["c"])], ["a", "c"])
        np.testing.assert_array_equal(labels, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(
            cp.label_matrix([frozenset(["b", "a"]), frozenset(["c"])]),
            [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        )
