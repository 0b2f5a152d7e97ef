import dataclasses
import itertools
import json
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest

from retrieval_reference import topk_of_grades
from tcmr import corpus as cp
from tcmr import objective as ob
from tcmr import retrieval as rt
from tcmr import synth
from tcmr.config import RunConfig
from tcmr.projection import DegenerateProjectionError, ProjectionModel
from tcmr.train import mean_map_both_directions


class _NormalizeHalf:
    def forward(self, x):
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        return x / np.linalg.norm(x, axis=1, keepdims=True), None


class LinearStubModel:
    """Linear-then-normalize stand-in for the tanh networks."""

    def __init__(self):
        self.image_net = _NormalizeHalf()
        self.text_net = _NormalizeHalf()


def make_index(image_rows, text_rows, ids=None, labels=None, timestamps=None,
               num_slices=4):
    image_rows = np.asarray(image_rows, dtype=np.float64)
    n = image_rows.shape[0]
    return rt.RetrievalIndex(
        image_matrix=image_rows,
        text_matrix=np.asarray(text_rows, dtype=np.float64),
        ids=ids or [f"d{i}" for i in range(n)],
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
        empty = corpus.take([])
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=0)
        idf = cp.document_frequencies(corpus)
        with pytest.raises(ValueError, match="empty"):
            rt.build_index(empty, model, idf)

    def test_rows_unit_norm(self):
        corpus = tiny_corpus(6)
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=1)
        idf = cp.document_frequencies(corpus)
        index = rt.build_index(corpus, model, idf)
        np.testing.assert_allclose(np.linalg.norm(index.image_matrix, axis=1), 1.0, atol=1e-9)
        np.testing.assert_allclose(np.linalg.norm(index.text_matrix, axis=1), 1.0, atol=1e-9)

    @pytest.mark.parametrize("block", [1, 2, 128])  # d3 in block 3, 1 and 0
    def test_degenerate_projection_names_document(self, block, monkeypatch):
        # with zero biases an all-zero image row projects to zero
        monkeypatch.setattr(rt, "EVAL_BLOCK", block)
        rng = np.random.default_rng(2)
        records = [(f"d{i}", rng.normal(size=3), {f"w{i}": 1}, i * DAY, ["l"]) for i in range(5)]
        records[3] = ("d3", np.zeros(3), {"w3": 1}, 3 * DAY, ["l"])
        corpus = cp.from_records(records)
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=2)
        model.image_net.b1[:] = 0.0
        model.image_net.b2[:] = 0.0
        idf = cp.document_frequencies(corpus)
        with pytest.raises(DegenerateProjectionError,
                           match="degenerate image projection for document 'd3'") as info:
            rt.build_index(corpus, model, idf)
        assert info.value.row == 3

    @pytest.mark.parametrize("block", [1, 2, 128])  # d3 in block 3, 1 and 0
    def test_degenerate_text_projection_names_document(self, block, monkeypatch):
        # with zero biases an all-zero TF-IDF row projects to zero: d3 holds
        # only "shared", which every document has, so its idf is 0
        monkeypatch.setattr(rt, "EVAL_BLOCK", block)
        records = [(f"d{i}", np.ones(3), {f"w{i}": 1, "shared": 1}, i * DAY, ["l"])
                   for i in range(5)]
        records[3] = ("d3", np.ones(3), {"shared": 2}, 3 * DAY, ["l"])
        corpus = cp.from_records(records)
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=2)
        model.text_net.b1[:] = 0.0
        model.text_net.b2[:] = 0.0
        idf = cp.document_frequencies(corpus)
        with pytest.raises(DegenerateProjectionError,
                           match="degenerate text projection for document 'd3'") as info:
            rt.build_index(corpus, model, idf)
        assert info.value.row == 3

    @pytest.mark.parametrize("block", [1, 7, 128])  # 300 rows: each leaves a short last block
    def test_blocked_projection_rows(self, block, monkeypatch):
        """Each projected row is the row of its EVAL_BLOCK-row block's forward pass,
        and within rounding of one pass over the whole split.

        A whole-split pass is no bit-exact reference: BLAS may round a product
        of few rows differently in the last bit (a one-row product runs as a
        matrix-vector product, and small products take another kernel).
        """
        monkeypatch.setattr(rt, "EVAL_BLOCK", block)
        rng = np.random.default_rng(7)
        n, d_image, vocab = 300, 16, 60
        records = [(f"d{i}", rng.normal(size=d_image),
                    {f"w{w}": int(c) for w, c in enumerate(rng.integers(0, 3, vocab)) if c}
                    | {"shared": 1},
                    i * DAY, [f"lab{i % 4}"]) for i in range(n)]
        corpus = cp.from_records(records)
        model = ProjectionModel.initialize(d_image, corpus.d_text, 256, 64, seed=7)
        idf = cp.document_frequencies(corpus)

        def check(got, net, x):
            blocks = [net.forward(x[start:start + block])[0] for start in range(0, n, block)]
            assert np.array_equal(got, np.concatenate(blocks))
            # unit rows: a few float64 ulps of an entry no larger than 1
            np.testing.assert_allclose(got, net.forward(x)[0], rtol=0, atol=1e-15)

        index = rt.build_index(corpus, model, idf)
        check(index.image_matrix, model.image_net, corpus.image)
        check(index.text_matrix, model.text_net, cp.tfidf_matrix(corpus.text, idf))

    def test_float32_image_and_its_float64_cast_give_the_same_bits(self):
        """A corpus holds its image as float32 and every network pass casts it to float64 on
        entry, so the float64 cast of the same rows projects, indexes and trains alike, bit for
        bit."""
        rng = np.random.default_rng(11)
        n, d_image, vocab = 300, 32, 60
        records = [(f"d{i}", rng.normal(size=d_image),
                    {f"w{w}": int(c) for w, c in enumerate(rng.integers(0, 3, vocab)) if c}
                    | {"shared": 1},
                    i * DAY, [f"lab{i % 4}"]) for i in range(n)]
        corpus = cp.from_records(records)
        wide = dataclasses.replace(corpus, image=corpus.image.astype(np.float64))
        assert corpus.image.dtype == np.float32
        model = ProjectionModel.initialize(d_image, corpus.d_text, 64, 16, seed=11)
        idf = cp.document_frequencies(corpus)

        narrow_proj, narrow_cache = model.image_net.forward(corpus.image)
        wide_proj, wide_cache = model.image_net.forward(wide.image)
        assert np.array_equal(narrow_proj, wide_proj)
        assert all(map(np.array_equal, narrow_cache, wide_cache))

        narrow_index, wide_index = (rt.build_index(c, model, idf) for c in (corpus, wide))
        assert np.array_equal(narrow_index.image_matrix, wide_index.image_matrix)
        assert np.array_equal(narrow_index.text_matrix, wide_index.text_matrix)

        idx = rng.permutation(n)[:64]
        plan = ob.build_batch_plan(cp.label_matrix([corpus.label_sets[i] for i in idx]), rng,
                                   negatives_per_anchor=3)
        plan.sim_temp = rng.uniform(size=(len(idx), len(idx)))
        x_txt = cp.tfidf_matrix(corpus.text, idf)[idx]
        cfg = RunConfig(lam=1.0)
        narrow_out, narrow_grads = ob.total_loss(corpus.image[idx], x_txt, plan, model, cfg)
        wide_out, wide_grads = ob.total_loss(wide.image[idx], x_txt, plan, model, cfg)
        assert narrow_out == wide_out
        assert all(map(np.array_equal, narrow_grads, wide_grads))

    def test_projection_never_holds_a_split_sized_activation(self):
        """The traced peak of ``build_index`` stays below one (n, hidden) float64 array."""
        n, hidden = 1000, 256
        corpus = tiny_corpus(n, d_image=8)
        model = ProjectionModel.initialize(8, corpus.d_text, hidden, 16, seed=3)
        idf = cp.document_frequencies(corpus)
        tracemalloc.start()
        try:
            rt.build_index(corpus, model, idf)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < n * hidden * 8


class TestQueryTopK:
    def test_hand_ordering(self):
        index = make_index(np.eye(3), [[0.9], [0.5], [0.1]])
        index.text_matrix = np.array([[0.9], [0.5], [0.1]])
        index.image_matrix = np.array([[0.9], [0.5], [0.1]])
        results, truncated = rt.query_topk(index, LinearStubModel(), rt.I2T, [[2.0]], k=3)
        assert [doc for doc, _ in results] == ["d0", "d1", "d2"]
        assert [round(s, 6) for _, s in results] == [0.9, 0.5, 0.1]
        assert not truncated

    def test_tie_broken_by_doc_id(self):
        index = make_index([[1.0], [1.0]], [[0.5], [0.5]], ids=["zz", "aa"])
        results, _ = rt.query_topk(index, LinearStubModel(), rt.I2T, [[1.0]], k=2)
        assert [doc for doc, _ in results] == ["aa", "zz"]

    def test_k_beyond_index_flags_truncation(self):
        index = make_index([[1.0]], [[1.0]])
        results, truncated = rt.query_topk(index, LinearStubModel(), rt.I2T, [[1.0]], k=10)
        assert len(results) == 1
        assert truncated

    def test_rank1_is_argmax(self):
        rng = np.random.default_rng(3)
        text = rng.normal(size=(8, 4))
        text /= np.linalg.norm(text, axis=1, keepdims=True)
        index = make_index(np.zeros((8, 4)), text)
        qvec = rng.normal(size=4)
        results, _ = rt.query_topk(index, LinearStubModel(), rt.I2T, qvec[None], k=1)
        scores = text @ (qvec / np.linalg.norm(qvec))
        assert results[0][0] == f"d{int(np.argmax(scores))}"
        assert results[0][1] == pytest.approx(scores.max())

    def test_scores_invariant_to_positive_rescaling(self):
        rng = np.random.default_rng(4)
        text = rng.normal(size=(6, 5))
        text /= np.linalg.norm(text, axis=1, keepdims=True)
        index = make_index(np.zeros((6, 5)), text)
        x = rng.normal(size=5)
        a, _ = rt.query_topk(index, LinearStubModel(), rt.I2T, x[None], k=6)
        b, _ = rt.query_topk(index, LinearStubModel(), rt.I2T, 7.3 * x[None], k=6)
        assert [d for d, _ in a] == [d for d, _ in b]
        for (_, sa), (_, sb) in zip(a, b):
            assert sa == pytest.approx(sb)

    @pytest.mark.parametrize("seed", range(3))
    def test_duplicates_straddling_k_keep_full_sort_order(self, seed):
        """Equal scores of duplicated documents across rank k: the full-lexsort order."""
        rng = np.random.default_rng(seed)
        rows = rng.integers(-2, 3, size=(4, 3)) / 4.0
        text = rows[[0, 1, 1, 2, 2, 2, 3, 3, 1, 0, 2, 3]]  # exact scores, each repeated
        ids = [f"doc{j:02d}" for j in rng.permutation(12)]
        index = make_index(np.zeros((12, 3)), text, ids=ids)
        qvec = np.array([0.5, -0.25, 0.75])
        scores = text @ (qvec / np.linalg.norm(qvec))
        full = reference_rank(scores, ids)[0]
        straddled = 0
        for k in range(1, 15):
            results, truncated = rt.query_topk(index, LinearStubModel(), rt.I2T, qvec[None], k=k)
            assert [doc for doc, _ in results] == [ids[i] for i in full[:k]]
            assert [s for _, s in results] == [float(scores[i]) for i in full[:k]]
            assert truncated == (k > 12)
            straddled += k < 12 and scores[full[k - 1]] == scores[full[k]]
        assert straddled >= 4

    def test_t2i_row_is_scored_against_the_images(self):
        index = make_index([[0.0, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 1.0]])
        results, _ = rt.query_topk(index, LinearStubModel(), rt.T2I, [[3.0, 0.0]], k=2)
        assert results == [("d1", 1.0), ("d0", 0.0)]
        results, _ = rt.query_topk(index, LinearStubModel(), rt.I2T, [[3.0, 0.0]], k=2)
        assert results == [("d0", 1.0), ("d1", 0.0)]

    def test_one_row_and_a_known_direction(self):
        index = make_index(np.eye(2), np.eye(2))
        with pytest.raises(ValueError):  # two rows
            rt.query_topk(index, LinearStubModel(), rt.I2T, np.eye(2), k=1)
        with pytest.raises(ValueError, match="unknown direction"):
            rt.query_topk(index, LinearStubModel(), "X2Y", [[1.0, 0.0]], k=1)

    def test_scores_equal_the_index_rows_of_the_same_input(self):
        """A query row projects as the same document's index row does.

        BLAS may round a one-row product differently from a batch in the last bits.
        """
        corpus = tiny_corpus(6)
        model = ProjectionModel.initialize(3, corpus.d_text, 4, 2, seed=5)
        idf = cp.document_frequencies(corpus)
        index = rt.build_index(corpus, model, idf)
        for i in range(len(corpus)):
            text_row = cp.tfidf_matrix(corpus.take([i]).text, idf)
            for direction, row, query in ((rt.I2T, corpus.image[i:i + 1], index.image_matrix[i]),
                                          (rt.T2I, text_row, index.text_matrix[i])):
                candidates = index.text_matrix if direction == rt.I2T else index.image_matrix
                results, _ = rt.query_topk(index, model, direction, row, k=6)
                scores = dict(results)
                for j, doc_id in enumerate(index.ids):
                    assert scores[doc_id] == pytest.approx(candidates[j] @ query, abs=1e-12)


def in_ranked_order(grade_rows):
    """TopK of queries whose candidates are listed best first, via the production ranking.

    Rows are padded with grade-0 candidates ranked last, which changes no metric.
    """
    n = max(len(row) for row in grade_rows)
    grades = np.array([list(row) + [0] * (n - len(row)) for row in grade_rows], dtype=np.float64)
    scores = np.broadcast_to(np.arange(n, 0, -1.0), grades.shape)
    order = rt.rank_candidates(scores, np.arange(n), n)
    return topk_of_grades(grades, order, (grades > 0).sum(axis=1, keepdims=True))


def ap_of(flag_rows, k):
    """Each query's AP@k; rows of relevance flags listed best first."""
    top = in_ranked_order(flag_rows)
    return rt.average_precision(top.grades > 0, top.relevant, [k])[:, 0]


def ndcg_of(grade_rows, k, gain="linear"):
    """Each query's nDCG@k; rows of grades listed best first."""
    top = in_ranked_order(grade_rows)
    return rt.dcg(top.grades, k, gain) / rt.dcg(top.ideal, k, gain)


def lonely_index():
    """Two documents, each ranking itself first: d1 is relevant to itself,
    and d0 has no label, so as a query it has no relevant candidate."""
    return make_index(np.eye(2), np.eye(2), labels=[frozenset(), frozenset(["l"])])


def unlabelled_index():
    """Three documents without a label: no query has a relevant candidate."""
    index = make_index(np.eye(3), np.eye(3), labels=[frozenset()] * 3)
    return index, rt.grade_split(index, 4, 2)


class TestMapAtK:
    def test_hand_value(self):
        flags = [True, False, True] + [False] * 47
        (value,) = ap_of([flags], k=50)
        assert value == pytest.approx((1.0 + 2.0 / 3.0) / 2.0, abs=1e-6)

    def test_perfect_ranking(self):
        assert ap_of([[True] * 5], k=3).tolist() == [1.0]

    def test_no_hits_in_top_k(self):
        assert ap_of([[False] * 5 + [True]], k=3).tolist() == [0.0]

    def test_all_excluded_is_error(self):
        assert np.isnan(ap_of([[False], [False]], k=1)).all()
        index, grading = unlabelled_index()
        with pytest.raises(rt.MetricError):
            rt.evaluate_direction(index, grading, rt.I2T, 1, [1], ndcg_gain="linear")

    def test_zero_relevant_excluded_and_counted(self):
        ap = ap_of([[False, False], [True, False]], k=2)
        assert np.isnan(ap[0]) and ap[1] == 1.0
        index = lonely_index()
        report = rt.evaluate_direction(index, rt.grade_split(index, 4, 2), rt.I2T, 2, [2],
                                       ndcg_gain="linear")
        assert report.num_excluded == 1
        assert report.map_at_k == 1.0

    def test_matches_oracle_on_permutations(self):
        for n in range(1, 6):
            for rel in itertools.product([0, 1], repeat=n):
                if not any(rel):
                    continue
                for k in (1, 2, n):
                    scores = [n - i for i in range(n)]  # ranking = given order
                    expected = synth.oracle_ap(scores, rel, k)
                    (got,) = ap_of([list(map(bool, rel))], k)
                    assert got == pytest.approx(expected), (rel, k)


class TestNdcgAtK:
    def test_hand_value(self):
        assert rt.dcg([[2, 0, 1]], 3, "linear").tolist() == [2.5]
        (value,) = ndcg_of([[2, 0, 1]], k=3)
        idcg = 2.0 + 1.0 / np.log2(3)
        assert value == pytest.approx(2.5 / idcg, abs=1e-9)
        assert value == pytest.approx(0.9502, abs=1e-4)

    def test_ideal_ordering_scores_one(self):
        assert ndcg_of([[3, 2, 2, 1, 0]], k=5).tolist() == [1.0]

    def test_all_zero_grades_excluded(self):
        index = lonely_index()
        report = rt.evaluate_direction(index, rt.grade_split(index, 4, 2), rt.I2T, 2, [2],
                                       ndcg_gain="linear")
        assert report.num_excluded == 1
        assert report.ndcg_at_k == 1.0

    def test_all_excluded_is_error(self):
        """An all-zero row has DCG 0 ranked and ideal; a split of only such rows is an error."""
        assert rt.dcg([[0, 0]], 2, "exponential").tolist() == [0.0]
        index, grading = unlabelled_index()
        with pytest.raises(rt.MetricError):
            rt.evaluate_direction(index, grading, rt.T2I, 2, [2], ndcg_gain="exponential")

    def test_matches_oracle_on_permutations(self):
        base = [2, 0, 1, 3]
        for perm in itertools.permutations(base):
            scores = [len(perm) - i for i in range(len(perm))]
            expected = synth.oracle_ndcg(scores, perm, k=3)
            (got,) = ndcg_of([list(perm)], k=3)
            assert got == pytest.approx(expected), perm

    def test_exponential_gain_switch(self):
        (value,) = ndcg_of([[2, 0, 1]], k=3, gain="exponential")
        expected = synth.oracle_ndcg([3, 2, 1], [2, 0, 1], k=3, gain="exponential")
        assert value == pytest.approx(expected)

    def test_unknown_gain_is_rejected(self):
        with pytest.raises(ValueError, match="unknown gain"):
            rt.dcg([[1, 0]], 2, "quadratic")


class TestPrecisionScope:
    @staticmethod
    def scope(flag_rows, k_list):
        top = in_ranked_order(flag_rows)
        return rt.average_precision(top.grades > 0, top.relevant, k_list)

    def test_k1_reduces_to_precision_at_one(self):
        flags = [[True, False], [False, True], [False, False, True]]
        ap = self.scope(flags, k_list=[1])
        assert ap[:, 0].tolist() == [1.0, 0.0, 0.0]
        assert np.mean(ap[:, 0]) == pytest.approx(1.0 / 3.0)

    def test_curve_shape(self):
        flags = [[True] * 10]
        assert self.scope(flags, k_list=[2, 4, 6]).shape == (1, 3)

    def test_matches_per_k_oracle(self):
        rng = np.random.default_rng(5)
        queries = [list(rng.random(6) < 0.5) for _ in range(3)]
        if not any(any(q) for q in queries):
            queries[0][0] = True
        ks = [1, 3, 5]
        ap = self.scope(queries, k_list=ks)
        for j, k in enumerate(ks):
            oracle_vals = []
            for q in queries:
                scores = [len(q) - i for i in range(len(q))]
                ap_q = synth.oracle_ap(scores, q, k)
                if ap_q is not None:
                    oracle_vals.append(ap_q)
            assert np.nanmean(ap[:, j]) == pytest.approx(np.mean(oracle_vals))


class TestTemporalFit:
    AXIS = cp.TimeAxis(unit=1.0, origin=0, num_slices=2)

    def fit(self, result_ts, gt_ts, bins):
        def counts(ts):
            b = rt.time_bins(ts, self.AXIS, bins)
            return np.bincount(b[b >= 0], minlength=bins)

        return float(rt.temporal_fit(counts(result_ts), counts(gt_ts))[0])

    def test_identical_distributions(self):
        ts = [0.2, 0.4, 1.2, 1.8]
        assert self.fit(ts, ts, bins=4) == 1.0

    def test_disjoint_supports(self):
        assert self.fit([0.1, 0.3], [1.5, 1.9], bins=2) == 0.0

    def test_hand_value(self):
        result = [0.5, 1.5]
        gt = [0.5, 1.5, 1.5, 1.5]
        assert self.fit(result, gt, bins=2) == pytest.approx(0.75)

    def test_empty_results_zero(self):
        assert self.fit([], [0.5], bins=2) == 0.0

    def test_bins_match_histogram_per_value(self):
        """Every timestamp lands in the bin np.histogram puts it in, edges included."""
        rng = np.random.default_rng(7)
        for num_slices in (1, 3, 7, 30):
            axis = cp.TimeAxis(unit=1.0, origin=0, num_slices=num_slices)
            span = (0.0, float(num_slices))
            for bins in (1, 3, 10, 13):
                edges = np.linspace(*span, bins + 1)
                ts = np.concatenate([
                    edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
                    rng.uniform(0.0, num_slices, 200), [-1.0, num_slices + 0.5],
                ])
                got = rt.time_bins(ts, axis, bins)
                for t, b in zip(ts, got):
                    want, _ = np.histogram([t], bins=bins, range=span)
                    expected = int(np.flatnonzero(want)[0]) if want.any() else -1
                    assert b == expected, (num_slices, bins, t)


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
            report = rt.evaluate_direction(index, rt.grade_split(index, 4, 5), direction, 5,
                                           [1, 3, 5], ndcg_gain="linear")
            assert report.num_excluded == 0
            assert 0.0 <= report.map_at_k <= 1.0
            assert 0.0 <= report.ndcg_at_k <= 1.0
            assert 0.0 <= report.temporal_fit <= 1.0
            assert [k for k, _ in report.scope_curve] == [1, 3, 5]
            for _, v in report.scope_curve:
                assert 0.0 <= v <= 1.0

    def test_grading_shallower_than_k_is_rejected(self):
        """An ideal ranking cut above k would broadcast into a wrong nDCG, not fail."""
        index = self._index()
        with pytest.raises(ValueError, match="k = 5"):
            rt.evaluate_direction(index, rt.grade_split(index, 4, 1), rt.I2T, 5, [5],
                                  ndcg_gain="linear")

    def test_no_relevant_candidate_is_an_error(self):
        """A split whose label sets are all empty has no defined metric: both the
        report and the validation score raise instead of returning NaN."""
        index, grading = unlabelled_index()
        with pytest.raises(rt.MetricError, match="zero relevant"):
            rt.evaluate_direction(index, grading, rt.I2T, 2, [1, 2], ndcg_gain="linear")
        with pytest.raises(rt.MetricError, match="zero relevant"):
            mean_map_both_directions(index, grading, 2, "linear")

    def test_report_round_trip_files(self, tmp_path):
        index = self._index()
        report = rt.evaluate_direction(index, rt.grade_split(index, 4, 5), rt.I2T, 5, [1, 5],
                                       ndcg_gain="linear")
        rt.write_report_json(report, tmp_path / "report.json")
        rt.write_scope_csv(report, tmp_path / "scope.csv")
        rt.write_temporal_csv(report, tmp_path / "temporal.csv")
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

    @staticmethod
    def reference_topk(label_sets, scores, ids, depth, doc_bins, bins):
        """Every TopK field from the (n, n) intersection counts and a full sort of each row."""
        grades = TestSharedLabelMatrix.reference(label_sets)
        order = reference_rank(scores, ids)[:, :depth]
        gt_counts = np.zeros((len(grades), bins), dtype=np.int64)
        for i, row in enumerate(grades):
            for j in np.flatnonzero(row > 0):
                if doc_bins[j] >= 0:
                    gt_counts[i, doc_bins[j]] += 1
        return topk_of_grades(grades, order, gt_counts)

    LABEL_CASES = [  # (categories, largest label set, least and most distinct sets); n = 70
        (1, 1, 1, 1),
        (3, 2, 2, 6),
        (9, 4, 30, 70),
        (16, 8, 60, 70),
    ]

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_intersection_loop(self, seed, monkeypatch):
        """Every grading and ranking field of every block of query rows, dtypes included.

        The candidates fall into anywhere from one label-set group to nearly
        one per document; some have no time bin (-1), and the depth may
        exceed n. Features are multiples of 1/4, so every score is exact.
        """
        monkeypatch.setattr(rt, "EVAL_BLOCK", 16)
        n, bins, num_slices = 70, 5, 4
        rng = np.random.default_rng(seed)
        for categories, largest, fewest, most in self.LABEL_CASES:
            label_sets = [
                frozenset(f"c{c}" for c in rng.choice(categories, replace=False,
                                                       size=rng.integers(1, largest + 1)))
                for _ in range(n)
            ]
            assert fewest <= len(set(label_sets)) <= most
            image = rng.integers(-2, 3, size=(n, 3)) / 4.0
            text = rng.integers(-2, 3, size=(n, 3)) / 4.0
            ids = [f"doc{j:03d}" for j in rng.permutation(n)]
            doc_bins = rng.integers(-1, bins, size=n)
            assert (doc_bins == -1).any()
            # each bin's midpoint, or a time before the timespan for bin -1
            timestamps = np.where(doc_bins >= 0, (doc_bins + 0.5) * num_slices / bins, -1.0)
            index = make_index(image, text, ids=ids, labels=label_sets,
                               timestamps=timestamps, num_slices=num_slices)
            for depth in (30, n + 5):
                grading = rt.grade_split(index, bins, depth)
                np.testing.assert_array_equal(grading.doc_bins, doc_bins)
                order, grades = rt.rank_direction(index, grading, rt.I2T, depth)
                group = grading.group
                got = {"order": order, "grades": grades, "ideal": grading.ideal[group],
                       "relevant": grading.relevant[group], "gt_counts": grading.gt_counts[group]}
                want = self.reference_topk(label_sets, image @ text.T, ids, depth, doc_bins, bins)
                for name, a in got.items():
                    b = getattr(want, name)
                    assert a.dtype == b.dtype, name
                    np.testing.assert_array_equal(a, b, err_msg=name)

    def test_label_matrix_columns(self):
        labels = cp.label_matrix([frozenset(["b", "a"]), frozenset(["c"])], ["a", "c"])
        np.testing.assert_array_equal(labels, [[1.0, 0.0], [0.0, 1.0]])
        np.testing.assert_array_equal(
            cp.label_matrix([frozenset(["b", "a"]), frozenset(["c"])]),
            [[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        )


# ---------------------------------------------------------------------------
# Full-sort references: evaluation as it was before query-block streaming.
# Every row of the (n, n) score matrix was ordered by one full lexsort, and
# every metric looped over queries.


def reference_rank(scores, ids):
    id_ranks = np.argsort(np.argsort(np.array(ids)))
    return np.array([np.lexsort((id_ranks, -row)) for row in np.atleast_2d(scores)])


def reference_ap(flags, total_relevant, k):
    if total_relevant == 0:
        return None
    flags = np.asarray(flags, dtype=bool)[:k]
    if not flags.any():
        return 0.0
    hits = np.cumsum(flags)
    ranks = np.arange(1, len(flags) + 1)
    return float((hits[flags] / ranks[flags]).sum() / min(total_relevant, k))


def reference_map(per_query_flags, k):
    values, excluded = [], 0
    for flags in per_query_flags:
        ap = reference_ap(flags, int(np.sum(flags)), k)
        if ap is None:
            excluded += 1
        else:
            values.append(ap)
    if not values:
        raise rt.MetricError("every query has zero relevant candidates")
    return float(np.mean(values)), excluded


def reference_dcg(grades, k, gain):
    grades = np.asarray(grades, dtype=np.float64)
    if gain == "exponential":
        grades = np.exp2(grades) - 1.0
    discounts = 1.0 / np.log2(np.arange(2, min(k, len(grades)) + 2))
    return float((grades[:k] * discounts).sum())


def reference_ndcg(per_query_grades, k, gain):
    values = []
    for grades in per_query_grades:
        idcg = reference_dcg(np.sort(grades)[::-1], k, gain)
        if idcg != 0.0:
            values.append(reference_dcg(grades, k, gain) / idcg)
    return float(np.mean(values))


def reference_temporal_fit(result_ts, gt_ts, time_axis, bins):
    if len(result_ts) == 0 or len(gt_ts) == 0:
        return 0.0
    span = (0.0, float(time_axis.num_slices))
    p, _ = np.histogram(result_ts, bins=bins, range=span)
    q, _ = np.histogram(gt_ts, bins=bins, range=span)
    return float(np.minimum(p / p.sum(), q / q.sum()).sum())


def reference_ranked(index, direction):
    queries, candidates = (
        (index.image_matrix, index.text_matrix) if direction == rt.I2T
        else (index.text_matrix, index.image_matrix)
    )
    order = reference_rank(queries @ candidates.T, index.ids)
    grades = TestSharedLabelMatrix.reference(index.label_sets)
    return order, np.take_along_axis(grades, order, axis=1)


def reference_evaluate_direction(index, direction, k, k_list, bins, ndcg_gain):
    order, ranked = reference_ranked(index, direction)
    hits = ranked > 0
    map_value, excluded = reference_map(hits, k)
    fits, pooled_results, pooled_gt = [], [], []
    for i in range(len(index)):
        if not hits[i].any():
            continue
        result_ts = index.timestamps[order[i, :k][hits[i, :k]]]
        gt_ts = index.timestamps[order[i][hits[i]]]
        fits.append(reference_temporal_fit(result_ts, gt_ts, index.time_axis, bins))
        pooled_results.extend(result_ts)
        pooled_gt.extend(gt_ts)
    span = (0.0, float(index.time_axis.num_slices))
    gt_hist, _ = np.histogram(pooled_gt, bins=bins, range=span)
    result_hist, _ = np.histogram(pooled_results, bins=bins, range=span)
    return rt.EvalReport(
        direction=direction,
        k=k,
        map_at_k=map_value,
        ndcg_at_k=reference_ndcg(ranked, k, ndcg_gain),
        scope_curve=[(kk, reference_map(hits, kk)[0]) for kk in k_list],
        temporal_fit=float(np.mean(fits)),
        num_queries=len(index),
        num_excluded=excluded,
        bin_edges=[float(e) for e in np.linspace(*span, bins + 1)[:-1]],
        gt_hist=[float(v) for v in gt_hist / max(1, gt_hist.sum())],
        result_hist=[float(v) for v in result_hist / max(1, result_hist.sum())],
    )


def tie_index(seed, n=40, num_slices=3, bins=6):
    """An index full of exact score ties, lonely queries and timestamps on bin edges.

    Feature entries are multiples of 1/4 in 3 dimensions, so every score is
    exact whatever order BLAS sums in, and a quarter of the documents are
    copies of others. Three documents have no label, so as queries they have
    no relevant candidate (R = 0); each other document is relevant to itself.
    """
    rng = np.random.default_rng(seed)
    image = rng.integers(-2, 3, size=(n, 3)) / 4.0
    text = rng.integers(-2, 3, size=(n, 3)) / 4.0
    copies = rng.choice(n, size=n // 4, replace=False)
    image[copies], text[copies] = image[copies[::-1]], text[copies[::-1]]
    labels = [
        frozenset(f"c{c}" for c in rng.choice(4, size=rng.integers(1, 3), replace=False))
        for _ in range(n)
    ]
    for i in rng.choice(n, size=3, replace=False):
        labels[i] = frozenset()
    edges = np.linspace(0.0, num_slices, bins + 1)
    timestamps = np.where(rng.random(n) < 0.5, rng.choice(edges, size=n),
                          rng.uniform(0.0, num_slices, size=n))
    timestamps[:2] = num_slices  # the last edge
    ids = [f"doc{j:03d}" for j in rng.permutation(n)]
    return make_index(image, text, ids=ids, labels=labels, timestamps=timestamps,
                      num_slices=num_slices)


class TestAgainstFullSortReferences:
    CASES = [  # (k, k_list); n = 40
        (1, [1, 2]),
        (5, [2, 5, 10, 20]),
        (7, [3, 39, 40, 41]),
        (50, [10, 20, 30, 40, 50]),
        (60, [70]),
    ]

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("block", [1, 7, 13, 128, 256])  # 13 leaves a short last block
    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_reports_are_byte_identical(self, seed, block, case, monkeypatch):
        monkeypatch.setattr(rt, "EVAL_BLOCK", block)
        k, k_list = self.CASES[case]
        index = tie_index(seed)
        grading = rt.grade_split(index, 6, k)
        for direction in rt.DIRECTIONS:
            for gain in ("linear", "exponential"):
                got = rt.evaluate_direction(index, grading, direction, k, k_list, ndcg_gain=gain)
                want = reference_evaluate_direction(index, direction, k, k_list, 6, gain)
                assert json.dumps(asdict(got)) == json.dumps(asdict(want))

    @pytest.mark.parametrize("seed", range(3))
    def test_cases_cover_the_edges(self, seed):
        """The tie index has what the byte-identity test is meant to exercise."""
        index = tie_index(seed)
        order, ranked = reference_ranked(index, rt.I2T)
        scores = index.image_matrix @ index.text_matrix.T
        ranked_scores = np.take_along_axis(scores, order, axis=1)
        relevant = (ranked > 0).sum(axis=1)
        assert (relevant == 0).any()  # queries with R = 0
        assert ((relevant > 0) & ~(ranked[:, :5] > 0).any(axis=1)).any()  # no hit in the top 5
        for k in (1, 5, 7):  # equal scores straddle rank k
            assert (ranked_scores[:, k - 1] == ranked_scores[:, k]).any()
        edges = np.linspace(0.0, 3.0, 7)
        assert np.isin(index.timestamps, edges[1:-1]).any()
        assert (index.timestamps == 3.0).any()

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("block", [1, 7, 13, 128, 256])  # 13 leaves a short last block
    def test_validation_score_is_the_same_float(self, seed, block, monkeypatch):
        monkeypatch.setattr(rt, "EVAL_BLOCK", block)
        index = tie_index(seed)
        for k in (1, 5, 50):
            want = float(np.mean([reference_map(reference_ranked(index, d)[1] > 0, k)[0]
                                  for d in rt.DIRECTIONS]))
            grading = rt.grade_split(index, RunConfig().eval_bins, k)
            assert mean_map_both_directions(index, grading, k, "linear") == want

    @pytest.mark.parametrize("seed", range(3))
    def test_per_query_metrics_equal_references(self, seed):
        """Each query's AP at every cut-off and its DCG, ranked and ideal, equal the
        per-row references, bit for bit; a query with R = 0 has NaN for its AP."""
        index = tie_index(seed)
        n = len(index)
        ks = [1, 5, 7, n, n + 10]
        grading = rt.grade_split(index, 6, n)
        for direction in rt.DIRECTIONS:
            ranked = reference_ranked(index, direction)[1]
            relevant = (ranked > 0).sum(axis=1)
            ap = rt.average_precision(ranked > 0, relevant, ks)
            for i, j in itertools.product(range(n), range(len(ks))):
                want = reference_ap(ranked[i] > 0, relevant[i], ks[j])
                assert np.isnan(ap[i, j]) if want is None else ap[i, j] == want, (i, ks[j])
            for k, gain in itertools.product(ks, ("linear", "exponential")):
                dcg = rt.dcg(ranked, k, gain)
                ideal = rt.dcg(grading.ideal, k, gain)[grading.group]
                for i in range(n):
                    assert dcg[i] == reference_dcg(ranked[i], k, gain), (i, k, gain)
                    assert ideal[i] == reference_dcg(np.sort(ranked[i])[::-1], k, gain), (i, k)

    @pytest.mark.parametrize("seed", range(4))
    def test_rank_candidates_equal_full_lexsort(self, seed):
        """Rows with equal scores straddling rank depth, equal scores only inside
        the top depth (the one-key sort plus the id re-sort), +0.0 against -0.0,
        and no equal scores at all."""
        rng = np.random.default_rng(seed)
        n = 30
        id_ranks = rng.permutation(n)
        for depth in (1, 2, 5, 29, 30, 31):
            straddling = rng.integers(0, 4, size=(3, n)).astype(np.float64)
            inside = rng.integers(0, 4, size=(3, n)).astype(np.float64)
            for row in inside:  # the top depth score 10-12, everything else below
                row[rng.permutation(n)[:depth]] = rng.integers(10, 13, size=min(depth, n))
            signed = np.where(rng.random((1, n)) < 0.5, 0.0, -0.0)
            distinct = np.stack([rng.permutation(n) for _ in range(2)]).astype(np.float64)
            scores = np.concatenate([straddling, inside, signed, distinct])
            full = np.array([np.lexsort((id_ranks, -row)) for row in scores])
            np.testing.assert_array_equal(
                rt.rank_candidates(scores, id_ranks, depth), full[:, :depth]
            )
