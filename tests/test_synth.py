import numpy as np
import pytest
from scipy import stats as sps

from corpus_helpers import assert_same_corpus
from tcmr import synth
from temporal_reference import pair_sim


def basic_spec(**overrides):
    kwargs = dict(
        num_categories=3,
        docs_per_category=20,
        timespan=20.0,
        modes=[(5.0, 1.0, 0.5), (15.0, 1.0, 0.5)],
        d_image=8,
        image_noise=0.05,
        vocab_size=30,
        words_per_doc=6,
        word_concentration=0.3,
        drift=0.0,
        seed=7,
    )
    kwargs.update(overrides)
    return synth.SynthSpec(**kwargs)


class TestGenerate:
    def test_same_seed_identical_corpora(self):
        a, truth_a = synth.generate(basic_spec())
        b, truth_b = synth.generate(basic_spec())
        assert_same_corpus(a, b)
        assert truth_a.doc_source == truth_b.doc_source

    def test_noiseless_driftless_shares_prototype(self):
        corpus, truth = synth.generate(basic_spec(image_noise=0.0, drift=0.0))
        by_cat = {}
        for doc in corpus.documents:
            by_cat.setdefault(next(iter(doc.labels)), []).append(doc.image_feat)
        for feats in by_cat.values():
            for f in feats[1:]:
                np.testing.assert_array_equal(f, feats[0])

    def test_mode_weights_chi_square(self):
        spec = basic_spec(
            num_categories=1,
            docs_per_category=2000,
            modes=[(5.0, 1.0, 0.3), (15.0, 1.0, 0.7)],
            seed=11,
        )
        _, truth = synth.generate(spec)
        counts = [0, 0]
        for _, mode in truth.doc_source.values():
            counts[mode] += 1
        result = sps.chisquare(counts, f_exp=[0.3 * 2000, 0.7 * 2000])
        assert result.pvalue > 0.01

    def test_drift_separates_mode_prototypes(self):
        _, truth = synth.generate(basic_spec(drift=1.0))
        for protos in truth.prototypes:
            assert not np.allclose(protos[0], protos[1])

    def test_driftless_word_dists_equal_across_modes(self):
        _, truth = synth.generate(basic_spec(drift=0.0))
        for dists in truth.word_dists:
            np.testing.assert_array_equal(dists[0], dists[1])

    def test_timestamps_within_span(self):
        corpus, _ = synth.generate(basic_spec())
        for doc in corpus.documents:
            assert 0.0 <= doc.timestamp <= 20.0

    def test_per_category_modes(self):
        spec = basic_spec(
            modes=[
                [(2.0, 0.5, 1.0)],
                [(10.0, 0.5, 1.0)],
                [(18.0, 0.5, 1.0)],
            ]
        )
        corpus, truth = synth.generate(spec)
        for doc in corpus.documents:
            cat, mode = truth.doc_source[doc.id]
            center = truth.category_modes[cat][mode][0]
            assert abs(doc.timestamp - center) < 4.0

    def test_infeasible_specs_rejected(self):
        with pytest.raises(synth.SynthError):
            basic_spec(vocab_size=0)
        with pytest.raises(synth.SynthError):
            synth.generate(basic_spec(modes=[(5.0, 1.0, 0.4), (15.0, 1.0, 0.4)]))
        with pytest.raises(synth.SynthError):
            synth.generate(basic_spec(modes=[(25.0, 1.0, 1.0)]))
        with pytest.raises(synth.SynthError):
            basic_spec(words_per_doc=0)


class TestPlantedStructure:
    def test_temporally_separated_modes_are_detectable(self):
        """Same-mode pairs outscore cross-mode pairs under pair-proximity
        temporal models when a category has two separated modes."""
        from tcmr.temporal import RecencyModel
        from tcmr.train import fit_temporal_model
        from tcmr.config import RunConfig

        spec = basic_spec(
            num_categories=3, docs_per_category=200, drift=1.0, seed=0,
            modes=[(5.0, 1.0, 0.5), (15.0, 1.0, 0.5)],
        )
        corpus, truth = synth.generate(spec)
        docs = corpus.documents
        rng = np.random.default_rng(1)

        def win_rate(model):
            wins = total = 0
            for _ in range(20000):
                i, j, a, b = rng.integers(len(docs), size=4)
                if len({i, j, a, b}) < 4:
                    continue
                if docs[i].labels != docs[j].labels or docs[a].labels != docs[b].labels:
                    continue
                mi, mj = truth.doc_source[docs[i].id][1], truth.doc_source[docs[j].id][1]
                ma, mb = truth.doc_source[docs[a].id][1], truth.doc_source[docs[b].id][1]
                if mi == mj and ma != mb:
                    total += 1
                    if pair_sim(model, docs[i], docs[j]) > pair_sim(model, docs[a], docs[b]):
                        wins += 1
            return wins / total

        assert win_rate(RecencyModel(h_rec=0.3)) >= 0.95
        cfg = RunConfig(num_topics=2, gibbs_iters=20, seed=0)
        topic = fit_temporal_model("topic", corpus, cfg)
        assert win_rate(topic) >= 0.6  # word-level signal, noisier but real


class TestOracleAp:
    def test_perfect_ranking(self):
        assert synth.oracle_ap([3, 2, 1], [1, 1, 1], k=3) == 1.0

    def test_hand_value(self):
        # relevant at ranks 1 and 3, R=2
        assert synth.oracle_ap([4, 3, 2, 1], [1, 0, 1, 0], k=50) == pytest.approx(0.8333, abs=1e-4)

    def test_reversed_two_of_four(self):
        # relevant docs land at ranks 3 and 4
        value = synth.oracle_ap([4, 3, 2, 1], [0, 0, 1, 1], k=4)
        assert value == pytest.approx((1 / 3 + 2 / 4) / 2)

    def test_no_relevant_is_none(self):
        assert synth.oracle_ap([1, 2], [0, 0], k=2) is None


class TestOracleNdcg:
    def test_hand_value(self):
        value = synth.oracle_ndcg([3, 2, 1], [2, 0, 1], k=3)
        assert value == pytest.approx(0.9502, abs=1e-4)

    def test_zero_ideal_is_none(self):
        assert synth.oracle_ndcg([1, 2], [0, 0], k=2) is None
