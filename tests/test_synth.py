import hashlib
import io
import json
from contextlib import redirect_stdout
from dataclasses import MISSING, fields

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from corpus_helpers import assert_same_corpus
from tcmr import synth
from tcmr.cli import build_parser, main
from tcmr.corpus import save_corpus
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
        for labels, feat in zip(corpus.label_sets, corpus.image):
            by_cat.setdefault(next(iter(labels)), []).append(feat)
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
        assert ((0.0 <= corpus.timestamps) & (corpus.timestamps <= 20.0)).all()

    def test_per_category_modes(self):
        spec = basic_spec(
            modes=[
                [(2.0, 0.5, 1.0)],
                [(10.0, 0.5, 1.0)],
                [(18.0, 0.5, 1.0)],
            ]
        )
        corpus, truth = synth.generate(spec)
        for doc_id, t in zip(corpus.ids, corpus.timestamps):
            cat, mode = truth.doc_source[doc_id]
            center = truth.category_modes[cat][mode][0]
            assert abs(t - center) < 4.0

    def test_infeasible_specs_rejected(self):
        with pytest.raises(synth.SynthError):
            basic_spec(vocab_size=0)
        with pytest.raises(synth.SynthError):
            synth.generate(basic_spec(modes=[(5.0, 1.0, 0.4), (15.0, 1.0, 0.4)]))
        with pytest.raises(synth.SynthError):
            synth.generate(basic_spec(modes=[(25.0, 1.0, 1.0)]))
        with pytest.raises(synth.SynthError):
            basic_spec(words_per_doc=0)


class TestChoiceReplay:
    # with a step, the next random() is a CDF value after a zero weight (with four
    # modes, also before one): a left-side search there, or with off > 0 a CDF left
    # unnormalised, picks another mode
    @example(weights=[0.5, 0.0, 0.5], off=1e-9, step=1, seed=0)
    @example(weights=[0.0, 0.3, 0.0, 0.7], off=0.0, step=1, seed=3)
    @example(weights=[1.0], off=0.0, step=None, seed=5)
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(
        weights=st.lists(st.just(0.0) | st.floats(1e-3, 1.0), min_size=1, max_size=8).filter(any),
        off=st.floats(-1e-9, 1e-9),
        step=st.none() | st.integers(0, 6),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_draws_and_stream_equal_rng_choice(self, weights, off, step, seed):
        """Index and stream position equal rng.choice's, for 1-8 modes with zero
        weights and sums off 1 by up to 1e-9, also where random() lands on a step."""
        ref = np.random.default_rng(seed)
        if step is not None and len(weights) > 1:
            # the next random() is u: weight u at ``step``, 1 - u at the end,
            # zero elsewhere, so u itself is a CDF value
            u = np.random.default_rng(seed).random()
            weights = [0.0] * len(weights)
            step %= len(weights) - 1
            weights[step], weights[-1] = u, 1.0 - u
        p = np.array(weights) / sum(weights) * (1.0 + off)
        if step is not None and len(weights) > 1:
            cdf = p.cumsum()
            assume(u in (cdf / cdf[-1]).tolist())
        rng = np.random.default_rng(seed)
        draw = synth.choice_replay(p)
        assert [draw(rng) for _ in range(6)] == [ref.choice(len(p), p=p) for _ in range(6)]
        assert rng.random() == ref.random()


PIN_SYNTH_ARGS = [  # drift 0, noise 0: every document of a category shares one prototype
    "synth", "--categories", "3", "--docs-per-category", "12", "--timespan", "10",
    "--modes", "3:1:0.5,7:1.5:0.5", "--d-image", "4", "--image-noise", "0",
    "--vocab-size", "15", "--words-per-doc", "5", "--concentration", "0.3",
    "--drift", "0", "--seed", "4",
]
PIN_SPEC = dict(  # drift 1, per-category modes, a zero-weight mode
    num_categories=3, docs_per_category=15, timespan=10.0,
    modes=[
        [(2.0, 0.5, 0.25), (5.0, 1.0, 0.0), (8.0, 1.0, 0.75)],
        [(3.0, 1.0, 1.0)],
        [(1.0, 1.0, 0.5), (9.0, 2.0, 0.5)],
    ],
    d_image=6, image_noise=0.3, vocab_size=20, words_per_doc=7, word_concentration=0.5,
    drift=1.0, seed=9,
)
PINNED = {  # SHA-256 of each file; a change means the draws or the writers changed
    "cli": {
        "manifest.jsonl": "de4cb6a6d49ea53be2a1ee9ac1aac966b7eefcc4e5cce5df417d4ce099827913",
        "features.bin": "3731d16ea0ca902963557bc8afc5e8dbd4bdfb8b30fec576357bf839b5704f40",
        "vocab.txt": "f985c720789a3e62fa0b310b1dae1e157d383082dec9051676d25aca99ee8c45",
        "columns.bin": "62ea26802da05b7bab0f564f59abb2f73e80c2b0f0c9d29c864cf0569787bf7f",
        "truth.json": "bc6d9b69182eebed4bdd8bbbfe5176a6c2c23f26883b941d5b5e975cc5bfbbb9",
    },
    "spec": {
        "manifest.jsonl": "99766205a7e79d0a58d235af5a94d1508fccaa5e6266f7ff853e989cffd70d7f",
        "features.bin": "12c1dc730031b9114d0800c66668b82463dd8f869e87a4d56ddab1941775d58c",
        "vocab.txt": "6a4e443165523da34709daa52f70fb97f7e8a563f76fc28a23d8f2bd9a589aea",
        "columns.bin": "78e9a0d4a59e54783fe04cbfb66560f57b9c01f04dc587eb27765fe52cca287a",
        "truth.json": "b789389b096991e2b0da6a618fad72e8bf95e6f97783a407bf96e086f3f682de",
    },
}


PINNED_DEFAULTS = {  # SHA-256 of each file of `synth --out <dir>` with no other flag
    "manifest.jsonl": "d492cf0bb8e8465749be9ca546fb3e9452c2f088443a6833cb8b0314084b71e9",
    "features.bin": "1968fa494e533d91be8af6f8944a7b3819c63b912ac2169d5f3f5d47c6aa4074",
    "vocab.txt": "ebdc902aad284962e8e43c344a000e73e404c5111078f9adc1708b42f761032f",
    "columns.bin": "b756f4f38b0e5cce390b1ac49f4623e9adcd33da17a4f24bd1bc9b464eb19f24",
    "truth.json": "74cf71e0a3b926c3e3d741a857a27567efec7c104ab91130bf4fb6c00f435831",
}


class TestPinnedBundles:
    def digests(self, directory):
        return {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
                for name in PINNED["cli"]}

    def test_cli_bundle_bytes(self, tmp_path):
        with redirect_stdout(io.StringIO()):
            assert main(PIN_SYNTH_ARGS + ["--out", str(tmp_path)]) == 0
        assert self.digests(tmp_path) == PINNED["cli"]

    def test_default_flags_bundle_bytes_and_stdout(self, tmp_path):
        """The flags hold the generator's defaults (e.g. a 60-token vocabulary)."""
        out = io.StringIO()
        with redirect_stdout(out):
            assert main(["synth", "--out", str(tmp_path)]) == 0
        assert out.getvalue() == (
            '{"categories": 10, "d_image": 16, "d_text": 60, "documents": 2000,'
            f' "num_slices": 25, "out": {json.dumps(str(tmp_path))}}}\n')
        assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                for name in PINNED_DEFAULTS} == PINNED_DEFAULTS

    def test_spec_declares_no_default(self):
        """Every generator default is a `synth` flag's, stated once."""
        args = build_parser().parse_args(["synth", "--out", "d"])
        for f in fields(synth.SynthSpec):
            assert f.default is MISSING and f.default_factory is MISSING, f.name
            assert hasattr(args, f.name), f.name

    def test_per_category_modes_bundle_bytes(self, tmp_path):
        corpus, truth = synth.generate(synth.SynthSpec(**PIN_SPEC))
        save_corpus(corpus, tmp_path)
        (tmp_path / "truth.json").write_text(json.dumps(truth.to_dict(), sort_keys=True))
        assert self.digests(tmp_path) == PINNED["spec"]


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
        labels, ids = corpus.label_sets, corpus.ids
        rng = np.random.default_rng(1)

        def win_rate(model):
            wins = total = 0
            for _ in range(20000):
                i, j, a, b = rng.integers(len(corpus), size=4)
                if len({i, j, a, b}) < 4:
                    continue
                if labels[i] != labels[j] or labels[a] != labels[b]:
                    continue
                mi, mj = truth.doc_source[ids[i]][1], truth.doc_source[ids[j]][1]
                ma, mb = truth.doc_source[ids[a]][1], truth.doc_source[ids[b]][1]
                if mi == mj and ma != mb:
                    total += 1
                    if pair_sim(model, corpus, i, j) > pair_sim(model, corpus, a, b):
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
