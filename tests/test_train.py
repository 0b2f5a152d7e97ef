import json
from dataclasses import asdict

import numpy as np
import pytest

from tcmr import corpus as cp
from tcmr import retrieval as rt
from tcmr import synth
from tcmr import train as tr
from tcmr.config import ConfigError, RunConfig
from tcmr.train import fit_temporal_model, train_model, write_training_log


def toy_setup(seed=0, lam=0.0, epochs=4, **cfg_overrides):
    spec = synth.SynthSpec(
        num_categories=4,
        docs_per_category=30,
        timespan=20.0,
        modes=[(5.0, 1.0, 0.5), (15.0, 1.0, 0.5)],
        d_image=8,
        image_noise=0.05,
        vocab_size=30,
        words_per_doc=6,
        word_concentration=0.2,
        drift=0.0,
        seed=seed,
    )
    corpus, _ = synth.generate(spec)
    kwargs = dict(
        d_subspace=16, hidden=32, epochs=epochs, batch_size=32, lam=lam,
        seed=seed, k_eval=10, patience=3, kde_grid_size=256,
    )
    kwargs.update(cfg_overrides)
    cfg = RunConfig(**kwargs)
    train, val, test = cp.split(
        corpus, cp.SplitSpec(cfg.dev_fraction, cfg.val_fraction, cfg.seed)
    )
    return corpus, cfg, train, val, test


class TestTrainModel:
    def test_learns_separable_toy(self):
        _, cfg, train, val, _ = toy_setup(epochs=8)
        result = train_model(train, val, cfg)
        assert result.best_val_map is not None
        assert result.best_val_map > 0.6
        assert result.history[-1].train_loss < result.history[0].train_loss

    def test_deterministic_given_seed(self):
        _, cfg, train, val, _ = toy_setup(epochs=3)
        a = train_model(train, val, cfg)
        b = train_model(train, val, cfg)
        for pa, pb in zip(a.model.params(), b.model.params(), strict=True):
            np.testing.assert_array_equal(pa, pb)
        assert [asdict(e) for e in a.history] == [asdict(e) for e in b.history]

    def test_lambda_requires_temporal_model(self):
        _, cfg, train, val, _ = toy_setup(lam=1.0)
        with pytest.raises(ConfigError, match="^lambda > 0 requires --temporal with a fitted model$"):
            train_model(train, val, cfg)

    def test_temporal_loss_reported(self):
        _, cfg, train, val, _ = toy_setup(lam=1.0, epochs=2)
        tm = fit_temporal_model("category", train, cfg)
        result = train_model(train, val, cfg, temporal_model=tm)
        assert all(e.loss_temporal > 0 for e in result.history)
        assert all(
            e.train_loss == pytest.approx(e.loss_ranking + e.loss_temporal)
            for e in result.history
        )

    def test_patience_zero_stops_at_first_non_improvement(self):
        _, cfg, train, val, _ = toy_setup(epochs=15, patience=0)
        result = train_model(train, val, cfg)
        maps = [e.val_map for e in result.history]
        # every epoch except the last strictly improved on the running best
        best = -1.0
        for v in maps[:-1]:
            assert v > best
            best = v
        if len(maps) < 15:
            assert maps[-1] <= best

    def test_best_model_not_last_when_val_degrades(self):
        _, cfg, train, val, _ = toy_setup(epochs=12, patience=2)
        result = train_model(train, val, cfg)
        maps = [e.val_map for e in result.history]
        assert result.best_val_map == max(maps)
        assert result.best_epoch == maps.index(max(maps)) + 1

    def test_val_split_graded_once_and_indexed_every_epoch(self, monkeypatch):
        """Validation grades the val split once per run and, as ``eval`` does,
        builds its index (TF-IDF rows included) with ``build_index`` every epoch."""
        _, cfg, train, val, _ = toy_setup(epochs=4, patience=4)
        graded, indexed, weighted = [], [], []

        def counted(calls, fn):
            def wrapper(*args, **kwargs):
                calls.append(args)
                return fn(*args, **kwargs)
            return wrapper

        for module in (tr, rt):
            monkeypatch.setattr(module, "grade_split", counted(graded, rt.grade_split))
            monkeypatch.setattr(module, "build_index", counted(indexed, rt.build_index))
            monkeypatch.setattr(module, "tfidf_matrix", counted(weighted, cp.tfidf_matrix))
        result = train_model(train, val, cfg)
        assert len(result.history) == 4
        assert all(e.val_map is not None for e in result.history)
        assert len(graded) == 1 and graded[0][0].doc_ids == val.ids
        assert len(indexed) == 4 and all(args[0] is val for args in indexed)
        # the train split's rows once, then the val split's once per epoch
        texts = [args[0] for args in weighted]
        assert len(texts) == 5 and texts[0] is train.text
        assert all(text is val.text for text in texts[1:])

    def test_no_validation_split_runs_all_epochs(self):
        _, cfg, train, _, _ = toy_setup(epochs=3)
        result = train_model(train, None, cfg)
        assert len(result.history) == 3
        assert all(e.val_map is None for e in result.history)
        assert result.best_val_map is None
        assert result.best_epoch == 3

    def test_recency_and_topic_models_train(self):
        _, cfg, train, val, _ = toy_setup(lam=0.5, epochs=2, gibbs_iters=5, num_topics=2)
        for kind in ("recency", "topic"):
            tm = fit_temporal_model(kind, train, cfg)
            result = train_model(train, val, cfg, temporal_model=tm)
            assert len(result.history) == 2

    def test_log_file_is_json_lines(self, tmp_path):
        _, cfg, train, val, _ = toy_setup(epochs=2)
        result = train_model(train, val, cfg)
        path = tmp_path / "log.jsonl"
        write_training_log(result.history, path)
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(result.history)
        entry = json.loads(lines[0])
        assert {"epoch", "train_loss", "loss_ranking", "loss_temporal", "val_map"} <= set(entry)


class TestFitTemporalModel:
    def test_unknown_kind(self):
        _, cfg, train, _, _ = toy_setup()
        with pytest.raises(ValueError, match="kind"):
            fit_temporal_model("linear", train, cfg)

    def test_kinds_match_config(self):
        _, cfg, train, _, _ = toy_setup(gibbs_iters=3, num_topics=2)
        rec = fit_temporal_model("recency", train, cfg)
        assert rec.h_rec == cfg.recency_scale
        kde = fit_temporal_model("category", train, cfg)
        assert kde.bandwidth == cfg.kde_bandwidth
        topic = fit_temporal_model("topic", train, cfg)
        assert topic.num_topics == cfg.num_topics
