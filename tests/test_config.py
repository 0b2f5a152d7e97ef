import math
from dataclasses import fields

import pytest

from tcmr.config import ConfigError, RunConfig, config_from_dict, load_config, parse_config_text


class TestRunConfig:
    def test_paper_defaults(self):
        cfg = RunConfig()
        assert cfg.d_subspace == 100
        assert cfg.hidden == 1024
        assert cfg.margin == 1.0
        assert cfg.lam == 1.0
        assert cfg.eta == 5e-3
        assert cfg.momentum == 0.9
        assert cfg.decay == 1e-6
        assert cfg.epochs == 25
        assert cfg.batch_size == 64
        assert cfg.kde_bandwidth == 1.0
        assert cfg.recency_scale == 0.3
        assert cfg.num_topics == 10
        assert cfg.k_eval == 50
        assert cfg.dev_fraction == 0.9
        assert cfg.val_fraction == 0.15

    def test_validation(self):
        with pytest.raises(ConfigError):
            RunConfig(eta=0.0)
        with pytest.raises(ConfigError):
            RunConfig(lam=-1.0)
        with pytest.raises(ConfigError):
            RunConfig(dev_fraction=1.5)
        with pytest.raises(ConfigError):
            RunConfig(topic_aggregate="sum")

    @pytest.mark.parametrize("name", [f.name for f in fields(RunConfig) if f.type == "float"])
    def test_non_finite_float_fields_rejected(self, name):
        for value in (math.nan, math.inf, -math.inf):
            with pytest.raises(ConfigError, match=f"{name} must be finite"):
                RunConfig(**{name: value})

    def test_non_finite_file_values_rejected(self):
        values = parse_config_text("lambda = nan\neta = inf\nkde_bandwidth = nan")
        assert math.isnan(values["lam"])  # the parser reads them; the config rejects them
        with pytest.raises(ConfigError, match="must be finite"):
            RunConfig(**values)

    def test_snapshot_nan_rejected(self):
        with pytest.raises(ConfigError, match="eta must be finite"):
            config_from_dict({"eta": math.nan})

    def test_round_trip_dict(self):
        cfg = RunConfig(lam=2.0, seed=7)
        again = config_from_dict(cfg.to_dict())
        assert again == cfg

    def test_snapshot_int_for_float_field(self):
        assert config_from_dict({"lam": 2, "eta": 1}) == RunConfig(lam=2.0, eta=1.0)

    @pytest.mark.parametrize("values, key", [
        ({"epochs": "5"}, "epochs"), ({"epochs": 5.0}, "epochs"), ({"seed": True}, "seed"),
        ({"lam": None}, "lam"), ({"lam": "1.0"}, "lam"), ({"eta": False}, "eta"),
        ({"topic_aggregate": 1}, "topic_aggregate"),
    ])
    def test_snapshot_of_wrong_type_rejected(self, values, key):
        with pytest.raises(ConfigError, match=f"config key '{key}'"):
            config_from_dict(values)

    @pytest.mark.parametrize("values", [[], "lam", None, 3])
    def test_snapshot_not_an_object_rejected(self, values):
        with pytest.raises(ConfigError, match="JSON object"):
            config_from_dict(values)


class TestParsing:
    def test_key_value_lines(self):
        values = parse_config_text("epochs = 10\nlambda = 0.5  # temporal weight\n\n# comment\n")
        assert values == {"epochs": 10, "lam": 0.5}

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("learning_rate = 0.1")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config_text("epochs = soon")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("epochs")

    def test_file_plus_overrides(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 10\nlambda = 0.5\n")
        cfg = load_config(path, overrides={"epochs": 3, "seed": 9})
        assert cfg.epochs == 3
        assert cfg.lam == 0.5
        assert cfg.seed == 9

    def test_none_overrides_ignored(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 10\n")
        cfg = load_config(path, overrides={"seed": None})
        assert cfg.seed == 0
