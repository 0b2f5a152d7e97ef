"""Run configuration: one flat key-value file drives every stage.

Files hold ``key = value`` lines (``#`` comments allowed); a ``--seed``
flag overrides the file's seed. Unknown keys are rejected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from pathlib import Path

from .corpus import DEFAULT_TIME_UNIT


class ConfigError(ValueError):
    pass


# file key -> field name
_ALIASES = {"lambda": "lam"}


@dataclass
class RunConfig:
    # subspace and objective
    d_subspace: int = 100
    hidden: int = 1024
    margin: float = 1.0
    lam: float = 1.0
    epsilon: float = 1e-8
    negatives_per_anchor: int = 1
    # optimizer and schedule
    eta: float = 5e-3
    momentum: float = 0.9
    decay: float = 1e-6
    epochs: int = 25
    batch_size: int = 64
    patience: int = 3
    # temporal models
    kde_bandwidth: float = 1.0
    kde_grid_size: int = 2048
    recency_scale: float = 0.3
    num_topics: int = 10
    gibbs_iters: int = 40
    kappa: float = 0.5
    topic_floor: float = 1e-6
    topic_aggregate: str = "geometric"
    # data handling
    seed: int = 0
    time_unit: float = DEFAULT_TIME_UNIT
    dev_fraction: float = 0.9
    val_fraction: float = 0.15
    # evaluation
    k_eval: int = 50
    ndcg_gain: str = "linear"
    eval_bins: int = 10

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        positive = (
            "d_subspace", "hidden", "margin", "epsilon", "negatives_per_anchor",
            "eta", "momentum", "epochs", "batch_size", "kde_bandwidth",
            "kde_grid_size", "recency_scale", "num_topics", "gibbs_iters",
            "kappa", "topic_floor", "time_unit", "k_eval", "eval_bins",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ConfigError(f"{name} must be positive")
        for name in ("lam", "decay", "patience", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"{name} must be non-negative")
        if self.epsilon > 1e-6:
            raise ConfigError("epsilon must be in (0, 1e-6]")
        if not 0.0 < self.dev_fraction <= 1.0:
            raise ConfigError("dev_fraction must be in (0, 1]")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ConfigError("val_fraction must be in [0, 1)")
        if self.topic_aggregate not in ("geometric", "product"):
            raise ConfigError("topic_aggregate must be 'geometric' or 'product'")
        if self.ndcg_gain not in ("linear", "exponential"):
            raise ConfigError("ndcg_gain must be 'linear' or 'exponential'")


def _field_types():
    return {f.name: f.type for f in fields(RunConfig)}


def _coerce(name: str, raw: str):
    parse = {"int": int, "float": float, "str": str}[_field_types()[name]]
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"config key {name!r}: cannot parse {raw!r}") from None


def parse_config_text(text: str) -> dict:
    """Parse flat key-value lines into a field dict; unknown keys rejected."""
    known = _field_types()
    values, lines = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected 'key = value'")
        key, raw = (part.strip() for part in line.split("=", 1))
        key = _ALIASES.get(key, key)
        if key not in known:
            raise ConfigError(f"config line {lineno}: unknown key {key!r}")
        if key in lines:
            raise ConfigError(f"config lines {lines[key]} and {lineno} both set {key!r}")
        values[key], lines[key] = _coerce(key, raw), lineno
    return values


def load_config(path=None, seed: int | None = None) -> RunConfig:
    """Build a RunConfig from an optional file; a ``seed`` that is not None replaces the file's."""
    values = parse_config_text(Path(path).read_text()) if path else {}
    if seed is not None:
        values["seed"] = seed
    return RunConfig(**values)


# field type -> the JSON value types a checkpoint snapshot may give it (bool excluded)
_SNAPSHOT_TYPES = {"int": (int,), "float": (int, float), "str": (str,)}


def config_from_dict(values: dict) -> RunConfig:
    """Rebuild a RunConfig from a checkpoint's config snapshot, a JSON object."""
    if not isinstance(values, dict):
        raise ConfigError("config snapshot must be a JSON object")
    known = _field_types()
    unknown = set(values) - set(known)
    if unknown:
        raise ConfigError(f"unknown config keys {sorted(unknown)}")
    for key, value in values.items():
        if isinstance(value, bool) or not isinstance(value, _SNAPSHOT_TYPES[known[key]]):
            raise ConfigError(f"config key {key!r}: expected {known[key]}, got {value!r}")
    return RunConfig(**values)
