"""Workload definitions: the synthetic corpus and run config of each job.

Every workload runs the same CLI stages (synth, fit-temporal, train, eval);
the workloads differ in corpus shape and config so that a different layer
dominates each one. The stages in ``setup`` make the inputs of the timed
job and count toward ``setup_s``.

Epoch counts are fixed below the patience (patience 5, at most 6 epochs),
so early stopping never ends a run and every seed does the same amount of
training work.
"""

from __future__ import annotations

from dataclasses import dataclass

STAGES = ("synth", "fit-temporal", "train", "eval")

# BASE_CFG of the acceptance experiments (tests/test_acceptance.py), less
# gibbs_iters, which only topic-words uses.
_BASE = {
    "d_subspace": 64,
    "hidden": 256,
    "batch_size": 64,
    "k_eval": 50,
    "patience": 5,
    "kde_grid_size": 1024,
}


@dataclass(frozen=True)
class Workload:
    name: str
    synth: tuple[str, ...]  # `tcmr synth` flags other than --out and --seed
    config: dict  # run.cfg keys; the seed is added per run
    kind: str  # `fit-temporal --kind`
    setup: tuple[str, ...] = ("synth",)

    def config_text(self, seed: int) -> str:
        items = dict(self.config, seed=seed)
        return "".join(f"{k} = {v}\n" for k, v in items.items())


def _modes(modes) -> str:
    return ",".join(f"{c!r}:{w!r}:{p!r}" for c, w, p in modes)


# The acceptance suite's central-claim corpus (CENTRAL_SPEC, 4 x 700 docs)
# and config, at 6 of its 25 epochs: KDE pair scoring inside batch planning
# and the hinge loops dominate; no Gibbs sampling; eval is 280 docs.
CENTRAL_KDE = Workload(
    name="central-kde",
    synth=(
        "--categories", "4", "--docs-per-category", "700", "--timespan", "30",
        "--modes", _modes([(8.0, 1.0, 0.5), (22.0, 1.0, 0.5)]),
        "--d-image", "16", "--image-noise", "0.2", "--vocab-size", "60",
        "--words-per-doc", "6", "--concentration", "0.25", "--drift", "1.0",
    ),
    config=dict(_BASE, epochs=6, kde_bandwidth=3.0, **{"lambda": 2.0}),
    kind="category",
)

# Granularity-A-style drifting-word corpus (8 x 250 docs, 20 words each):
# collapsed Gibbs sampling dominates, and the temporal layer answers pair
# queries from cached word profiles instead of KDE interpolation. Gibbs
# sweeps (40 -> 10) and epochs (20 -> 5) are cut by the same factor so the
# fit/train ratio of the full-size job is kept.
TOPIC_WORDS = Workload(
    name="topic-words",
    synth=(
        "--categories", "8", "--docs-per-category", "250", "--timespan", "30",
        "--modes", _modes([(2.5 + 5.0 * i, 1.2, 1.0 / 6.0) for i in range(6)]),
        "--d-image", "16", "--image-noise", "0.2", "--vocab-size", "60",
        "--words-per-doc", "20", "--concentration", "0.2", "--drift", "1.0",
    ),
    config=dict(
        _BASE, epochs=5, kde_bandwidth=1.0, num_topics=10, gibbs_iters=10,
        **{"lambda": 2.0},
    ),
    kind="topic",
)

# 8 x 300 docs with dev_fraction 0.2: a 1,920-doc test split. Set-up fits
# and trains a lambda = 0 checkpoint on the small train split, so the
# (n, n) retrieval matrices of eval set eval_s, pipeline_s and peak RSS,
# while objective and temporal work stays small and inside set-up.
EVAL_LARGE = Workload(
    name="eval-large",
    synth=(
        "--categories", "8", "--docs-per-category", "300", "--timespan", "30",
        "--modes", _modes([(8.0, 1.5, 0.5), (22.0, 1.5, 0.5)]),
        "--d-image", "16", "--image-noise", "0.2", "--vocab-size", "60",
        "--words-per-doc", "8", "--concentration", "0.2", "--drift", "1.0",
    ),
    config=dict(_BASE, epochs=5, kde_bandwidth=3.0, dev_fraction=0.2, **{"lambda": 0.0}),
    kind="category",
    setup=("synth", "fit-temporal", "train"),
)

WORKLOADS = {w.name: w for w in (CENTRAL_KDE, TOPIC_WORDS, EVAL_LARGE)}
