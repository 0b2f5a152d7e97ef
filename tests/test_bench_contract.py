"""The benchmark's correctness checks and tracer run against the library as it is.

``bench/checks.py`` re-scores an eval stage through ``tcmr`` itself
(``build_index``, ``split``, ``load_checkpoint`` and more), so a change to
that API breaks the benchmark without failing any other test. This runs a
tiny synth -> train -> eval pipeline and both of its checks. ``bench/tracing.py``
patches functions by name and skips a name it cannot find, so its set of
unresolved targets is pinned too.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from tcmr.cli import main

BENCH = Path(__file__).resolve().parent.parent / "bench"

# traced names that the library no longer defines; their per-layer metrics read 0
STALE_TARGETS = {
    "tcmr.temporal:CategoryKDE.pair_sim", "tcmr.temporal:TopicDensity.pair_sim",
    "tcmr.temporal:RecencyModel.pair_sim", "tcmr.retrieval:shared_label_matrix",
    "tcmr.retrieval:map_at_k", "tcmr.retrieval:ndcg_at_k",
}

SYNTH_ARGS = [
    "synth", "--categories", "3", "--docs-per-category", "30", "--timespan", "10",
    "--modes", "3:1:0.5,7:1:0.5", "--d-image", "6", "--vocab-size", "20",
    "--words-per-doc", "5", "--seed", "4",
]

CONFIG = """
d_subspace = 8
hidden = 16
epochs = 1
batch_size = 16
k_eval = 5
dev_fraction = 0.4
seed = 4
lambda = 0.0
"""


def load_bench(name):
    """The module ``bench/<name>.py``, loaded from its file."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def checks():
    return load_bench("checks")


def test_tracer_targets_resolve():
    """Every traced target resolves but the known stale ones, so a refactor that renames or
    drops a traced function fails here rather than leaving its span silently empty."""
    tracing = load_bench("tracing")
    targets = {target for _, group, _, _ in tracing.TARGETS for target in group}
    assert {target for target in targets if tracing._resolve(target) is None} == STALE_TARGETS
    assert tracing._resolve("tcmr.cli:load_bundle") is not None  # bench/checks.py imports it


def test_checks_pass_on_a_tiny_pipeline(checks, tmp_path, capsys):
    data, cfg = tmp_path / "data", tmp_path / "run.cfg"
    ckpt, log = tmp_path / "model.txnm", tmp_path / "train.jsonl"
    cfg.write_text(CONFIG)
    assert main([*SYNTH_ARGS, "--out", str(data)]) == 0
    assert main(["train", "--corpus", str(data), "--config", str(cfg),
                 "--out", str(ckpt), "--log", str(log)]) == 0
    capsys.readouterr()
    assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(data),
                 "--out", str(tmp_path / "eval"), "--k", "5"]) == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])

    ok, detail = checks.finite_loss(log)
    assert ok, detail
    assert summary["test_documents"] >= 30
    results = checks.oracle_check(ckpt, data, summary, 5, seed=4)
    assert len(results) == 8  # mAP, nDCG, fit and the sampled oracles, both directions
    failed = [(name, detail) for name, ok, detail in results if not ok]
    assert not failed
