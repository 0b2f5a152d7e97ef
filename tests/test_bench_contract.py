"""The benchmark's correctness checks run against the library as it is.

``bench/checks.py`` re-scores an eval stage through ``tcmr`` itself
(``build_index``, ``split``, ``load_checkpoint`` and more), so a change to
that API breaks the benchmark without failing any other test. This runs a
tiny synth -> train -> eval pipeline and both of its checks.
"""

import importlib.util
import json
from pathlib import Path

import pytest

from tcmr.cli import main

BENCH_CHECKS = Path(__file__).resolve().parent.parent / "bench" / "checks.py"

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


@pytest.fixture(scope="module")
def checks():
    spec = importlib.util.spec_from_file_location("bench_checks", BENCH_CHECKS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
