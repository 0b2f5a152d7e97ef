import contextlib
import hashlib
import io
import json
import math
import os
import re
import struct
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from corpus_helpers import assert_same_corpus, rewrite_index, row_counts
from tcmr import corpus as cp
from tcmr import retrieval as rt
from tcmr import temporal as tp
from tcmr.cli import main
from tcmr.corpus import load_bundle
from tcmr.projection import ProjectionHalf, ProjectionModel, load_checkpoint, save_checkpoint

TINY_CFG = """
d_subspace = 16
hidden = 32
epochs = 3
batch_size = 32
k_eval = 10
kde_grid_size = 256
gibbs_iters = 3
num_topics = 2
lambda = 1.0
"""

SYNTH_ARGS = [
    "synth", "--categories", "4", "--docs-per-category", "25", "--timespan", "20",
    "--modes", "5:1:0.5,15:1:0.5", "--d-image", "8", "--image-noise", "0.05",
    "--vocab-size", "30", "--words-per-doc", "6", "--concentration", "0.2",
    "--drift", "0", "--seed", "1",
]


@pytest.fixture()
def workspace(tmp_path):
    data = tmp_path / "data"
    assert main(SYNTH_ARGS + ["--out", str(data)]) == 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(TINY_CFG)
    return tmp_path, data, cfg


TXNT_FAULTS = {  # case prefix -> what the reader says
    "slice_map": "slice_map entries must be integers in [0, ",
    "vocabulary": "repeated entry in vocabulary",
    "grid": "the KDE grid needs at least 2 points in non-decreasing order",
    "curve": "KDE curve values outside [0, 1]",
    "categories": "repeated entry in categories",
}


def read_summary(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


class TestSynthAndIngest:
    def test_synth_writes_bundle(self, workspace, capsys):
        tmp_path, data, _ = workspace
        for name in ("manifest.jsonl", "features.bin", "vocab.txt", "columns.bin", "truth.json"):
            assert (data / name).exists()

    def test_ingest_valid_bundle(self, workspace, capsys):
        tmp_path, data, _ = workspace
        out = tmp_path / "data2"
        code = main([
            "ingest", str(data / "manifest.jsonl"), str(data / "features.bin"),
            "--vocab", str(data / "vocab.txt"), "--out", str(out),
        ])
        assert code == 0
        summary = read_summary(capsys)
        assert summary["documents"] == 100
        assert summary["d_image"] == 8

    def test_reingest_is_byte_identical(self, workspace, capsys):
        tmp_path, data, _ = workspace
        out = tmp_path / "data2"
        main([
            "ingest", str(data / "manifest.jsonl"), str(data / "features.bin"),
            "--vocab", str(data / "vocab.txt"), "--out", str(out),
        ])
        for name in ("manifest.jsonl", "features.bin", "vocab.txt", "columns.bin"):
            assert (out / name).read_bytes() == (data / name).read_bytes()

    def test_ingest_of_both_infinities_prints_only_the_error(self, tmp_path):
        """A feature row of +inf and -inf is a data error whose one stderr line names the
        document, with no NumPy warning before it."""
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(json.dumps(
            {"id": "a", "timestamp": 0, "tokens": {"z": 1}, "labels": ["l"], "feat_row": 0}) + "\n")
        cp.write_features(tmp_path / "features.bin", np.array([[np.inf, -np.inf]]))
        env = dict(os.environ, PYTHONPATH=str(Path(cp.__file__).resolve().parents[1]))
        env.pop("PYTHONWARNINGS", None)
        done = subprocess.run(
            [sys.executable, "-m", "tcmr.cli", "ingest", str(manifest),
             str(tmp_path / "features.bin"), "--out", str(tmp_path / "out")],
            env=env, capture_output=True, text=True, timeout=120)
        assert done.returncode == 2
        assert done.stderr == "error: document 'a': non-finite feature value\n"

    def test_missing_features_file_is_data_error(self, workspace):
        tmp_path, data, _ = workspace
        code = main([
            "ingest", str(data / "manifest.jsonl"), str(data / "nope.bin"),
            "--out", str(tmp_path / "x"),
        ])
        assert code == 2

    def test_repeated_feat_row_is_data_error(self, workspace, capsys):
        tmp_path, data, _ = workspace
        lines = (data / "manifest.jsonl").read_text().splitlines(keepends=True)
        row = json.loads(lines[4])
        row["feat_row"] = 1
        lines[4] = json.dumps(row) + "\n"
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(lines))
        code = main(["ingest", str(manifest), str(data / "features.bin"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert "manifest lines 2 and 5 share feat_row 1" in capsys.readouterr().err

    @pytest.mark.parametrize("feat_row", [10**30, 2**63, -(2**63) - 1],
                             ids=["10**30", "2**63", "-2**63-1"])
    def test_feat_row_beyond_int64_is_data_error(self, workspace, capsys, feat_row):
        tmp_path, data, _ = workspace
        lines = (data / "manifest.jsonl").read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace('"feat_row":3}', f'"feat_row":{feat_row}}}')
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(lines))
        code = main(["ingest", str(manifest), str(data / "features.bin"),
                     "--out", str(tmp_path / "x")])
        assert code == 2
        assert capsys.readouterr().err == (f"error: manifest line 4: feat_row {feat_row} outside"
                                           " feature file with 100 rows\n")

    def test_bad_mode_spec_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "d"), "--modes", "5:1"]) == 1

    @pytest.mark.parametrize("flags, fault", [
        pytest.param(["--image-noise", "nan"], "image_noise must be finite and >= 0, got nan",
                     id="noise-nan"),
        pytest.param(["--drift", "nan"], "drift must be finite and >= 0, got nan", id="drift-nan"),
        pytest.param(["--timespan", "inf"], "timespan must be positive and finite, got inf",
                     id="timespan-inf"),
        pytest.param(["--timespan", "nan"], "timespan must be positive and finite, got nan",
                     id="timespan-nan"),
        pytest.param(["--modes", "8:nan:1"], "category 0: mode width must be positive and finite",
                     id="width-nan"),
        pytest.param(["--modes", "8:1.5:nan"], "category 0: mode weights sum to nan, not 1",
                     id="weight-nan"),
        pytest.param(["--concentration", "inf"], "word_concentration must be positive and finite",
                     id="concentration-inf"),
        pytest.param(["--seed", "-3"], "seed must be >= 0, got -3", id="seed-negative"),
        pytest.param(["--categories", "0"],
                     "need at least one category and one document per category", id="categories-0"),
        pytest.param(["--docs-per-category", "0"],
                     "need at least one category and one document per category", id="docs-0"),
        pytest.param(["--d-image", "0"], "d_image must be >= 1", id="d-image-0"),
        # a time so late that its epoch second overflows to infinity
        pytest.param(["--timespan", "1e305", "--modes", "5e304:1:1", "--categories", "1",
                      "--docs-per-category", "3"], "non-finite timestamp", id="epoch-overflow"),
    ])
    def test_non_finite_synth_value_is_data_error(self, tmp_path, capsys, flags, fault):
        assert main(["synth", "--out", str(tmp_path / "d"), *flags]) == 2
        assert capsys.readouterr().err == f"error: {fault}\n"
        assert not (tmp_path / "d").exists()

    def test_negative_mode_weight_names_category(self, tmp_path, capsys):
        assert main(["synth", "--out", str(tmp_path / "d"), "--modes", "5:1:-0.5,15:1:1.5"]) == 2
        err = capsys.readouterr().err
        assert "category 0: mode weights must be non-negative" in err and "Traceback" not in err
        assert not (tmp_path / "d").exists()

    @pytest.mark.parametrize("unit", ["0", "nan", "inf", "-1"])
    def test_bad_time_unit_is_data_error(self, workspace, capsys, unit):
        tmp_path, data, _ = workspace
        code = main(["ingest", str(data / "manifest.jsonl"), str(data / "features.bin"),
                     "--out", str(tmp_path / "x"), "--time-unit", unit])
        err = capsys.readouterr().err
        assert code == 2
        assert "time unit must be positive and finite" in err and "Traceback" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("command", ["ingest", "train"])
    def test_time_unit_too_small_for_the_span_is_data_error(self, workspace, capsys, command):
        """A span that overflows to infinity in time units is a data error naming both."""
        tmp_path, data, cfg = workspace
        span = int(np.ptp(load_bundle(data, cp.DEFAULT_TIME_UNIT).epochs))
        if command == "ingest":
            argv = ["ingest", str(data / "manifest.jsonl"), str(data / "features.bin"),
                    "--time-unit", "1e-310"]
        else:
            cfg.write_text(TINY_CFG + "time_unit = 1e-310\n")
            argv = ["train", "--corpus", str(data), "--config", str(cfg)]
        assert main([*argv, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == (
            f"error: time unit 1e-310 is too small for a {span} s span\n")
        assert not (tmp_path / "x").exists()


class TestNamedFaults:
    """A negative seed, a checkpoint whose dimensions are not the bundle's, and one with a
    width of 0, exit 2 with a message naming the key or both files."""

    @pytest.mark.parametrize("command", [["fit-temporal", "--kind", "recency"], ["train"]],
                             ids=["fit-temporal", "train"])
    def test_negative_seed_flag(self, workspace, capsys, command):
        tmp_path, data, cfg = workspace
        out = tmp_path / "out"
        assert main([*command, "--corpus", str(data), "--config", str(cfg), "--out", str(out),
                     "--seed", "-3"]) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and "Traceback" not in err
        assert not out.exists()

    def test_negative_seed_in_config_file(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        cfg.write_text(TINY_CFG + "seed = -2\n")
        assert main(["fit-temporal", "--kind", "recency", "--corpus", str(data),
                     "--config", str(cfg), "--out", str(tmp_path / "t.txnt")]) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and "Traceback" not in err

    def test_negative_seed_in_checkpoint(self, workspace, capsys):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        save_checkpoint(path, ProjectionModel.initialize(8, 30, 4, 2, seed=0),
                        config={"seed": -2}, seed=-2)
        assert main(["eval", "--checkpoint", str(path), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "seed must be non-negative" in err and "Traceback" not in err

    @pytest.mark.parametrize("command", ["eval", "query"])
    def test_checkpoint_dimensions_differ_from_bundle(self, workspace, capsys, command):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        save_checkpoint(path, ProjectionModel.initialize(6, 20, 4, 2, seed=0), config={}, seed=0)
        extra = ["--out", str(tmp_path / "out")] if command == "eval" else ["--text", "w0001"]
        assert main([command, "--checkpoint", str(path), "--corpus", str(data), *extra]) == 2
        assert capsys.readouterr().err == (
            f"error: {path} was trained on (d_image, d_text) = (6, 20), but the bundle {data}"
            " has (8, 30)\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["eval", "query"])
    @pytest.mark.parametrize("key", ["hidden", "d_subspace"])
    def test_checkpoint_of_zero_width(self, workspace, capsys, key, command):
        """A checkpoint with no hidden or subspace units is malformed data, not a numeric
        failure of the model."""
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        widths = dict({"hidden": 4, "d_subspace": 2}, **{key: 0})
        save_checkpoint(path, ProjectionModel.initialize(8, 30, widths["hidden"],
                                                         widths["d_subspace"], seed=0),
                        config={}, seed=0)
        extra = ["--out", str(tmp_path / "out")] if command == "eval" else ["--text", "w0001"]
        assert main([command, "--checkpoint", str(path), "--corpus", str(data), *extra]) == 2
        assert capsys.readouterr().err == (
            f"error: {path}: dims[{key!r}], an array shape size, must be an int >= 1, got 0\n")


class TestReachedChecks:
    """Checks that a flag or a file reaches, each through ``main``: its exit code and its
    stderr line."""

    @staticmethod
    def untrained_checkpoint(path, config):
        """A checkpoint of the workspace bundle's dimensions, (8, 30), with this config."""
        save_checkpoint(path, ProjectionModel.initialize(8, 30, 4, 2, seed=0), config=config,
                        seed=0)

    def test_temporal_model_of_unknown_kind_tag(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        path = tmp_path / "t.txnt"
        tp.write_temporal_model(path, tp.RecencyModel(h_rec=0.3))
        path.write_bytes(path.read_bytes()[:4] + b"XYZ\0" + path.read_bytes()[8:])
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2
        assert capsys.readouterr().err == f"error: {path}: unknown model kind\n"
        assert not (tmp_path / "m.txnm").exists()

    def test_checkpoint_config_with_an_unknown_key(self, workspace, capsys):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        self.untrained_checkpoint(path, {"bogus": 1})
        assert main(["eval", "--checkpoint", str(path), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == "error: unknown config keys ['bogus']\n"
        assert not (tmp_path / "out").exists()

    def test_config_file_with_an_unknown_ndcg_gain(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        cfg.write_text(TINY_CFG + "ndcg_gain = cubic\n")
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "m.txnm")]) == 2
        assert capsys.readouterr().err == "error: ndcg_gain must be 'linear' or 'exponential'\n"

    def test_topic_fit_whose_counts_overflow_writes_no_model(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        cfg.write_text(TINY_CFG + "kappa = 1e308\n")
        out = tmp_path / "t.txnt"
        assert main(["fit-temporal", "--kind", "topic", "--corpus", str(data),
                     "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == "error: phi holds NaN or infinity\n"
        assert not out.exists()

    @pytest.mark.parametrize("momentum", ["1", "3"])
    def test_config_file_with_momentum_of_one_or_more(self, workspace, capsys, momentum):
        tmp_path, data, cfg = workspace
        cfg.write_text(TINY_CFG + f"momentum = {momentum}\n")
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--out", str(tmp_path / "m.txnm")]) == 2
        assert capsys.readouterr().err == "error: momentum must be in (0, 1)\n"
        assert not (tmp_path / "m.txnm").exists()

    def test_query_k_beyond_the_index_notes_its_size(self, workspace, capsys):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        self.untrained_checkpoint(path, {})
        assert main(["query", "--checkpoint", str(path), "--corpus", str(data),
                     "--text", "w0001", "--k", "1000"]) == 0
        out, err = capsys.readouterr()
        assert len(out.splitlines()) == 100
        assert err == "note: index holds only 100 documents\n"

    def test_unknown_temporal_kind_is_usage_error(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        assert main(["fit-temporal", "--kind", "bogus", "--corpus", "d", "--out", "t"]) == 1
        (err,) = capsys.readouterr().err.splitlines()
        # newer Pythons word the list of choices differently
        assert err.startswith("usage error: argument --kind: invalid choice: 'bogus'")
        assert re.search(r"recency.*category.*topic", err)
        assert list(tmp_path.iterdir()) == []


def _edit_manifest_line(data, i, edit):
    path = data / "manifest.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    row = json.loads(lines[i])
    edit(row)
    lines[i] = json.dumps(row, separators=(",", ":")) + "\n"
    path.write_text("".join(lines))


def _append_manifest_line(data):
    path = data / "manifest.jsonl"
    row = json.loads(path.read_text().splitlines()[-1])
    path.write_text(path.read_text() + json.dumps(dict(row, id="extra", feat_row=100)) + "\n")


def _edit_bytes(path, edit):
    path.write_bytes(edit(path.read_bytes()))


def _vouch_for_a_repeated_token(data):
    """Repeat a vocabulary token and give the index the new vocabulary's digest."""
    _edit_bytes(data / "vocab.txt", lambda b: b + b"w0000\n")
    digest = hashlib.sha256((data / "vocab.txt").read_bytes()).hexdigest()
    rewrite_index(data / "columns.bin", lambda header, arrays: header.update(vocab_sha256=digest))


def _without_index(bundle, copy):
    """A copy of the bundle's manifest, features and vocabulary at ``copy``."""
    copy.mkdir()
    for name in ("manifest.jsonl", "features.bin", "vocab.txt"):
        (copy / name).write_bytes((bundle / name).read_bytes())
    return copy


STALE_INDEX_EDITS = {  # case -> (edit of the bundle directory, exit code, stderr)
    "manifest-line-fault": (
        lambda d: _edit_manifest_line(d, 2, lambda row: row.update(feat_row="2")), 2,
        "error: manifest line 3: feat_row must be an integer\n"),
    "manifest-line-appended": (
        _append_manifest_line, 2,
        "error: manifest line 101: feat_row 100 outside feature file with 100 rows\n"),
    "manifest-relabelled": (
        lambda d: _edit_manifest_line(d, 0, lambda row: row.update(labels=["cat09"])), 0, ""),
    "vocab-reordered": (
        lambda d: _edit_bytes(d / "vocab.txt", lambda b: b"".join(b.splitlines(True)[::-1])),
        0, ""),
    "vocab-token-repeated": (
        lambda d: _edit_bytes(d / "vocab.txt", lambda b: b + b"w0000\n"), 2,
        "error: duplicate vocabulary token 'w0000'\n"),
    "index-vouches-for-a-repeated-token": (
        _vouch_for_a_repeated_token, 2, "error: duplicate vocabulary token 'w0000'\n"),
    "index-truncated": (lambda d: _edit_bytes(d / "columns.bin", lambda b: b[:-5]), 0, ""),
    "index-garbled": (
        lambda d: _edit_bytes(d / "columns.bin", lambda b: b[:12] + b"\xff" * 8 + b[20:]), 0, ""),
    "index-other-version": (
        lambda d: _edit_bytes(d / "columns.bin", lambda b: b[:4] + (2).to_bytes(4, "little")
                              + b[8:]), 0, ""),
    "index-deleted": (lambda d: (d / "columns.bin").unlink(), 0, ""),
}


class TestStaleIndex:
    """A bundle's column index stands in for the manifest only while it reads cleanly, holds
    to the builder's id and vocabulary rules, and both the manifest and the vocabulary file
    hold the bytes it was written beside. Otherwise the manifest is read, with the outcome,
    message and exit code of a bundle that has no index."""

    @pytest.mark.parametrize("case", STALE_INDEX_EDITS)
    def test_manifest_is_read(self, workspace, capsys, case):
        tmp_path, data, cfg = workspace
        edit, code, err = STALE_INDEX_EDITS[case]
        before = load_bundle(data, cp.DEFAULT_TIME_UNIT)
        edit(data)
        bare = _without_index(data, tmp_path / "bare")
        capsys.readouterr()
        runs = []
        for bundle in (data, bare):
            with mock.patch.object(cp, "_read_manifest", wraps=cp._read_manifest) as reads:
                exit_code = main(["fit-temporal", "--kind", "recency", "--corpus", str(bundle),
                                  "--config", str(cfg), "--out", str(tmp_path / "r.txnt")])
            assert reads.call_count == 1
            runs.append((exit_code, *capsys.readouterr()))
        assert runs[0] == runs[1]
        assert runs[0][0] == code and runs[0][2] == err
        if code == 0:
            after = load_bundle(data, cp.DEFAULT_TIME_UNIT)
            assert_same_corpus(after, load_bundle(bare, cp.DEFAULT_TIME_UNIT))
            if not case.startswith("index"):  # the stale index holds another corpus
                with pytest.raises(AssertionError):
                    assert_same_corpus(after, before)

    @pytest.mark.parametrize("case, reads_manifest, err", [
        ("bad-magic", 0, "error: {}/features.bin: bad magic b'XXXX', expected b'TXNF'\n"),
        ("non-finite", 0, "error: document 'doc00003': non-finite feature value\n"),
        ("row-added", 1, "error: manifest has 100 documents but feature file has 101 rows\n"),
        ("row-dropped", 1,
         "error: manifest line 100: feat_row 99 outside feature file with 99 rows\n"),
    ])
    def test_feature_file_faults(self, workspace, capsys, case, reads_manifest, err):
        """The feature file is read and checked as without an index; a row count other than
        the index's leaves the manifest to name the fault."""
        tmp_path, data, cfg = workspace
        features = cp.read_features(data / "features.bin").copy()
        if case == "non-finite":
            features[3, 1] = np.nan
        elif case == "row-added":
            features = np.vstack([features, features[:1]])
        elif case == "row-dropped":
            features = features[:-1]
        cp.write_features(data / "features.bin", features)
        if case == "bad-magic":
            _edit_bytes(data / "features.bin", lambda b: b"XXXX" + b[4:])
        bare = _without_index(data, tmp_path / "bare")
        capsys.readouterr()
        for bundle, reads_expected in ((data, reads_manifest), (bare, 1 - (case == "bad-magic"))):
            with mock.patch.object(cp, "_read_manifest", wraps=cp._read_manifest) as reads:
                assert main(["fit-temporal", "--kind", "recency", "--corpus", str(bundle),
                             "--config", str(cfg), "--out", str(tmp_path / "r.txnt")]) == 2
            assert reads.call_count == reads_expected
            assert capsys.readouterr().err == err.format(bundle)


class TestManifestTraffic:
    """Every stage loads its bundle through the column index that ``synth`` writes: none reads
    the manifest, and ``ingest`` reads the one it is given, once."""

    def test_only_ingest_reads_the_manifest(self, tmp_path):
        data, cfg = tmp_path / "data", tmp_path / "run.cfg"
        cfg.write_text(TINY_CFG)
        temporal, ckpt = tmp_path / "kde.txnt", tmp_path / "m.txnm"
        corpus, model = ["--corpus", str(data), "--config", str(cfg)], ["--checkpoint", str(ckpt)]
        stages = {
            "synth": SYNTH_ARGS + ["--out", str(data)],
            "fit-temporal": ["fit-temporal", "--kind", "category", *corpus, "--out", str(temporal)],
            "train": ["train", *corpus, "--temporal", str(temporal), "--out", str(ckpt)],
            "eval": ["eval", *model, "--corpus", str(data), "--out", str(tmp_path / "out")],
            "query --text": ["query", *model, "--corpus", str(data), "--text", "w0001 w0002"],
            "query --image-row": ["query", *model, "--corpus", str(data), "--image-row", "0"],
            "ingest": ["ingest", str(data / "manifest.jsonl"), str(data / "features.bin"),
                       "--vocab", str(data / "vocab.txt"), "--out", str(tmp_path / "again")],
        }
        reads = {}
        for stage, argv in stages.items():
            with contextlib.redirect_stdout(io.StringIO()), \
                    mock.patch.object(cp, "_read_manifest", wraps=cp._read_manifest) as read:
                assert main(argv) == 0, stage
            reads[stage] = [call.args[0] for call in read.call_args_list]
        assert reads == {**dict.fromkeys(stages, []), "ingest": [str(data / "manifest.jsonl")]}


def write_token_manifest(path, tokens):
    """Three documents, the second holding ``tokens``, with raw (unescaped) non-ASCII text."""
    rows = [{"id": "a", "timestamp": 0, "tokens": {"z": 1}, "labels": ["l"], "feat_row": 0},
            {"id": "b", "timestamp": 86400, "tokens": tokens, "labels": ["l"], "feat_row": 1},
            {"id": "c", "timestamp": 0, "tokens": {"z": 2}, "labels": ["m"], "feat_row": 2}]
    path.write_bytes("".join(json.dumps(row, ensure_ascii=False) + "\n"
                             for row in rows).encode("utf-8"))
    cp.write_features(path.parent / "features.bin", np.zeros((3, 2)))
    return path, path.parent / "features.bin"


class TestEmptyDimensions:
    """A bundle with no feature dimension or no vocabulary is a data error at ingest; training
    on one would stop at its first batch with a degenerate projection."""

    def write_bundle(self, directory, tokens, d_image):
        rows = [{"id": f"d{i}", "timestamp": 86400 * i, "tokens": tokens, "labels": ["l"],
                 "feat_row": i} for i in range(4)]
        (directory / "m.jsonl").write_text("".join(json.dumps(row) + "\n" for row in rows))
        (directory / "f.bin").write_bytes(struct.pack("<4sII", b"TXNF", 4, d_image)
                                          + bytes(16 * d_image))
        return directory / "m.jsonl", directory / "f.bin"

    @pytest.mark.parametrize("tokens, d_image, fault", [
        ({"w": 1}, 0, "{features}: feature dimension is 0"),
        ({}, 2, "the corpus has an empty vocabulary"),
    ], ids=["no-feature-dimension", "no-tokens"])
    def test_ingest_rejects(self, tmp_path, capsys, tokens, d_image, fault):
        manifest, features = self.write_bundle(tmp_path, tokens, d_image)
        assert main(["ingest", str(manifest), str(features), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert f"error: {fault.format(features=features)}\n" == err
        assert not (tmp_path / "b").exists()


class TestTokenFiles:
    """``vocab.txt`` is UTF-8, one token a line, split at "\\n" only."""

    def test_unicode_line_breaks_in_tokens_survive_ingest(self, tmp_path, capsys):
        manifest, features = write_token_manifest(tmp_path / "m.jsonl",
                                                  {"x\u2028y": 1, "p\x0cq": 2})
        assert main(["ingest", str(manifest), str(features), "--out", str(tmp_path / "b")]) == 0
        assert read_summary(capsys)["d_text"] == 3
        bundle = tmp_path / "b"
        assert main(["ingest", str(bundle / "manifest.jsonl"), str(bundle / "features.bin"),
                     "--vocab", str(bundle / "vocab.txt"), "--out", str(tmp_path / "again")]) == 0
        summary = read_summary(capsys)
        assert (summary["d_text"], summary["dropped_tokens"]) == (3, 0)
        assert load_bundle(tmp_path / "again", cp.DEFAULT_TIME_UNIT).vocabulary \
            == ["p\x0cq", "x\u2028y", "z"]
        for name in ("manifest.jsonl", "features.bin", "vocab.txt"):
            assert (tmp_path / "again" / name).read_bytes() == (bundle / name).read_bytes()

    @pytest.mark.parametrize("token", ["a\nb", "a\rb", ""])
    def test_token_a_vocabulary_file_cannot_hold_is_data_error(self, tmp_path, capsys, token):
        manifest, features = write_token_manifest(tmp_path / "m.jsonl", {token: 1})
        assert main(["ingest", str(manifest), str(features), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert f"document 'b': token {token!r} must be a non-empty string without a line break" \
            in err and "Traceback" not in err
        assert not (tmp_path / "b").exists()

    def test_non_utf8_manifest_is_data_error(self, tmp_path, capsys):
        manifest, features = write_token_manifest(tmp_path / "m.jsonl", {"caf\u00e9": 1})
        manifest.write_bytes(manifest.read_bytes().replace("\u00e9".encode("utf-8"), b"\xe9"))
        assert main(["ingest", str(manifest), str(features), "--out", str(tmp_path / "b")]) == 2
        err = capsys.readouterr().err
        assert "'utf-8' codec can't decode byte 0xe9" in err and "Traceback" not in err

    def test_bundle_files_are_utf8_under_an_ascii_locale(self, tmp_path):
        env = dict(os.environ, LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0",
                   PYTHONPATH=str(Path(cp.__file__).resolve().parents[1]))
        env.pop("PYTHONIOENCODING", None)

        def tcmr(*argv):
            return subprocess.run([sys.executable, "-m", "tcmr.cli", *map(str, argv)], env=env,
                                  capture_output=True, text=True, timeout=120)

        manifest, features = write_token_manifest(tmp_path / "m.jsonl", {"caf\u00e9": 1})
        written = tcmr("ingest", manifest, features, "--out", tmp_path / "b")
        assert written.returncode == 0, written.stderr
        assert (tmp_path / "b" / "vocab.txt").read_bytes() == "caf\u00e9\nz\n".encode("utf-8")
        cp.save_corpus(load_bundle(tmp_path / "b", cp.DEFAULT_TIME_UNIT), tmp_path / "utf8")
        bundle = tmp_path / "utf8"
        read = tcmr("ingest", bundle / "manifest.jsonl", bundle / "features.bin",
                    "--vocab", bundle / "vocab.txt", "--out", tmp_path / "again")
        assert read.returncode == 0, read.stderr
        assert json.loads(read.stdout)["dropped_tokens"] == 0
        assert (tmp_path / "again" / "vocab.txt").read_bytes() == (bundle / "vocab.txt").read_bytes()


class TestPipeline:
    def train(self, workspace, seed="1"):
        tmp_path, data, cfg = workspace
        temporal = tmp_path / "kde.txnt"
        assert main([
            "fit-temporal", "--kind", "category", "--corpus", str(data),
            "--config", str(cfg), "--out", str(temporal), "--seed", seed,
        ]) == 0
        ckpt = tmp_path / f"model-{seed}.txnm"
        log = tmp_path / f"log-{seed}.jsonl"
        assert main([
            "train", "--corpus", str(data), "--config", str(cfg), "--seed", seed,
            "--temporal", str(temporal), "--out", str(ckpt), "--log", str(log),
        ]) == 0
        return ckpt, log

    def test_fit_temporal_all_kinds(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        for kind in ("recency", "category", "topic"):
            out = tmp_path / f"{kind}.txnt"
            assert main([
                "fit-temporal", "--kind", kind, "--corpus", str(data),
                "--config", str(cfg), "--out", str(out),
            ]) == 0
            assert out.exists()

    def test_train_lambda_without_temporal_is_data_error(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        code = main([
            "train", "--corpus", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "m.txnm"),
        ])
        assert code == 2
        assert ("error: lambda > 0 requires --temporal with a fitted model"
                in capsys.readouterr().err)

    def test_train_lambda_nan_is_data_error(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        cfg.write_text(TINY_CFG.replace("lambda = 1.0", "lambda = nan"))
        code = main([
            "train", "--corpus", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "m.txnm"),
        ])
        assert code == 2
        assert "lam must be finite" in capsys.readouterr().err
        assert not (tmp_path / "m.txnm").exists()

    def test_eval_checkpoint_config_nan_is_data_error(self, workspace, capsys):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        TestTruncatedBinaries.rewrite_header(
            ckpt, lambda header: dict(header, config=dict(header["config"], eta=float("nan"))))
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "eta must be finite" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("case", ["h_rec-nan", "h_rec-inf", "floor-nan", "curve-nan",
                                      "weight-nan"])
    def test_non_finite_value_is_data_error(self, workspace, capsys, case):
        """NaN or infinity in a TXNT or TXNM file is a data error, not a numeric failure."""
        tmp_path, data, cfg = workspace
        what = case.split("-")[0]
        fault = ("array holds NaN or infinity" if what in ("curve", "weight")
                 else f"{what} must be positive and finite")
        if what == "weight":
            path, _ = self.train(workspace)
            model, config, seed = load_checkpoint(path)
            model = model.copy()  # the loaded tensors are read-only views of the file
            model.image_net.W1[0, 0] = math.nan
            save_checkpoint(path, model, config=config, seed=seed)
            command = ["eval", "--checkpoint", str(path), "--out", str(tmp_path / "out")]
        else:
            kind = {"h_rec": "recency", "floor": "topic", "curve": "category"}[what]
            path = tmp_path / f"{kind}.txnt"
            assert main(["fit-temporal", "--kind", kind, "--corpus", str(data),
                         "--config", str(cfg), "--out", str(path)]) == 0
            if what == "curve":
                kde = tp.read_temporal_model(path)
                # the loaded curves are a read-only view of the file; the model is frozen
                object.__setattr__(kde, "curves", kde.curves.copy())
                kde.curves[0, 1] = math.nan
                tp.write_temporal_model(path, kde)
            else:
                value = math.inf if case.endswith("inf") else math.nan
                TestTruncatedBinaries.rewrite_header(path, lambda h: dict(h, **{what: value}))
            command = ["train", "--config", str(cfg), "--temporal", str(path),
                       "--out", str(tmp_path / "m.txnm")]
        capsys.readouterr()
        assert main(command + ["--corpus", str(data)]) == 2
        err = capsys.readouterr().err
        assert fault in err and "Traceback" not in err

    @pytest.mark.parametrize("case", [
        "slice_map=99", "slice_map=-1", "slice_map=0.5", "vocabulary-repeated",
        "grid-reversed", "grid_size=1", "grid_size=0", "curve*5", "categories-repeated",
    ])
    def test_temporal_model_that_fit_cannot_write_is_data_error(self, workspace, capsys, case):
        tmp_path, data, cfg = workspace
        fault = next(text for prefix, text in TXNT_FAULTS.items() if case.startswith(prefix))
        kind = "topic" if case.startswith(("slice_map", "vocabulary")) else "category"
        path = tmp_path / f"{kind}.txnt"
        assert main(["fit-temporal", "--kind", kind, "--corpus", str(data),
                     "--config", str(cfg), "--out", str(path)]) == 0
        model = tp.read_temporal_model(path)
        force = partial(object.__setattr__, model)  # past the frozen model's constructor rules
        if case.startswith("slice_map="):
            force("slice_map", model.slice_map.astype(np.float64))
            model.slice_map[0] = float(case.split("=")[1])
        elif case == "vocabulary-repeated":
            model.vocabulary[1] = model.vocabulary[0]
        elif case == "grid-reversed":
            force("grid", model.grid[::-1].copy())
        elif case.startswith("grid_size="):
            n = int(case.split("=")[1])
            force("grid", model.grid[:n])
            force("curves", model.curves[:, :n])
        elif case == "curve*5":
            force("curves", 5.0 * model.curves)
        tp.write_temporal_model(path, model)
        if case == "categories-repeated":  # the curves stay, one name appears twice
            TestTruncatedBinaries.rewrite_header(
                path, lambda h: dict(h, categories=h["categories"][:1] + h["categories"][:-1]))
        capsys.readouterr()
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2
        err = capsys.readouterr().err
        assert fault in err and str(path) in err and "Traceback" not in err
        assert not (tmp_path / "m.txnm").exists()

    @pytest.mark.parametrize("kind, edit, fault", [
        pytest.param("recency", lambda h: dict(h, h_rec=True), "h_rec must be positive and finite",
                     id="h_rec=true"),
        pytest.param("category", lambda h: dict(h, bandwidth=True),
                     "bandwidth must be positive and finite", id="bandwidth=true"),
        pytest.param("category", lambda h: dict(h, categories=[1 + i for i in
                                                               range(len(h["categories"]))]),
                     "categories must be a list of strings", id="categories=ints"),
        pytest.param("category", lambda h: dict(h, categories="abcdefgh"[:len(h["categories"])]),
                     "categories must be a list of strings", id="categories=string"),
        pytest.param("topic", lambda h: dict(h, vocabulary=list(range(len(h["vocabulary"])))),
                     "vocabulary must be a list of strings", id="vocabulary=ints"),
        pytest.param("topic", lambda h: dict(h, num_topics=-3), "num_topics must be an int >= 1",
                     id="num_topics=-3"),
        pytest.param("topic", lambda h: dict(h, aggregate="sum"), "unknown aggregate 'sum'",
                     id="aggregate=sum"),
        pytest.param("topic", lambda h: dict(h, time_axis=dict(h["time_axis"], unit=math.inf)),
                     "time unit must be positive and finite", id="unit=inf"),
        pytest.param("topic", lambda h: dict(h, time_axis=dict(h["time_axis"], unit=0)),
                     "time unit must be positive and finite", id="unit=0"),
        pytest.param("topic", lambda h: dict(h, time_axis=dict(h["time_axis"], origin="x")),
                     "origin must be an int", id="origin=x"),
    ])
    def test_temporal_header_value_breaking_a_model_rule(self, workspace, capsys, kind, edit,
                                                         fault):
        """Every rule a fitted model meets holds for a read one; the fault names the file."""
        tmp_path, data, cfg = workspace
        path = tmp_path / f"{kind}.txnt"
        assert main(["fit-temporal", "--kind", kind, "--corpus", str(data),
                     "--config", str(cfg), "--out", str(path)]) == 0
        TestTruncatedBinaries.rewrite_header(path, edit)
        capsys.readouterr()
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2
        err = capsys.readouterr().err
        assert f"{path}: {fault}" in err and "Traceback" not in err
        assert not (tmp_path / "m.txnm").exists()

    def test_topic_model_of_another_time_axis_is_data_error(self, workspace, capsys):
        """A topic model fitted in days does not score a corpus read in hours."""
        tmp_path, data, cfg = workspace
        path = tmp_path / "topic.txnt"
        assert main(["fit-temporal", "--kind", "topic", "--corpus", str(data),
                     "--config", str(cfg), "--out", str(path)]) == 0
        hours = tmp_path / "hours.cfg"
        hours.write_text(TINY_CFG + "time_unit = 3600\n")
        capsys.readouterr()
        assert main(["train", "--corpus", str(data), "--config", str(hours),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2
        err = capsys.readouterr().err
        assert str(path) in err and "Traceback" not in err
        assert "TimeAxis(unit=86400.0" in err and "TimeAxis(unit=3600.0" in err
        assert not (tmp_path / "m.txnm").exists()

    @pytest.mark.parametrize("flag", ["--checkpoint", "--config", "--temporal", "--corpus"])
    def test_unreadable_path_is_data_error(self, workspace, capsys, flag):
        """A directory where a file belongs, or a file where the bundle directory belongs."""
        tmp_path, data, cfg = workspace
        bad = str(cfg) if flag == "--corpus" else str(tmp_path)
        argv = {
            "--checkpoint": ["eval", "--checkpoint", bad, "--corpus", str(data)],
            "--config": ["train", "--config", bad, "--corpus", str(data)],
            "--temporal": ["train", "--config", str(cfg), "--temporal", bad, "--corpus", str(data)],
            "--corpus": ["train", "--config", str(cfg), "--corpus", bad],
        }[flag]
        assert main(argv + ["--out", str(tmp_path / "o")]) == 2
        err = capsys.readouterr().err
        assert bad in err and "Traceback" not in err

    def test_train_writes_checkpoint_and_log(self, workspace, capsys):
        tmp_path, _, _ = workspace
        ckpt, log = self.train(workspace)
        assert ckpt.exists()
        entries = [json.loads(line) for line in log.read_text().splitlines()]
        assert len(entries) >= 1
        summary = read_summary(capsys)
        assert summary["best_epoch"] >= 1

    def test_training_is_bit_deterministic(self, workspace):
        tmp_path, data, cfg = workspace
        ckpt_a, log_a = self.train(workspace)
        ckpt_b = tmp_path / "model-b.txnm"
        log_b = tmp_path / "log-b.jsonl"
        main([
            "train", "--corpus", str(data), "--config", str(cfg), "--seed", "1",
            "--temporal", str(tmp_path / "kde.txnt"), "--out", str(ckpt_b),
            "--log", str(log_b),
        ])
        assert ckpt_a.read_bytes() == ckpt_b.read_bytes()
        assert log_a.read_bytes() == log_b.read_bytes()

    def test_eval_writes_reports(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        ckpt, _ = self.train(workspace)
        out = tmp_path / "eval"
        assert main([
            "eval", "--checkpoint", str(ckpt), "--corpus", str(data),
            "--out", str(out), "--k", "10", "--k-list", "2,5,10",
        ]) == 0
        summary = read_summary(capsys)
        for key in ("map_i2t", "map_t2i", "ndcg_i2t", "ndcg_t2i"):
            assert 0.0 <= summary[key] <= 1.0
        for tag in ("i2t", "t2i"):
            report = json.loads((out / f"report-{tag}.json").read_text())
            assert [k for k, _ in report["scope_curve"]] == [2, 5, 10]
            assert (out / f"scope-{tag}.csv").exists()
            assert (out / f"temporal-{tag}.csv").exists()

    def test_eval_grades_the_split_once_for_both_directions(self, workspace, monkeypatch):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        graded, grade_split = [], rt.grade_split
        monkeypatch.setattr(rt, "grade_split",
                            lambda *args: graded.append(args) or grade_split(*args))
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(data),
                     "--out", str(tmp_path / "eval"), "--k", "10"]) == 0
        assert len(graded) == 1
        for tag in ("i2t", "t2i"):
            assert (tmp_path / "eval" / f"report-{tag}.json").exists()

    def test_eval_is_deterministic(self, workspace):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        out_a, out_b = tmp_path / "eval-a", tmp_path / "eval-b"
        for out in (out_a, out_b):
            main(["eval", "--checkpoint", str(ckpt), "--corpus", str(data),
                  "--out", str(out), "--k", "10"])
        for tag in ("i2t", "t2i"):
            assert (out_a / f"report-{tag}.json").read_bytes() == \
                (out_b / f"report-{tag}.json").read_bytes()

    def test_eval_bytes_do_not_depend_on_blas_threads(self, workspace):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        runs = []
        for threads in ("1", "2"):
            out = tmp_path / f"eval-{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=str(Path(cp.__file__).resolve().parents[1]))
            done = subprocess.run(
                [sys.executable, "-m", "tcmr.cli", "eval", "--checkpoint", str(ckpt),
                 "--corpus", str(data), "--out", str(out), "--k", "10"],
                env=env, capture_output=True, text=True, timeout=120,
            )
            assert done.returncode == 0, done.stderr
            runs.append((done.stdout, {f.name: f.read_bytes() for f in sorted(out.iterdir())}))
        assert len(runs[0][1]) == 6  # a report and two CSVs per direction
        assert runs[0] == runs[1]

    def test_curves(self, workspace, capsys):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        out = tmp_path / "eval"
        assert main([
            "eval", "--checkpoint", str(ckpt), "--corpus", str(data),
            "--out", str(out), "--k-list", "2,4,6",
        ]) == 0
        lines = (out / "scope-i2t.csv").read_text().strip().splitlines()
        assert lines[0] == "k,map"
        assert len(lines) == 4

    def test_query_text(self, workspace, capsys):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        assert main([
            "query", "--checkpoint", str(ckpt), "--corpus", str(data),
            "--text", "w0001 w0002", "--k", "3",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        rows = [json.loads(line) for line in lines[-3:]]
        assert all({"doc_id", "score", "timestamp", "labels"} <= set(r) for r in rows)
        assert rows[0]["score"] >= rows[-1]["score"]

    def test_query_image_row_k1(self, workspace, capsys):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        capsys.readouterr()  # discard pipeline summaries
        assert main([
            "query", "--checkpoint", str(ckpt), "--corpus", str(data),
            "--image-row", "0", "--k", "1",
        ]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 1

    def test_query_projects_only_the_candidate_side(self, workspace, monkeypatch):
        """The query's own network sees its one row; the other sees every candidate."""
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        corpus = load_bundle(data, cp.DEFAULT_TIME_UNIT)
        forward = ProjectionHalf.forward
        rows = {}

        def counting_forward(net, x):
            side = "image" if net.d_in == corpus.d_image else "text"
            rows.setdefault(side, []).append(np.atleast_2d(x).shape[0])
            return forward(net, x)

        monkeypatch.setattr(ProjectionHalf, "forward", counting_forward)
        base = ["query", "--checkpoint", str(ckpt), "--corpus", str(data), "--k", "2"]
        assert main(base + ["--text", "w0001"]) == 0
        assert rows == {"image": [len(corpus)], "text": [1]}
        rows.clear()
        assert main(base + ["--image-row", "3"]) == 0
        assert rows == {"text": [len(corpus)], "image": [1]}

    def test_query_unknown_tokens_prints_diagnostic(self, workspace, capsys):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        code = main([
            "query", "--checkpoint", str(ckpt), "--corpus", str(data),
            "--text", "zebra quagga", "--k", "2",
        ])
        err = capsys.readouterr().err
        assert "training vocabulary" in err
        assert code in (0, 3)

    def test_query_of_tokens_in_every_training_document_warns(self, workspace, capsys):
        """Such tokens have idf 0, so the text row is empty, as for unknown tokens."""
        tmp_path, data, cfg = workspace
        corpus = load_bundle(data, cp.DEFAULT_TIME_UNIT)
        records = [(doc_id, corpus.image[i], dict(row_counts(corpus, i), common=1),
                    int(corpus.epochs[i]), sorted(corpus.label_sets[i]))
                   for i, doc_id in enumerate(corpus.ids)]
        common = tmp_path / "common"
        cp.save_corpus(cp.from_records(records), common)
        cfg.write_text(TINY_CFG.replace("lambda = 1.0", "lambda = 0.0"))
        ckpt = tmp_path / "m.txnm"
        assert main(["train", "--corpus", str(common), "--config", str(cfg),
                     "--out", str(ckpt)]) == 0
        base = ["query", "--checkpoint", str(ckpt), "--corpus", str(common), "--k", "3"]
        outputs = []
        for text in ("common", "common zebra common", "zebra"):
            capsys.readouterr()
            assert main(base + ["--text", text]) == 0
            out, err = capsys.readouterr()
            assert "warning: the query text row is empty" in err
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]
        assert main(base + ["--text", "common w0001 w0002"]) == 0
        assert "warning" not in capsys.readouterr().err

    @pytest.mark.parametrize("command,flags", [
        ("eval", ["--k", "0"]),
        ("eval", ["--k", "-3"]),
        ("eval", ["--k", "ten"]),
        ("eval", ["--k-list", "0,5"]),
        ("eval", ["--k-list", "5,-1"]),
        ("eval", ["--k-list", "-2"]),
        ("eval", ["--k-list", "4,2"]),
        ("eval", ["--k-list", "2,x"]),
        ("eval", ["--k-list", "5,5"]),
        ("query", ["--text", "w0001", "--k", "0"]),
    ])
    def test_bad_k_is_usage_error(self, workspace, command, flags, capsys):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        capsys.readouterr()
        code = main([command, "--checkpoint", str(ckpt), "--corpus", str(data),
                     *(["--out", str(tmp_path / "out")] if command != "query" else []),
                     *flags])
        assert code == 1
        assert "usage error" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_k_list_means_the_defaults(self, workspace):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        outs = [tmp_path / "eval-flag", tmp_path / "eval-default"]
        base = ["eval", "--checkpoint", str(ckpt), "--corpus", str(data)]
        assert main(base + ["--out", str(outs[0]), "--k-list", ""]) == 0
        assert main(base + ["--out", str(outs[1])]) == 0
        report = json.loads((outs[0] / "report-i2t.json").read_text())
        assert [k for k, _ in report["scope_curve"]] == [10, 20, 30, 40, 50]
        for name in ("report-i2t.json", "scope-t2i.csv"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--checkpoint", "m", "--corpus", "d", "--out", "o", "--k-list", "4,2"],
         "usage error: argument --k-list: k list must be strictly increasing, got '4,2'"),
        (["eval", "--checkpoint", "m", "--corpus", "d", "--out", "o", "--k-list", "2,x"],
         "usage error: argument --k-list: bad k 'x'"),
        (["eval", "--checkpoint", "m", "--corpus", "d", "--out", "o", "--k-list", ","],
         "usage error: argument --k-list: empty k list"),
        (["synth", "--out", "d", "--modes", "1:2"],
         "usage error: argument --modes: bad mode spec '1:2', expected center:width:weight"),
        (["synth", "--out", "d", "--modes", "1:2:x"],
         "usage error: argument --modes: bad mode spec '1:2:x'"),
    ], ids=["k-list-order", "k-list-text", "k-list-empty", "modes-fields", "modes-text"])
    def test_bad_value_message_names_the_argument(self, tmp_path, monkeypatch, capsys, argv, message):
        monkeypatch.chdir(tmp_path)
        assert main(argv) == 1
        assert capsys.readouterr().err == message + "\n"
        assert list(tmp_path.iterdir()) == []

    def test_degenerate_projection_is_numeric_failure(self, workspace, capsys):
        tmp_path, data, cfg = workspace
        ckpt, _ = self.train(workspace)
        model, config, seed = load_checkpoint(ckpt)
        model = model.copy()  # the loaded tensors are read-only views of the file
        model.image_net.W2[:] = 0.0
        model.image_net.b2[:] = 0.0
        save_checkpoint(ckpt, model, config=config, seed=seed)
        capsys.readouterr()
        assert main(["eval", "--checkpoint", str(ckpt), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 3
        err = capsys.readouterr().err
        assert err.startswith("numeric failure: degenerate image projection for document 'doc")
        assert "Traceback" not in err

    @pytest.mark.parametrize("row", ["100", "-1"])
    def test_query_image_row_outside_corpus(self, workspace, capsys, row):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        capsys.readouterr()
        assert main(["query", "--checkpoint", str(ckpt), "--corpus", str(data),
                     "--image-row", row]) == 2
        assert capsys.readouterr().err == f"error: --image-row {row} outside corpus\n"

    def test_query_modality_flags_usage_errors(self, workspace):
        tmp_path, data, _ = workspace
        ckpt, _ = self.train(workspace)
        base = ["query", "--checkpoint", str(ckpt), "--corpus", str(data)]
        assert main(base) == 1
        assert main(base + ["--text", "a", "--image-row", "0"]) == 1


class TestTruncatedBinaries:
    """Every proper prefix of a valid TXNM, TXNT or TXNF file is a data error."""

    @staticmethod
    def model_corpus():
        return cp.from_records([
            ("a", np.zeros(2), {"x": 1}, 0, ["l"]),
            ("b", np.zeros(2), {"x": 1, "y": 2}, 86400, ["l"]),
        ])

    @classmethod
    def temporal_models(cls):
        corpus = cls.model_corpus()
        return [
            tp.RecencyModel(h_rec=0.3),
            tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=4),
            tp.fit_topic_densities(corpus, num_topics=1, seed=0, gibbs_iters=1, kappa=0.5,
                                   floor=1e-6, aggregate="geometric"),
        ]

    @staticmethod
    def prefixes(path, cut):
        data = path.read_bytes()
        for n in range(len(data)):
            cut.write_bytes(data[:n])
            yield n

    def test_checkpoint(self, workspace, capsys):
        tmp_path, data, _ = workspace
        path, cut = tmp_path / "m.txnm", tmp_path / "cut.txnm"
        save_checkpoint(path, ProjectionModel.initialize(2, 2, 2, 2, seed=0), config={}, seed=0)
        for n in self.prefixes(path, cut):
            with pytest.raises(ValueError):
                load_checkpoint(cut)
            assert main(["eval", "--checkpoint", str(cut), "--corpus", str(data),
                         "--out", str(tmp_path / "out")]) == 2, n
        assert "Traceback" not in capsys.readouterr().err

    def test_checkpoint_version_unsupported(self, workspace, capsys):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        save_checkpoint(path, ProjectionModel.initialize(2, 2, 2, 2, seed=0), config={}, seed=0)
        raw = path.read_bytes()
        path.write_bytes(raw[:4] + (2).to_bytes(4, "little") + raw[8:])  # the version field
        assert main(["eval", "--checkpoint", str(path), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == f"error: {path}: unsupported checkpoint version 2\n"

    def test_checkpoint_header_without_dims(self, workspace):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        save_checkpoint(path, ProjectionModel.initialize(2, 2, 2, 2, seed=0), config={}, seed=0)
        self.rewrite_header(path, lambda header: {k: v for k, v in header.items() if k != "dims"})
        with pytest.raises(ValueError, match="malformed checkpoint header"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("config, named", [
        ({"epochs": "5"}, "'epochs'"), ({"lam": None}, "'lam'"), ({"seed": True}, "'seed'"),
        ([], "JSON object"),
    ], ids=["epochs-str", "lam-null", "seed-bool", "list"])
    def test_checkpoint_config_of_wrong_type(self, workspace, capsys, config, named):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        save_checkpoint(path, ProjectionModel.initialize(2, 2, 2, 2, seed=0), config={}, seed=0)
        self.rewrite_header(path, lambda header: dict(header, config=config))
        assert main(["eval", "--checkpoint", str(path), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert named in err and "Traceback" not in err

    @pytest.mark.parametrize("value", [2.0, "2", None, -2, True],
                             ids=["float", "str", "null", "negative", "bool"])
    def test_checkpoint_dims_of_wrong_type(self, workspace, capsys, value):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        save_checkpoint(path, ProjectionModel.initialize(2, 2, 2, 2, seed=0), config={}, seed=0)
        self.rewrite_header(path, lambda header: dict(header, dims=dict(header["dims"],
                                                                        d_image=value)))
        with pytest.raises(ValueError, match="array shape"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        assert main(["query", "--checkpoint", str(path), "--corpus", str(data),
                     "--text", "w0001"]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_temporal_models(self, workspace):
        tmp_path, data, cfg = workspace
        path, cut = tmp_path / "t.txnt", tmp_path / "cut.txnt"
        for model in self.temporal_models():
            tp.write_temporal_model(path, model)
            for n in self.prefixes(path, cut):
                with pytest.raises((ValueError, tp.TemporalModelError)):
                    tp.read_temporal_model(cut)
                assert main(["train", "--corpus", str(data), "--config", str(cfg),
                             "--temporal", str(cut), "--out", str(tmp_path / "m.txnm")]) == 2, \
                    (model.kind, n)

    @staticmethod
    def rewrite_header(path, edit):
        """Replace a TXNT or TXNM header with edit(header), keeping the arrays.

        Both formats keep the header's length in bytes 8-12 and the header after it.
        """
        raw = path.read_bytes()
        (hlen,) = struct.unpack("<I", raw[8:12])
        blob = json.dumps(edit(json.loads(raw[12 : 12 + hlen]))).encode()
        path.write_bytes(raw[:8] + struct.pack("<I", len(blob)) + blob + raw[12 + hlen :])

    @pytest.mark.parametrize("kind, key", [
        ("recency", "h_rec"), ("category", "grid_size"), ("category", "version"),
        ("topic", "vocabulary"), ("topic", "time_axis"),
    ])
    def test_temporal_header_without_key(self, workspace, capsys, kind, key):
        tmp_path, data, cfg = workspace
        path = tmp_path / "t.txnt"
        model = next(m for m in self.temporal_models() if m.kind == kind)
        tp.write_temporal_model(path, model)
        self.rewrite_header(path, lambda header: {k: v for k, v in header.items() if k != key})
        # a header without a version is a version 1 header
        match = "version 1 is not supported" if key == "version" else \
            f"malformed {kind} header.*'{key}'"
        with pytest.raises(tp.TemporalModelError, match=match):
            tp.read_temporal_model(path)
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_version_1_temporal_models(self, workspace, capsys):
        """Files written before TXNT version 2, without a version key, exit 2 and say so."""
        tmp_path, data, cfg = workspace
        corpus = self.model_corpus()
        kde = tp.fit_category_kde(corpus, bandwidth=1.0, grid_size=4)
        cats = kde.categories
        # version 1 also stored each category's observed timestamps after the curves
        obs = [corpus.timestamps[[c in labels for labels in corpus.label_sets]] for c in cats]
        v1_files = {
            "recency": (b"REC\x00", {"h_rec": 0.3}, []),
            "category": (b"KDE\x00", {"bandwidth": 1.0, "grid_size": 4, "categories": cats,
                                      "obs_lens": [len(o) for o in obs]},
                         [kde.grid, *kde.curves, *obs]),
        }
        path = tmp_path / "v1.txnt"
        for kind, (tag, header, arrays) in v1_files.items():
            blob = json.dumps(header, sort_keys=True).encode()
            path.write_bytes(b"TXNT" + tag + struct.pack("<I", len(blob)) + blob
                             + b"".join(a.astype("<f8").tobytes() for a in arrays))
            with pytest.raises(tp.TemporalModelError, match="version 1 is not supported"):
                tp.read_temporal_model(path)
            assert main(["train", "--corpus", str(data), "--config", str(cfg),
                         "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2, kind
            err = capsys.readouterr().err
            assert "TXNT version 1 is not supported" in err and "re-run fit-temporal" in err
            assert "Traceback" not in err

    def test_temporal_version_from_the_future(self, workspace):
        tmp_path, data, cfg = workspace
        path = tmp_path / "t.txnt"
        tp.write_temporal_model(path, tp.RecencyModel(h_rec=0.3))
        self.rewrite_header(path, lambda header: dict(header, version=3))
        with pytest.raises(tp.TemporalModelError, match="version 3 is not supported"):
            tp.read_temporal_model(path)
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2

    @pytest.mark.parametrize("header", [[1, 2], "h_rec", 0.3, None])
    def test_temporal_header_not_an_object(self, workspace, header):
        tmp_path, data, cfg = workspace
        path = tmp_path / "t.txnt"
        tp.write_temporal_model(path, tp.RecencyModel(h_rec=0.3))
        self.rewrite_header(path, lambda _: header)
        with pytest.raises(tp.TemporalModelError, match="not a JSON object"):
            tp.read_temporal_model(path)
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2

    def test_temporal_header_of_wrong_types(self, workspace):
        tmp_path, data, cfg = workspace
        path = tmp_path / "t.txnt"
        model = next(m for m in self.temporal_models() if m.kind == "topic")
        tp.write_temporal_model(path, model)
        self.rewrite_header(path, lambda header: dict(header, time_axis=[1, 2, 3]))
        with pytest.raises(tp.TemporalModelError, match="malformed topic header"):
            tp.read_temporal_model(path)
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2

    @pytest.mark.parametrize("kind, key, value", [
        ("category", "grid_size", 4.0), ("category", "grid_size", "4"),
        ("topic", "num_effective_slices", None),
    ])
    def test_temporal_header_value_of_wrong_type(self, workspace, capsys, kind, key, value):
        tmp_path, data, cfg = workspace
        path = tmp_path / "t.txnt"
        tp.write_temporal_model(path, next(m for m in self.temporal_models() if m.kind == kind))
        self.rewrite_header(path, lambda header: dict(header, **{key: value}))
        with pytest.raises(tp.TemporalModelError, match="array shape"):
            tp.read_temporal_model(path)
        assert main(["train", "--corpus", str(data), "--config", str(cfg),
                     "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_temporal_trailing_bytes(self, workspace):
        tmp_path, data, cfg = workspace
        path = tmp_path / "t.txnt"
        for model in self.temporal_models():
            tp.write_temporal_model(path, model)
            path.write_bytes(path.read_bytes() + b"\x00")
            with pytest.raises(tp.TemporalModelError, match="trailing bytes"):
                tp.read_temporal_model(path)
            assert main(["train", "--corpus", str(data), "--config", str(cfg),
                         "--temporal", str(path), "--out", str(tmp_path / "m.txnm")]) == 2, \
                model.kind

    def test_checkpoint_trailing_bytes(self, workspace, capsys):
        tmp_path, data, _ = workspace
        path = tmp_path / "m.txnm"
        save_checkpoint(path, ProjectionModel.initialize(2, 2, 2, 2, seed=0), config={}, seed=0)
        path.write_bytes(path.read_bytes() + b"\x00" * 4)
        with pytest.raises(ValueError, match="trailing bytes"):
            load_checkpoint(path)
        assert main(["eval", "--checkpoint", str(path), "--corpus", str(data),
                     "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_features(self, tmp_path):
        path, cut = tmp_path / "f.bin", tmp_path / "cut.bin"
        cp.write_features(path, np.arange(6.0).reshape(3, 2))
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("")
        for n in self.prefixes(path, cut):
            with pytest.raises(cp.CorpusError):
                cp.read_features(cut)
            assert main(["ingest", str(manifest), str(cut),
                         "--out", str(tmp_path / "out")]) == 2, n


def valid_binaries(directory):
    """(reader, path) of one small valid TXNM, TXNT of each kind, and TXNF file."""
    files = []
    path = directory / "m.txnm"
    save_checkpoint(path, ProjectionModel.initialize(2, 3, 2, 2, seed=0), config={"seed": 0},
                    seed=0)
    files.append((load_checkpoint, path))
    for model in TestTruncatedBinaries.temporal_models():
        path = directory / f"{model.kind}.txnt"
        tp.write_temporal_model(path, model)
        files.append((tp.read_temporal_model, path))
    path = directory / "f.bin"
    cp.write_features(path, np.arange(6.0).reshape(3, 2))
    files.append((cp.read_features, path))
    return files


READER_ERRORS = (ValueError, tp.TemporalModelError, cp.CorpusError)
position = st.one_of(st.integers(0, 40), st.integers(0, 10**6))  # headers come first
mutation = st.one_of(
    st.tuples(st.just("cut"), st.integers(0, 10**6)),
    st.tuples(st.just("append"), st.binary(min_size=1, max_size=16)),
    st.tuples(st.just("flip"), st.lists(st.tuples(position, st.integers(0, 255)),
                                        min_size=1, max_size=4)),
)
json_value = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 10**6), st.floats(), st.text(max_size=3),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2),
)


def header_positions(value, path=()):
    """Key and index paths of every value nested in a JSON header."""
    if isinstance(value, dict):
        items = value.items()
    elif isinstance(value, list):
        items = enumerate(value)
    else:
        return
    for key, child in items:
        yield path + (key,)
        yield from header_positions(child, path + (key,))


class TestFuzzedBinaries:
    """Cut, overwritten or extended binaries raise only the readers' own errors."""

    @classmethod
    def setup_class(cls):
        cls._dir = tempfile.TemporaryDirectory()
        cls.files = [(reader, path.read_bytes(), reader.__name__ + ":" + path.name)
                     for reader, path in valid_binaries(Path(cls._dir.name))]
        cls.target = Path(cls._dir.name) / "mutated"

    @classmethod
    def teardown_class(cls):
        cls._dir.cleanup()

    @staticmethod
    def mutate(data, kind, arg):
        if kind == "cut":
            return data[: arg % len(data)]
        if kind == "append":
            return data + arg
        out = bytearray(data)
        for where, value in arg:
            out[where % len(out)] = value
        return bytes(out)

    @pytest.mark.parametrize("which", range(5))
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(change=mutation)
    def test_readers_raise_only_their_errors(self, which, change):
        reader, data, name = self.files[which]
        self.target.write_bytes(self.mutate(data, *change))
        kind = change[0]
        try:
            reader(self.target)
        except READER_ERRORS:
            return
        assert kind == "flip", f"{name}: {kind} {change[1]!r} was accepted"

    @pytest.mark.parametrize("which", range(4))  # the TXNM and TXNT files; TXNF has no header
    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(where=st.integers(0, 10**6), value=json_value)
    def test_header_value_of_another_type(self, which, where, value):
        """Byte flips seldom leave valid JSON, so this mutation retypes one header value."""
        reader, data, name = self.files[which]
        self.target.write_bytes(data)

        def edit(header):
            positions = list(header_positions(header))
            *outer, last = positions[where % len(positions)]
            parent = header
            for key in outer:
                parent = parent[key]
            assume(type(parent[last]) is not type(value))
            parent[last] = value
            return header

        TestTruncatedBinaries.rewrite_header(self.target, edit)
        try:
            reader(self.target)
        except READER_ERRORS:
            return
        # a TXNT header holds no value that null, a bool, a string, a list or an object
        # may stand in for; a number may stand in for another number
        numeric = isinstance(value, (int, float)) and not isinstance(value, bool)
        assert which == 0 or numeric, f"{name}: a header value retyped to {value!r} was accepted"


# every JSON type, numbers float64 cannot hold exactly, and text float() reads as non-finite
MANIFEST_VALUES = (None, True, "x", [1], {"a": 1}, 10**400, -(10**400), 2**53 + 1, "nan", "inf")
MANIFEST_PLACES = ("id", "timestamp", "tokens", "token count", "labels", "label", "feat_row")


class TestFuzzedManifest:
    """A manifest value retyped to any JSON value makes ingest exit 0 or 2, never 1 or a
    traceback; a bundle that ingest accepts trains for an epoch with exit 0 or 2."""

    @classmethod
    def setup_class(cls):
        cls._dir = tempfile.TemporaryDirectory()
        cls.root = Path(cls._dir.name)
        data = cls.root / "data"
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(data), "--categories", "2",
                         "--docs-per-category", "8", "--d-image", "2", "--vocab-size", "6",
                         "--words-per-doc", "3"]) == 0
        cls.lines = (data / "manifest.jsonl").read_text().splitlines()
        cls.features = data / "features.bin"
        (cls.root / "run.cfg").write_text(
            "d_subspace = 2\nhidden = 4\nepochs = 1\nk_eval = 5\nlambda = 0\n")

    @classmethod
    def teardown_class(cls):
        cls._dir.cleanup()

    def run(self, argv):
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(argv)  # an exception escaping main fails the test
        return code, err.getvalue()

    @settings(max_examples=40, deadline=None, derandomize=True,
              suppress_health_check=[HealthCheck.too_slow])
    @given(line=st.integers(0, 10**6), place=st.sampled_from(MANIFEST_PLACES),
           value=st.sampled_from(MANIFEST_VALUES))
    @example(line=0, place="timestamp", value=10**400)
    @example(line=0, place="token count", value=10**400)
    def test_ingest_then_train_exit_0_or_2(self, line, place, value):
        lines = list(self.lines)
        row = json.loads(lines[line % len(lines)])
        if place == "token count":
            row["tokens"][min(row["tokens"])] = value
        elif place == "label":
            row["labels"][0] = value
        else:
            row[place] = value
        lines[line % len(lines)] = json.dumps(row)
        manifest, bundle = self.root / "manifest.jsonl", self.root / "bundle"
        manifest.write_text("\n".join(lines) + "\n")
        code, err = self.run(["ingest", str(manifest), str(self.features), "--out", str(bundle)])
        assert code in (0, 2), err
        if code == 0:
            code, err = self.run(["train", "--corpus", str(bundle), "--config",
                                  str(self.root / "run.cfg"), "--out", str(self.root / "m.txnm")])
            assert code in (0, 2), err
