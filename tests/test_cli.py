import json
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tcmr import corpus as cp
from tcmr import temporal as tp
from tcmr.cli import main
from tcmr.projection import ProjectionModel, load_checkpoint, save_checkpoint

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


def read_summary(capsys):
    out = capsys.readouterr().out.strip().splitlines()
    return json.loads(out[-1])


class TestSynthAndIngest:
    def test_synth_writes_bundle(self, workspace, capsys):
        tmp_path, data, _ = workspace
        for name in ("manifest.jsonl", "features.bin", "vocab.txt", "truth.json"):
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
        for name in ("manifest.jsonl", "features.bin", "vocab.txt"):
            assert (out / name).read_bytes() == (data / name).read_bytes()

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

    def test_bad_mode_spec_is_usage_error(self, tmp_path):
        assert main(["synth", "--out", str(tmp_path / "d"), "--modes", "5:1"]) == 1


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

    def test_train_lambda_without_temporal_is_data_error(self, workspace):
        tmp_path, data, cfg = workspace
        code = main([
            "train", "--corpus", str(data), "--config", str(cfg),
            "--out", str(tmp_path / "m.txnm"),
        ])
        assert code == 2

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
            tp.fit_topic_densities(corpus, num_topics=1, seed=0, gibbs_iters=1),
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
        cats = sorted(kde.curves)
        # version 1 also stored each category's observed timestamps after the curves
        obs = [np.array([d.timestamp for d in corpus.documents if c in d.labels]) for c in cats]
        v1_files = {
            "recency": (b"REC\x00", {"h_rec": 0.3}, []),
            "category": (b"KDE\x00", {"bandwidth": 1.0, "grid_size": 4, "categories": cats,
                                      "obs_lens": [len(o) for o in obs]},
                         [kde.grid, *(kde.curves[c] for c in cats), *obs]),
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
