"""Every output byte of a tiny pipeline, pinned.

One synth bundle (the size of ``test_bench_contract``'s) goes through
``fit-temporal`` for each kind, ``train`` with lambda > 0 and lambda = 0,
``eval`` with the default cut-offs and with a repeated and an oversized
one, and both kinds of ``query``; a second bundle is ingested with a
vocabulary file out of token order, then fitted with the topic model and
trained on it. The SHA-256 of every file written and of every stage's
stdout is pinned, as ``test_synth.PINNED`` pins bundles: a change means the
draws, the arithmetic or the writers changed. Paths printed on stdout are
replaced by their names relative to the run directory before hashing.
"""

import hashlib
import io
from contextlib import redirect_stdout

import pytest

from tcmr.cli import main

SYNTH_ARGS = [
    "synth", "--categories", "3", "--docs-per-category", "30", "--timespan", "10",
    "--modes", "3:1:0.5,7:1:0.5", "--d-image", "6", "--vocab-size", "20",
    "--words-per-doc", "5", "--seed", "4",
]

CONFIG = """
d_subspace = 8
hidden = 16
epochs = 2
batch_size = 16
k_eval = 5
kde_grid_size = 64
gibbs_iters = 3
num_topics = 2
seed = 4
lambda = {lam}
"""

PINNED = {  # SHA-256 of each output
    "category.txnt": "6ef1b496a47e968861542adc39e6ecf063dc489b999bb03a41c3b1c819e90333",
    "eval.stdout": "042c73d5aaf9515311a0c727ad5b0ded1e1caae86bd72a8b5da25cfde4e35f4b",
    "eval-cutoffs.stdout": "042c73d5aaf9515311a0c727ad5b0ded1e1caae86bd72a8b5da25cfde4e35f4b",
    "eval-cutoffs/report-i2t.json": "0b9b4750f3564a99967760d0a69b76471e7e3db50c8c6d618a3fa4a0ffefda2b",
    "eval-cutoffs/report-t2i.json": "f586c2482b43906ade507f8836bed05ad3f074ce51b2b31bbca6a6cd9e14365e",
    "eval-cutoffs/scope-i2t.csv": "bd1a0bf366dded9b7aef12fb2d146f6be3e6944a9b7a13247e6916fe2a3b487c",
    "eval-cutoffs/scope-t2i.csv": "7b74eac41a2cbfae6c54aabe3d9416739b67ac29d8244bd8bdf88445f1d00f21",
    "eval-cutoffs/temporal-i2t.csv": "f03c0f592cf656658ca9c07453dde5ac4fa2551d3c8b229b7c616ae579f1d74b",
    "eval-cutoffs/temporal-t2i.csv": "c8d94973c9fbb393c6203699ecccffa82662e67de26b11786493acd1bfeccec1",
    "eval/report-i2t.json": "84a4ca66cc39ac806ab4e7347c707b5e9281aa768d8c82897468ea42bddee0f4",
    "eval/report-t2i.json": "7c9082eed0ce4b9ae4b3ac598b3430264b1d864722f31795b753668562e6a3f0",
    "eval/scope-i2t.csv": "39ad23d4cc0b517c15b99c60f370ec4a0b824e5901e1864577f91f35b23a0953",
    "eval/scope-t2i.csv": "64a73b3ac7c223f5fea20bb421ce3741bea1f6d31dbbabed228902bd3fa6df14",
    "eval/temporal-i2t.csv": "f03c0f592cf656658ca9c07453dde5ac4fa2551d3c8b229b7c616ae579f1d74b",
    "eval/temporal-t2i.csv": "c8d94973c9fbb393c6203699ecccffa82662e67de26b11786493acd1bfeccec1",
    "fit-category.stdout": "83f47fdbf72048630769468eab9a676d659590e28a2e655ac5fb478d2d0d7948",
    "fit-mixed.stdout": "b90edb85b18f5013cf1e4d587db22ea528447cf7d296cab060247a13663e5cda",
    "fit-recency.stdout": "40589658ac4e6c5882bcd3ed987762ec2cdbdf3309212147c6be719036c907ae",
    "fit-topic.stdout": "b90edb85b18f5013cf1e4d587db22ea528447cf7d296cab060247a13663e5cda",
    "ingest.stdout": "bfa1603a68b5a8b4edd945c834a18abd9f7421298b8b510c5f1de0bef74fdc5e",
    "mixed.jsonl": "7b5bd32ec93d1aee68be8bf212dc3e5393077c8a97ac011aeeaa0569bc585de5",
    "mixed.txnm": "5dc0e4c84f599a4c4691531b3adf169b07c1b09f12e45367c6e5cb75644237cb",
    "mixed.txnt": "8e9c74b84a5c0d11587afa8698d45b466b3d9120f740aa5fbd8a2e20df3185a8",
    "mixed/features.bin": "d387c9007e97a97bf5af0af309718f63e192b5ed3623038104d69f59c88158fc",
    "mixed/manifest.jsonl": "f08c2862121b4a652b8af90c5d030ccc47fc5ffde737af58e728100a70ecaef1",
    "mixed/vocab.txt": "f7bf77ea74628c18ba5cebe47fb113db782fb8606ce477debb60ef33ab1bf4b7",
    "model.txnm": "db687415eabf638be54612efa5044b850d27568d25be9070bc1dc2cfb2cd4309",
    "model0.txnm": "be332554f6fed033d9a4614f10e0f84ee4a1ae87d0cf4f7969d7452012a199c2",
    "query-image.stdout": "01f676876dd45ce7b316146235241e1408b6a7f4f5aace28a2a61433db0f6322",
    "query-text.stdout": "ba589024a7eb5301fa58ac364b709fb2206e7be4e31f9c567842689ba79b410a",
    "recency.txnt": "b5f525362757b277fa969c97c6319c2806b381dfa7b1428290d1ff894b6420f8",
    "synth.stdout": "8e86cca68d5434f169764c2ec67b3d6c1d5227f38c1f92dac7aabd0b13f36ff5",
    "topic.txnt": "a88f980321b7859a81055e8cc48aa1288755be99f224bc8beca84915708e350b",
    "train-mixed.stdout": "ec4e40eaead60be55bd9215182746b29d6cc4c347c814251b6e7997ef79ea31f",
    "train.jsonl": "3f13907e18a8b2c84a7924db50090e9837307cf4105c260b95c7b1bd17ff6dcb",
    "train.stdout": "e392c52bc66de7b28f134022e3aa1ca1a75152aa492830f288cfb75a9be1b4e2",
    "train0.jsonl": "24f81626f9f15b8755c665e8392e062db0e0c19726b584005aee4cb518ab73c1",
    "train0.stdout": "c5e9ab7f2d5975d98d4f484b47eb027f69397f824c8ca92bd8785ce65e5a4fe5",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.fixture(scope="module")
def digests(tmp_path_factory):
    """Run every stage once; map each output (a file or a stage's stdout) to its SHA-256."""
    root = tmp_path_factory.mktemp("pipeline")
    out = {}

    def run(name, *argv):
        buffer = io.StringIO()
        with redirect_stdout(buffer):
            assert main([str(a) for a in argv]) == 0, name
        out[f"{name}.stdout"] = sha256(buffer.getvalue().replace(f"{root}/", "").encode())

    def pin(*names):
        for name in names:
            out[name] = sha256((root / name).read_bytes())

    data = root / "data"
    for lam in ("1.0", "0.0"):
        (root / f"lam{lam}.cfg").write_text(CONFIG.format(lam=lam))
    cfg, cfg0 = root / "lam1.0.cfg", root / "lam0.0.cfg"
    run("synth", *SYNTH_ARGS, "--out", data)
    for kind in ("recency", "category", "topic"):
        run(f"fit-{kind}", "fit-temporal", "--kind", kind, "--corpus", data, "--config", cfg,
            "--out", root / f"{kind}.txnt")
        pin(f"{kind}.txnt")
    run("train", "train", "--corpus", data, "--config", cfg, "--temporal", root / "category.txnt",
        "--out", root / "model.txnm", "--log", root / "train.jsonl")
    run("train0", "train", "--corpus", data, "--config", cfg0, "--out", root / "model0.txnm",
        "--log", root / "train0.jsonl")
    pin("model.txnm", "train.jsonl", "model0.txnm", "train0.jsonl")
    # eval-cutoffs repeats k among the scope cut-offs and cuts above the 9-document test split
    for name, options in (("eval", ()), ("eval-cutoffs", ("--k", 5, "--k-list", "2,5,10"))):
        run(name, "eval", "--checkpoint", root / "model.txnm", "--corpus", data, *options,
            "--out", root / name)
        pin(*(f"{name}/{kind}-{tag}.{ext}" for tag in ("i2t", "t2i")
              for kind, ext in (("report", "json"), ("scope", "csv"), ("temporal", "csv"))))
    run("query-text", "query", "--checkpoint", root / "model.txnm", "--corpus", data,
        "--text", "w0003 w0011 w0011 unknown", "--k", "7")
    run("query-image", "query", "--checkpoint", root / "model.txnm", "--corpus", data,
        "--image-row", "5", "--k", "7")

    # a vocabulary out of token order: CSR column order and token-string order differ
    vocab = (data / "vocab.txt").read_text().split()
    (root / "shuffled.txt").write_text("".join(f"{tok}\n" for tok in vocab[7:] + vocab[:7][::-1]))
    mixed = root / "mixed"
    run("ingest", "ingest", data / "manifest.jsonl", data / "features.bin",
        "--vocab", root / "shuffled.txt", "--out", mixed)
    pin("mixed/manifest.jsonl", "mixed/features.bin", "mixed/vocab.txt")
    run("fit-mixed", "fit-temporal", "--kind", "topic", "--corpus", mixed, "--config", cfg,
        "--out", root / "mixed.txnt")
    run("train-mixed", "train", "--corpus", mixed, "--config", cfg,
        "--temporal", root / "mixed.txnt", "--out", root / "mixed.txnm",
        "--log", root / "mixed.jsonl")
    pin("mixed.txnt", "mixed.txnm", "mixed.jsonl")
    return out


def test_every_output_is_pinned(digests):
    assert sorted(digests) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_output_bytes(digests, name):
    assert digests[name] == PINNED[name]
