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
    "eval.stdout": "f932c88e5a35dd7ff04830bc0c6396962df80b36c574492f7032b21e527d5281",
    "eval-cutoffs.stdout": "f932c88e5a35dd7ff04830bc0c6396962df80b36c574492f7032b21e527d5281",
    "eval-cutoffs/report-i2t.json": "95ab0303c8b3b9e0a4d8dbe194eea19fe4fa6b887b63e1bac897bd05c8af0d1d",
    "eval-cutoffs/report-t2i.json": "c9ce69400c5dff7ed5e4b3401ad3771057ca4fe8ccf39543007590f22612b738",
    "eval-cutoffs/scope-i2t.csv": "48f2c631853392ad37d60178443491880e081244b7024d16f5d9374bc03a60d6",
    "eval-cutoffs/scope-t2i.csv": "a50a60a7f4cdc662a124e439b8b62fdbaf3906f7147baaeee7d83c65e8a7a721",
    "eval-cutoffs/temporal-i2t.csv": "f03c0f592cf656658ca9c07453dde5ac4fa2551d3c8b229b7c616ae579f1d74b",
    "eval-cutoffs/temporal-t2i.csv": "49b4763db5b2cbbc511a16348a77122bcb4987de8bfeffd362d77a856a50b58e",
    "eval/report-i2t.json": "ffa15edda0fd7a8155ebd173ceea7a1182f2d69e487075806451de9783b22bba",
    "eval/report-t2i.json": "cbaebee1aab595ae1a458e89a271a45e9aa19bb7f6a35a957c32d1f723825605",
    "eval/scope-i2t.csv": "e7a166d00eaaa8d73c9a6f39b1c25b67e6adba0e9aafece9eb40f2bb9b60bee5",
    "eval/scope-t2i.csv": "4767f8d74fd3b41e4e7e53aa60b84a59bd3ae7700b2aec3233b9d30c017b88a6",
    "eval/temporal-i2t.csv": "f03c0f592cf656658ca9c07453dde5ac4fa2551d3c8b229b7c616ae579f1d74b",
    "eval/temporal-t2i.csv": "49b4763db5b2cbbc511a16348a77122bcb4987de8bfeffd362d77a856a50b58e",
    "fit-category.stdout": "83f47fdbf72048630769468eab9a676d659590e28a2e655ac5fb478d2d0d7948",
    "fit-mixed.stdout": "b90edb85b18f5013cf1e4d587db22ea528447cf7d296cab060247a13663e5cda",
    "fit-recency.stdout": "40589658ac4e6c5882bcd3ed987762ec2cdbdf3309212147c6be719036c907ae",
    "fit-topic.stdout": "b90edb85b18f5013cf1e4d587db22ea528447cf7d296cab060247a13663e5cda",
    "ingest.stdout": "bfa1603a68b5a8b4edd945c834a18abd9f7421298b8b510c5f1de0bef74fdc5e",
    "mixed.jsonl": "f7c9bbf515b25d3c8a1f328ed779c4b14d774fb3a7b5e1d52fa5b88fdc3348c3",
    "mixed.txnm": "e02e981968e43b8df4efa3c5eebbc8e56d4a6731daba9ee280311cb49e310d25",
    "mixed.txnt": "8e9c74b84a5c0d11587afa8698d45b466b3d9120f740aa5fbd8a2e20df3185a8",
    "mixed/columns.bin": "fc7119f6c22659ad9756a669e4f4618a37df4beac1ba16c97c0d77d691fd3bd1",
    "mixed/features.bin": "d387c9007e97a97bf5af0af309718f63e192b5ed3623038104d69f59c88158fc",
    "mixed/manifest.jsonl": "f08c2862121b4a652b8af90c5d030ccc47fc5ffde737af58e728100a70ecaef1",
    "mixed/vocab.txt": "f7bf77ea74628c18ba5cebe47fb113db782fb8606ce477debb60ef33ab1bf4b7",
    "model.txnm": "607ad25e924d28b01ad3b755c012c3749070000e453185dd465270be426c7054",
    "model0.txnm": "a49d0dc95df43f6fdbdad30bffe2c3fd462342a9a0e6b29af158c87d25beb013",
    "query-image.stdout": "31713ad10056de77add62347aec75feb64bf0b2e68a4252e8734ebcbb4de5aec",
    "query-text.stdout": "1e39b0b32b4b852f1cc46896e4d0b1f0efc8a6ec0030f66c68b387111bbe89dc",
    "recency.txnt": "b5f525362757b277fa969c97c6319c2806b381dfa7b1428290d1ff894b6420f8",
    "synth.stdout": "8e86cca68d5434f169764c2ec67b3d6c1d5227f38c1f92dac7aabd0b13f36ff5",
    "topic.txnt": "a88f980321b7859a81055e8cc48aa1288755be99f224bc8beca84915708e350b",
    "train-mixed.stdout": "2a3dc981c83b89a984dfdaa87ec85d719fad8516ee2df07b746c33615e76f19f",
    "train.jsonl": "722192ea49bee8910234e17b1a3b7b042e8d5be064f156a877fefdf0d2e3bffc",
    "train.stdout": "4c77ae4d1e357a4cb7090709236a6f38f3e9aa339a038fe3e889a0111489c069",
    "train0.jsonl": "b2afa5f0201c8c4f5f59940aa48671b48fdd831f28583522f360b466d057f979",
    "train0.stdout": "9d55d3466d721570061ef68ffec7c994d86a8f3d20c983c306449d74b3bb8a88",
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
    pin("mixed/manifest.jsonl", "mixed/features.bin", "mixed/vocab.txt", "mixed/columns.bin")
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
