import gc
import io
import json
import math
import re
import struct
import tempfile
import tracemalloc
from collections import Counter
from contextlib import redirect_stdout
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_helpers import (assert_same_corpus, reference_document_fault, reference_load_corpus,
                            rewrite_index, row_counts)
from tcmr import corpus as cp
from tcmr.cli import main
from tcmr.corpus import bundle_paths, load_bundle


def write_manifest(path, rows):
    with open(path, "w") as fh:
        for row in rows:
            fh.write(json.dumps(row) + "\n")


def make_bundle(tmp_path, rows, feats, vocab=None):
    manifest = tmp_path / "manifest.jsonl"
    features = tmp_path / "features.bin"
    write_manifest(manifest, rows)
    cp.write_features(features, np.asarray(feats, dtype=np.float64))
    vocab_path = None
    if vocab is not None:
        vocab_path = tmp_path / "vocab.txt"
        vocab_path.write_text("".join(t + "\n" for t in vocab))
    return manifest, features, vocab_path


def assert_builders_reject(tmp_path, rows, feats, match):
    """load_corpus on the bundle and from_records on the same documents both
    raise a CorpusError matching ``match``."""
    feats = np.asarray(feats, dtype=np.float64)
    manifest, features, _ = make_bundle(tmp_path, rows, feats)
    with pytest.raises(cp.CorpusError, match=match):
        cp.load_corpus(manifest, features)
    with pytest.raises(cp.CorpusError, match=match):
        cp.from_records(records_of(rows, feats))


def records_of(rows, feats):
    """``from_records`` tuples of manifest rows over the feature rows ``feats``."""
    return [(row["id"], feats[row["feat_row"]], row["tokens"], row["timestamp"], row["labels"])
            for row in rows]


DAY = 86400


def three_doc_rows():
    return [
        {"id": "a", "timestamp": 0, "tokens": {"cat": 1, "dog": 2}, "labels": ["pets"], "feat_row": 0},
        {"id": "b", "timestamp": DAY, "tokens": {"dog": 1}, "labels": ["pets", "park"], "feat_row": 1},
        {"id": "c", "timestamp": 3 * DAY, "tokens": {"tree": 4}, "labels": ["park"], "feat_row": 2},
    ]


class TestLoad:
    def test_three_valid_docs(self, tmp_path):
        feats = np.arange(12, dtype=np.float64).reshape(3, 4)
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), feats)
        corpus = cp.load_corpus(manifest, features)
        assert len(corpus) == 3
        assert corpus.d_image == 4
        assert corpus.categories == ["park", "pets"]
        assert corpus.image.dtype == np.float32
        np.testing.assert_array_equal(corpus.image, feats)

    def test_vocabulary_is_sorted_token_union(self, tmp_path):
        rows = [
            {"id": "x", "timestamp": 0, "tokens": {"b": 1, "a": 1}, "labels": ["l"], "feat_row": 0},
            {"id": "y", "timestamp": 10, "tokens": {"c": 2, "a": 1}, "labels": ["l"], "feat_row": 1},
        ]
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((2, 2)))
        corpus = cp.load_corpus(manifest, features)
        assert corpus.vocabulary == ["a", "b", "c"]
        assert corpus.d_text == 3

    def test_non_numeric_timestamp_names_line(self, tmp_path):
        rows = three_doc_rows()
        rows[1]["timestamp"] = "not-a-number"
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 4)))
        with pytest.raises(cp.CorpusError, match="line 2"):
            cp.load_corpus(manifest, features)

    def test_numeric_timestamp_string_accepted(self, tmp_path):
        rows = three_doc_rows()
        rows[0]["timestamp"] = str(rows[0]["timestamp"])
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 4)))
        corpus = cp.load_corpus(manifest, features)
        assert corpus.timestamps[0] == 0.0

    def test_empty_labels_rejected(self, tmp_path):
        rows = three_doc_rows()
        rows[2]["labels"] = []
        assert_builders_reject(tmp_path, rows, np.zeros((3, 4)), "'c': empty label set")

    def test_empty_label_string_rejected(self, tmp_path):
        rows = three_doc_rows()
        rows[1]["labels"] = ["pets", ""]
        assert_builders_reject(tmp_path, rows, np.zeros((3, 4)), "'b': labels must be non-empty")

    def test_zero_token_count_rejected(self, tmp_path):
        rows = three_doc_rows()
        rows[0]["tokens"]["cat"] = 0
        assert_builders_reject(tmp_path, rows, np.zeros((3, 4)), "'cat' must be a positive integer")

    def test_row_count_mismatch(self, tmp_path):
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), np.zeros((4, 4)))
        with pytest.raises(cp.CorpusError, match="3 documents"):
            cp.load_corpus(manifest, features)

    def test_non_finite_feature(self, tmp_path):
        feats = np.zeros((3, 4))
        feats[1, 2] = np.nan
        assert_builders_reject(tmp_path, three_doc_rows(), feats, "'b': non-finite")

    def test_finite_row_whose_float32_sum_overflows(self, tmp_path):
        """A row of finite float32 values is finite even where its float32 sum is not; a value
        that rounds to infinity as a float32 is not, and its document is named."""
        feats = np.zeros((3, 2))
        feats[1] = [3e38, 3e38]
        assert feats[1].sum() > np.finfo(np.float32).max
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), feats)
        for corpus in (cp.load_corpus(manifest, features),
                       cp.from_records(records_of(three_doc_rows(), feats))):
            assert corpus.image.dtype == np.float32
            np.testing.assert_array_equal(corpus.image, feats.astype(np.float32))
        feats[1] = [1e39, 0.0]
        with pytest.raises(cp.CorpusError, match="^document 'b': non-finite feature value$"):
            cp.from_records(records_of(three_doc_rows(), feats))

    def test_row_of_both_infinities_names_its_document(self, tmp_path):
        """A row holding +inf and -inf sums to NaN; the builder, the manifest reader and the
        column index path each name its document, and NumPy warns of nothing (the suite turns
        warnings into errors)."""
        feats = np.zeros((3, 2))
        feats[1] = [np.inf, -np.inf]
        match = "^document 'b': non-finite feature value$"
        assert_builders_reject(tmp_path, three_doc_rows(), feats, match)
        bundle = tmp_path / "bundle"
        cp.save_corpus(cp.from_records(records_of(three_doc_rows(), np.zeros((3, 2)))), bundle)
        cp.write_features(bundle / "features.bin", feats)
        with (mock.patch.object(cp, "_read_manifest", side_effect=AssertionError),
              pytest.raises(cp.CorpusError, match=match)):
            load_bundle(bundle, cp.DEFAULT_TIME_UNIT)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "features.bin"
        path.write_bytes(struct.pack("<4sII", b"JUNK", 0, 0))
        with pytest.raises(cp.CorpusError, match="magic"):
            cp.read_features(path)

    def test_vocab_file_drops_unknown_tokens(self, tmp_path):
        manifest, features, vocab = make_bundle(
            tmp_path, three_doc_rows(), np.zeros((3, 4)), vocab=["dog", "cat"]
        )
        corpus = cp.load_corpus(manifest, features, vocab)
        assert corpus.vocabulary == ["dog", "cat"]  # file order authoritative
        assert corpus.dropped_token_count == 4  # "tree" x4
        assert row_counts(corpus, 2) == {}

    def test_duplicate_id_rejected(self, tmp_path):
        rows = three_doc_rows()
        rows[1]["id"] = "a"
        assert_builders_reject(tmp_path, rows, np.zeros((3, 4)), "duplicate document id 'a'")

    @pytest.mark.parametrize("drop, named", [
        (("id",), "id"), (("feat_row",), "feat_row"), (("labels", "timestamp"), "timestamp"),
    ])
    def test_missing_key_named_in_key_order(self, tmp_path, drop, named):
        rows = three_doc_rows()
        for key in drop:
            del rows[1][key]
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 2)))
        with pytest.raises(cp.CorpusError, match=f"^manifest line 2: missing key '{named}'$"):
            cp.load_corpus(manifest, features)

    def test_repeated_feat_row_names_both_lines(self, tmp_path):
        rows = three_doc_rows()
        rows[2]["feat_row"] = 0
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 4)))
        with pytest.raises(cp.CorpusError, match="manifest lines 1 and 3 share feat_row 0"):
            cp.load_corpus(manifest, features)

    def test_time_axis(self, tmp_path):
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), np.zeros((3, 4)))
        corpus = cp.load_corpus(manifest, features)
        axis = corpus.time_axis
        assert axis.origin == 0
        assert axis.num_slices == 4  # span of 3 days
        assert corpus.timestamps.tolist() == [0.0, 1.0, 3.0]
        assert axis.slice_of(3.0) == 3

    def test_slice_of_floors_and_clamps_an_array(self):
        axis = cp.TimeAxis(unit=1.0, origin=0, num_slices=4)
        t = [-0.5, 0.0, 0.99, 1.0, 2.5, 3.999, 4.0, 1e300]
        got = axis.slice_of(np.array(t))
        assert got.dtype == np.int64
        assert got.tolist() == [0, 0, 0, 1, 2, 3, 3, 3]
        assert got.tolist() == [min(max(math.floor(x), 0), 3) for x in t]  # the scalar rule

    @pytest.mark.parametrize("field, value", [
        ("unit", 0), ("unit", -1.0), ("unit", math.nan), ("unit", math.inf), ("unit", True),
        ("unit", "1"), ("origin", "x"), ("origin", 0.0), ("origin", True), ("num_slices", 2.0),
        ("num_slices", True), ("num_slices", 0),
    ])
    def test_time_axis_checks_itself(self, field, value):
        fault = ("time unit must be positive and finite" if field == "unit"
                 else "origin must be an int and num_slices an int >= 1")
        with pytest.raises(cp.CorpusError, match=fault):
            cp.TimeAxis(**dict({"unit": 1.0, "origin": 0, "num_slices": 2}, **{field: value}))

    @pytest.mark.parametrize("unit", [0.0, -1.0, math.nan, math.inf])
    def test_time_unit_must_be_positive_and_finite(self, tmp_path, unit):
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), np.zeros((3, 4)))
        with pytest.raises(cp.CorpusError, match="time unit must be positive and finite"):
            cp.load_corpus(manifest, features, time_unit=unit)


_DROP = object()


def _row_b(**changes):
    """Manifest line 2 of ``three_doc_rows`` as JSON text, with keys changed or dropped."""
    row = dict(three_doc_rows()[1], **changes)
    return json.dumps({k: v for k, v in row.items() if v is not _DROP})


def _manifest_fault(line2, n_rows=3):
    """Load the three-document bundle with manifest line 2 replaced by ``line2``."""
    def load(tmp_path):
        lines = [json.dumps(row) for row in three_doc_rows()]
        lines[1] = line2
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text("".join(line + "\n" for line in lines))
        cp.write_features(tmp_path / "features.bin", np.zeros((n_rows, 2)))
        cp.load_corpus(manifest, tmp_path / "features.bin")
    return load


def write_bytes(path, data):
    path.write_bytes(data)
    return path


def _duplicate_vocabulary(tmp_path):
    cp.load_corpus(*make_bundle(tmp_path, three_doc_rows(), np.zeros((3, 2)),
                                vocab=["dog", "cat", "tree", "dog"]))


def _ragged_features(tmp_path):
    cp.from_records([("a", np.zeros(2), {"x": 1}, 0, ["l"]),
                     ("b", np.zeros(3), {"x": 1}, 0, ["l"])])


def _split_of(n, dev, val):
    def split(tmp_path):
        records = [(f"d{i}", np.zeros(2), {"w": 1}, 0, ["l"]) for i in range(max(n, 1))]
        cp.split(cp.from_records(records).take(range(n)), cp.SplitSpec(dev, val, 0))
    return split


def _records_with_id(doc_id):
    """Build a corpus whose second document has ``doc_id``, which a loader would reject."""
    return lambda tmp_path: cp.from_records(
        [(i, np.zeros(2), {"x": 1}, 0, ["l"]) for i in ("a", doc_id)])


REJECTIONS = {  # case -> (action on a tmp_path, the whole message)
    "timestamp-bool": (_manifest_fault(_row_b(timestamp=True)),
                       "manifest line 2: timestamp must be numeric"),
    "timestamp-list": (_manifest_fault(_row_b(timestamp=[1])),
                       "manifest line 2: timestamp must be numeric"),
    "timestamp-null": (_manifest_fault(_row_b(timestamp=None)),
                       "manifest line 2: timestamp must be numeric"),
    "timestamp-text": (_manifest_fault(_row_b(timestamp="soon")),
                       "manifest line 2: non-numeric timestamp 'soon'"),
    "timestamp-nan-text": (_manifest_fault(_row_b(timestamp="nan")),
                           "manifest line 2: non-finite timestamp"),
    "timestamp-NaN": (_manifest_fault(_row_b(timestamp=math.nan)),
                      "manifest line 2: non-finite timestamp"),
    "timestamp-overflow": (_manifest_fault(_row_b().replace("86400", "1e999")),
                           "manifest line 2: non-finite timestamp"),
    "invalid-json": (_manifest_fault('{"id": '),
                     "manifest line 2: invalid JSON (Expecting value)"),
    "not-an-object": (_manifest_fault("[1, 2]"), "manifest line 2: expected a JSON object"),
    "id-empty": (_manifest_fault(_row_b(id="")), "manifest line 2: id must be a non-empty string"),
    "id-number": (_manifest_fault(_row_b(id=7)), "manifest line 2: id must be a non-empty string"),
    "tokens-list": (_manifest_fault(_row_b(tokens=["dog"])),
                    "manifest line 2: tokens must be an object"),
    "labels-text": (_manifest_fault(_row_b(labels="pets")),
                    "manifest line 2: labels must be a list"),
    "feat_row-text": (_manifest_fault(_row_b(feat_row="1")),
                      "manifest line 2: feat_row must be an integer"),
    "feat_row-bool": (_manifest_fault(_row_b(feat_row=True)),
                      "manifest line 2: feat_row must be an integer"),
    "feat_row-float": (_manifest_fault(_row_b(feat_row=1.0)),
                       "manifest line 2: feat_row must be an integer"),
    "feat_row-past-end": (_manifest_fault(_row_b(feat_row=3)),
                          "manifest line 2: feat_row 3 outside feature file with 3 rows"),
    "feat_row-negative": (_manifest_fault(_row_b(feat_row=-1)),
                          "manifest line 2: feat_row -1 outside feature file with 3 rows"),
    # a line with two faults names the first the reader checks
    "missing-key-before-id": (_manifest_fault(_row_b(id="", labels=_DROP)),
                              "manifest line 2: missing key 'labels'"),
    "id-before-timestamp": (_manifest_fault(_row_b(id=7, timestamp=True)),
                            "manifest line 2: id must be a non-empty string"),
    "timestamp-before-tokens": (_manifest_fault(_row_b(timestamp="soon", tokens=[])),
                                "manifest line 2: non-numeric timestamp 'soon'"),
    "tokens-before-labels": (_manifest_fault(_row_b(tokens=[], labels={})),
                             "manifest line 2: tokens must be an object"),
    "labels-before-feat_row": (_manifest_fault(_row_b(labels={}, feat_row=None)),
                               "manifest line 2: labels must be a list"),
    "line-before-feature-file": (_manifest_fault(_row_b(feat_row=9, labels=[]), n_rows=1),
                                 "manifest line 2: feat_row 9 outside feature file with 1 rows"),
    "duplicate-vocabulary": (_duplicate_vocabulary, "duplicate vocabulary token 'dog'"),
    "ragged-features": (_ragged_features,
                        "document 'b': feature vectors must share one dimension"),
    "empty-corpus": (lambda tmp_path: cp.from_records([]), "cannot build an empty corpus"),
    "records-id-empty": (_records_with_id(""), "document id '' must be a non-empty string"),
    "records-id-not-a-string": (_records_with_id(7), "document id 7 must be a non-empty string"),
    "features-without-dimension": (
        lambda tmp_path: cp.from_records([("a", np.zeros(0), {"x": 1}, 0, ["l"])]),
        "image features need at least one dimension"),
    "feature-file-without-dimension": (
        lambda tmp_path: cp.read_features(write_bytes(tmp_path / "f.bin",
                                                      struct.pack("<4sII", b"TXNF", 3, 0))),
        "{tmp_path}/f.bin: feature dimension is 0"),
    "no-tokens": (lambda tmp_path: cp.from_records([("a", np.zeros(2), {}, 0, ["l"])]),
                  "the corpus has an empty vocabulary"),
    "empty-vocabulary": (
        lambda tmp_path: cp.from_records([("a", np.zeros(2), {"x": 1}, 0, ["l"])], vocabulary=[]),
        "the corpus has an empty vocabulary"),
    "split-empty": (_split_of(0, 0.9, 0.15), "cannot split an empty corpus"),
    "split-no-train": (_split_of(2, 0.5, 0.9), "train split would be empty"),
    "split-no-test": (_split_of(1, 0.9, 0.15), "test split would be empty"),
    "split-no-val": (_split_of(10, 0.9, 0.01), "validation split would be empty"),
}


class TestRejections:
    @pytest.mark.parametrize("case", REJECTIONS)
    def test_message(self, tmp_path, case):
        action, message = REJECTIONS[case]
        with pytest.raises(cp.CorpusError) as caught:
            action(tmp_path)
        assert str(caught.value) == message.format(tmp_path=tmp_path)

    def test_blank_lines_are_skipped_and_counted(self, tmp_path):
        rows = three_doc_rows()
        text = "\n".join(json.dumps(row) for row in rows).replace("\n", "\n\n  \n", 1)
        manifest = tmp_path / "manifest.jsonl"
        manifest.write_text(text + "\n")
        cp.write_features(tmp_path / "features.bin", np.zeros((3, 2)))
        assert cp.load_corpus(manifest, tmp_path / "features.bin").ids == ["a", "b", "c"]
        manifest.write_text(text.replace('"feat_row": 2', '"feat_row": 5') + "\n")
        with pytest.raises(cp.CorpusError, match="^manifest line 5: feat_row 5 outside"):
            cp.load_corpus(manifest, tmp_path / "features.bin")


class TestExactIntegers:
    """Timestamps and token counts lie within +-2**53, where float64 holds every integer."""

    @pytest.mark.parametrize("key, value", [
        pytest.param("timestamp", 10**400, id="timestamp-10**400"),
        pytest.param("timestamp", -(10**400), id="timestamp--10**400"),
        pytest.param("timestamp", 2**60 + 1, id="timestamp-2**60+1"),
        pytest.param("timestamp", 2**53 + 1, id="timestamp-2**53+1"),
        pytest.param("timestamp", 1e300, id="timestamp-1e300"),
        pytest.param("tokens", {"dog": 10**400}, id="count-10**400"),
        pytest.param("tokens", {"dog": 2**53 + 1}, id="count-2**53+1"),
    ])
    def test_out_of_range_rejected(self, tmp_path, key, value):
        rows = three_doc_rows()
        rows[1][key] = value
        fault = ("document 'b': timestamp outside [-2**53, 2**53]" if key == "timestamp" else
                 "document 'b': token count for 'dog' must be a positive integer of at most 2**53")
        assert_builders_reject(tmp_path, rows, np.zeros((3, 4)), f"^{re.escape(fault)}$")

    def test_bounds_accepted_exactly(self, tmp_path):
        rows = three_doc_rows()
        rows[0]["timestamp"], rows[1]["timestamp"] = -(2**53), 2**53
        rows[2]["tokens"] = {"tree": 2**53}
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 4)))
        corpus = cp.load_corpus(manifest, features)
        assert corpus.time_axis.origin == -(2**53)
        assert row_counts(corpus, 2) == {"tree": 2**53}


class TestRoundTrip:
    def test_save_then_load_is_equal(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(3, 4))
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), feats)
        corpus = cp.load_corpus(manifest, features)

        cp.save_corpus(corpus, tmp_path / "out")
        again = manifest_load(tmp_path / "out")
        assert_same_corpus(again, corpus)
        # features survive bit-identically through float32 on disk
        np.testing.assert_array_equal(again.image, corpus.image)

    def test_canonical_write_is_idempotent(self, tmp_path):
        manifest, features, _ = make_bundle(
            tmp_path, three_doc_rows(), np.random.default_rng(1).normal(size=(3, 4))
        )
        corpus = cp.load_corpus(manifest, features)
        cp.save_corpus(corpus, tmp_path / "b1")
        cp.save_corpus(manifest_load(tmp_path / "b1"), tmp_path / "b2")
        for first, second in zip(bundle_paths(tmp_path / "b1"), bundle_paths(tmp_path / "b2")):
            assert first.read_bytes() == second.read_bytes()


    @pytest.mark.parametrize("epochs", [
        (0, 2**53 - 1, 3 * DAY),
        (-(2**53), 2**53 - 1, 1234567890123457),
        (-(2**53), 2**53, 0),
    ])
    def test_epochs_far_from_the_origin_are_written_back(self, tmp_path, epochs):
        """An epoch 2**51 s or more from the origin is not given back by its float offset."""
        rows = three_doc_rows()
        for row, epoch in zip(rows, epochs):
            row["timestamp"] = epoch
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 2)))
        cp.save_corpus(cp.load_corpus(manifest, features), tmp_path / "b1")
        m1 = tmp_path / "b1" / "manifest.jsonl"
        written = [json.loads(line)["timestamp"] for line in m1.read_text().splitlines()]
        assert written == list(epochs)
        cp.save_corpus(manifest_load(tmp_path / "b1"), tmp_path / "b2")
        assert m1.read_bytes() == (tmp_path / "b2" / "manifest.jsonl").read_bytes()


def _lines():
    """The three-document manifest as canonical JSON lines, without line ends."""
    return [json.dumps(row, separators=(",", ":")) for row in three_doc_rows()]


def _unterminated(line):
    """``line`` cut inside its "id" string."""
    return line[:line.index('"id":') + 7]


READER_CASES = {  # case -> whole manifest text, written as UTF-8 bytes
    "crlf": "\r\n".join(_lines()) + "\r\n",
    "lone-cr": "\r".join(_lines()) + "\r",
    "mixed-endings": _lines()[0] + "\r\n" + _lines()[1] + "\r" + _lines()[2] + "\n",
    "leading-space-and-tab": "".join(" \t" + line + "\n" for line in _lines()),
    "trailing-space-and-tab": "".join(line + "\t  \n" for line in _lines()),
    "leading-crlf-space": "".join("  " + line + " \r\n" for line in _lines()),
    "blank-lines": "\n\n" + "\n \n\t\n".join(_lines()) + "\n\n  \n",
    "formfeed-and-fs-lines": "\x0c\n" + "\n\x1c\n".join(_lines()) + "\n\x1c\x0c \n",
    "formfeed-before-value": _lines()[0] + "\n\x0c" + _lines()[1] + "\n" + _lines()[2] + "\n",
    "u2028-in-token": "\n".join(_lines()).replace('"dog"', '"d\u2028o\x85g\u2029"') + "\n",
    "key-order-and-spacing": "".join(
        json.dumps(dict(reversed(row.items())), indent=None, separators=(" ,  ", " : ")) + "\n"
        for row in three_doc_rows()),
    "bom": "\ufeff" + "\n".join(_lines()) + "\n",
    "bom-on-blank-line": "\ufeff\n" + "\n".join(_lines()) + "\n",
    "extra-data": _lines()[0] + "\n" + _lines()[1] + " " + _lines()[1] + "\n" + _lines()[2] + "\n",
    "no-final-newline": "\n".join(_lines()),
    "truncated-last-line": "\n".join(_lines()[:2]) + "\n" + _unterminated(_lines()[2]),
    "truncated-middle-line": "\n".join([_lines()[0], _unterminated(_lines()[1]), _lines()[2]]),
    "escaped-u2028-and-nan": "\n".join(_lines()).replace('"dog"', '"d\\u2028g"')
                             .replace('"timestamp":86400', '"timestamp":NaN') + "\n",
}


def _read(reader, manifest, features):
    """The corpus ``reader`` builds, or the type and whole message of what it raises."""
    try:
        return reader(manifest, features)
    except Exception as exc:  # any fault must be the reference's, word for word
        return type(exc), str(exc)


def assert_same_reading(tmp_path, text, n_rows=3):
    manifest, features = tmp_path / "manifest.jsonl", tmp_path / "features.bin"
    manifest.write_bytes(text.encode("utf-8"))
    cp.write_features(features, np.arange(2.0 * n_rows).reshape(n_rows, 2))
    got = _read(cp.load_corpus, manifest, features)
    want = _read(reference_load_corpus, manifest, features)
    if isinstance(want, cp.Corpus):
        assert isinstance(got, cp.Corpus), got
        assert_same_corpus(got, want)
    else:
        assert got == want
    return got


_PAST_END, _REPEAT = object(), object()
LINE_FAULTS = [  # (key, value) put on a valid line, _DROP removing the key; (None, text) for a line
    *[(key, _DROP) for key in ("id", "timestamp", "tokens", "labels", "feat_row")],
    ("id", 7), ("id", ""), ("timestamp", True), ("timestamp", "soon"), ("timestamp", None),
    ("tokens", ["w"]), ("labels", "l"), ("feat_row", "0"), ("feat_row", True),
    ("feat_row", 0.0), ("feat_row", -1), ("feat_row", _PAST_END), ("feat_row", _REPEAT),
    (None, '{"id": '), (None, "[1, 2]"), (None, "null"),
]


def _manifest_line(i, order, fault):
    """Line i of a manifest whose line j names feat_row ``order[j]``, with one per-line fault
    (None for none). A repeated feat_row is that of line i + 2 (mod the line count)."""
    row = {"id": f"d{i}", "timestamp": DAY * i, "tokens": {f"w{order[i]}": 1 + i},
           "labels": [f"l{i % 2}"], "feat_row": order[i]}
    key, value = fault or (None, None)
    if key is None and value is not None:
        return value
    if value is _DROP:
        del row[key]
    elif value is _PAST_END:
        row[key] = len(order)
    elif value is _REPEAT:
        row[key] = order[(i + 2) % len(order)]
    elif key is not None:
        row[key] = value
    return json.dumps(row)


class TestReaderEquivalence:
    """``load_corpus`` scans each line and gives the same corpus, or the same whole message, as
    the per-line ``json.loads`` reader it replaced (``corpus_helpers.reference_load_corpus``)."""

    @pytest.mark.parametrize("case", READER_CASES)
    def test_case(self, tmp_path, case):
        assert_same_reading(tmp_path, READER_CASES[case])

    def test_cases_cover_faults_and_corpora(self, tmp_path):
        outcomes = {case: assert_same_reading(tmp_path, text)
                    for case, text in READER_CASES.items()}
        assert outcomes["bom"] == (cp.CorpusError, "manifest line 1: invalid JSON"
                                   " (Unexpected UTF-8 BOM (decode using utf-8-sig))")
        assert outcomes["extra-data"] == (cp.CorpusError, "manifest line 2: invalid JSON"
                                          " (Extra data)")
        assert outcomes["truncated-last-line"] == (
            cp.CorpusError, "manifest line 3: invalid JSON (Unterminated string starting at)")
        assert outcomes["truncated-middle-line"] == (
            cp.CorpusError, "manifest line 2: invalid JSON (Invalid control character at)")
        assert outcomes["u2028-in-token"].vocabulary == ["cat", "d\u2028o\x85g\u2029", "tree"]
        assert isinstance(outcomes["formfeed-and-fs-lines"], cp.Corpus)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(parts=st.lists(st.tuples(
               st.sampled_from(["", " ", "\t", " \t", "\x0c", "\x1c", "\ufeff"]),
               st.sampled_from(["", " ", "\t", "\x0c", "\x85", "\u2028"]),
               st.sampled_from(["\n", "\r\n", "\r"]),
               st.sampled_from(["", "\n", " \n", "\x0c\n", "\u2028\n", "\t\r\n"])),
               min_size=3, max_size=3),
           cut=st.one_of(st.none(), st.integers(0, 400)))
    def test_fuzzed_layout(self, parts, cut):
        text = "".join(before + line + after + end + blank
                       for line, (before, after, end, blank) in zip(_lines(), parts))
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_reading(Path(tmp), text if cut is None else text[:cut])

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data(), n=st.integers(3, 6))
    def test_faults_on_several_lines(self, data, n):
        """Lines in feat_row order other than line order, each valid or with one per-line
        fault: the first faulty line in file order is named, whatever its fault."""
        order = data.draw(st.permutations(range(n)).filter(lambda p: p != sorted(p)))
        faults = data.draw(st.lists(st.one_of(st.none(), st.sampled_from(LINE_FAULTS)),
                                    min_size=n, max_size=n))
        text = "".join(_manifest_line(i, order, fault) + "\n" for i, fault in enumerate(faults))
        with tempfile.TemporaryDirectory() as tmp:
            assert_same_reading(Path(tmp), text, n_rows=n)


class TestTokenNames:
    """A vocabulary file holds one token a line, split at "\\n" only."""

    @pytest.mark.parametrize("token", ["x\u2028y", "p\x0cq", "r\x0bs", "t\x1cu", "v\x85w",
                                       "a\u2029b", " pad "])
    def test_vocabulary_file_keeps_unicode_line_breaks(self, tmp_path, token):
        rows = three_doc_rows()
        rows[1]["tokens"] = {token: 2, "z": 1}
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 2)))
        corpus = cp.load_corpus(manifest, features)
        cp.save_corpus(corpus, tmp_path / "out")
        again = manifest_load(tmp_path / "out")
        assert again.vocabulary == corpus.vocabulary == sorted(["cat", "dog", "tree", "z", token])
        assert again.dropped_token_count == 0
        assert_same_corpus(again, corpus)

    def test_vocabulary_lines_end_at_newline_only(self, tmp_path):
        path = tmp_path / "vocab.txt"
        path.write_bytes("a\u2028b\r\nc\x0cd\n\ne\rf\x1c\n".encode("utf-8"))
        assert cp.read_vocabulary(path) == ["a\u2028b", "c\x0cd", "e", "f\x1c"]

    @pytest.mark.parametrize("token", ["", "a\nb", "a\rb", "\n", "ab\r"])
    def test_token_that_a_vocabulary_file_cannot_hold_rejected(self, tmp_path, token):
        rows = three_doc_rows()
        rows[1]["tokens"] = {"dog": 1, token: 1}
        fault = f"document 'b': token {token!r} must be a non-empty string without a line break"
        assert_builders_reject(tmp_path, rows, np.zeros((3, 2)), f"^{re.escape(fault)}$")


    @pytest.mark.parametrize("vocabulary, token", [
        (["x", "a\nb", ""], "a\nb"),
        (["x", ""], ""),
        (["x", "ab\r"], "ab\r"),
        (["x", 7], 7),
    ])
    def test_in_memory_vocabulary_token_a_file_cannot_hold_rejected(self, vocabulary, token):
        fault = f"vocabulary token {token!r} must be a non-empty string without a line break"
        with pytest.raises(cp.CorpusError, match=f"^{re.escape(fault)}$"):
            cp.from_records([("a", np.zeros(2), {"x": 1}, 0, ["l"])], vocabulary=vocabulary)

    def test_in_memory_vocabulary_duplicate_rejected(self):
        with pytest.raises(cp.CorpusError, match="^duplicate vocabulary token 'x'$"):
            cp.from_records([("a", np.zeros(2), {"x": 1}, 0, ["l"])], vocabulary=["x", "y", "x"])


class TestDocumentFaults:
    """``from_records`` checks every document rule over the whole corpus at once, then names
    the first fault as one loop over the documents in order would."""

    def test_first_repeated_id_in_document_order_named(self):
        records = [(i, np.zeros(2), {"x": 1}, 0, ["l"]) for i in ["a", "b", "b", "a"]]
        with pytest.raises(cp.CorpusError, match="^duplicate document id 'a'$"):
            cp.from_records(records)

    @pytest.mark.parametrize("labels, tokens, fault", [
        ([], {"x": 0}, "empty label set"),
        ([""], {"x": 0}, "labels must be non-empty strings"),
        (["l", 3], {"": 1}, "labels must be non-empty strings"),
        (["l"], {"b": 0, "a\n": 1}, "token 'a\\n' must be a non-empty string without a line break"),
        (["l"], {"b": 1, "a": True}, "token count for 'a' must be a positive integer of at most 2**53"),
        ("cat", {"x": 0}, "labels must be a collection of strings, not the string 'cat'"),
        ("", {"x": 0}, "labels must be a collection of strings, not the string ''"),
    ])
    def test_fault_order_within_a_document(self, labels, tokens, fault):
        records = [("a", np.zeros(2), {"x": 1}, 0, ["l"]),
                   ("b", np.zeros(2), tokens, 0, labels),
                   ("c", np.zeros(2), {"x": -1}, 0, [])]
        with pytest.raises(cp.CorpusError) as caught:
            cp.from_records(records)
        assert str(caught.value) == f"document 'b': {fault}"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(docs=st.lists(st.tuples(
        st.one_of(st.lists(st.sampled_from(["l", "m", "", 0, None, True, ("l",)]), max_size=3),
                  st.sampled_from(["lm", ""])),
        st.dictionaries(st.sampled_from(["a", "b", "", "c\n", "d\r", "e\u2028"]),
                        st.sampled_from([1, 2, 0, -1, True, 1.0, 2**53, 2**53 + 1, None]),
                        max_size=3),
    ), min_size=1, max_size=6))
    def test_named_fault_matches_ordered_loop(self, docs):
        records = [(f"d{i}", np.zeros(2), tokens, 0, labels)
                   for i, (labels, tokens) in enumerate(docs)]
        fault = reference_document_fault(records)
        if fault is None and not any(tokens for _, tokens in docs):  # a corpus rule, checked last
            fault = "the corpus has an empty vocabulary"
        if fault is None:
            corpus = cp.from_records(records)
            rows = [list(row_counts(corpus, i)) for i in range(len(corpus))]
            assert rows == [sorted(row) for row in rows]
        else:
            with pytest.raises(cp.CorpusError) as caught:
                cp.from_records(records)
            assert str(caught.value) == fault


class TestRecordStructure:
    """``from_records`` reads an epoch by the manifest's timestamp rule, and a record whose
    timestamp, tokens or labels are of no usable type is a ``CorpusError`` naming it."""

    @pytest.mark.parametrize("timestamp, epoch", [
        (0.7, 1), (-0.7, -1), (3.5, 4), ("7.6", 8), ("-3.5", -4), ("1e3", 1000),
    ])
    def test_epoch_as_a_manifest_gives_it(self, tmp_path, timestamp, epoch):
        rows = three_doc_rows()
        rows[1]["timestamp"] = timestamp
        feats = np.zeros((3, 2))
        loaded = cp.load_corpus(*make_bundle(tmp_path, rows, feats)[:2])
        built = cp.from_records(records_of(rows, feats))
        assert int(built.epochs[1]) == int(loaded.epochs[1]) == epoch
        assert_same_corpus(built, loaded)

    @pytest.mark.parametrize("timestamp, epoch", [
        (np.int64(2**53 - 1), 2**53 - 1), (np.float64(0.7), 1), (np.float16(3.5), 4),
    ])
    def test_numpy_epoch(self, timestamp, epoch):
        records = [("a", np.zeros(2), {"x": 1}, 0, ["l"]),
                   ("b", np.zeros(2), {"x": 1}, timestamp, ["l"])]
        corpus = cp.from_records(records)
        assert corpus.epochs.tolist() == [0, epoch]

    @pytest.mark.parametrize("timestamp, fault", [
        ("abc", "non-numeric timestamp 'abc'"),
        ("", "non-numeric timestamp ''"),
        (True, "timestamp must be numeric"),
        (None, "timestamp must be numeric"),
        ([1], "timestamp must be numeric"),
        (math.nan, "non-finite timestamp"),
        ("-inf", "non-finite timestamp"),
    ])
    def test_timestamp_fault_named_by_both_builders(self, tmp_path, timestamp, fault):
        rows = three_doc_rows()
        rows[1]["timestamp"] = timestamp
        feats = np.zeros((3, 2))
        with pytest.raises(cp.CorpusError) as caught:
            cp.load_corpus(*make_bundle(tmp_path, rows, feats)[:2])
        assert str(caught.value) == f"manifest line 2: {fault}"
        with pytest.raises(cp.CorpusError) as caught:
            cp.from_records(records_of(rows, feats))
        assert str(caught.value) == f"document 'b': {fault}"

    @pytest.mark.parametrize("timestamp", [np.bool_(True), np.datetime64(0, "s"), 1 + 0j])
    def test_other_timestamp_types_rejected(self, timestamp):
        records = [("a", np.zeros(2), {"x": 1}, timestamp, ["l"])]
        with pytest.raises(cp.CorpusError, match="^document 'a': timestamp must be numeric$"):
            cp.from_records(records)

    @pytest.mark.parametrize("tokens, labels, fault", [
        ([("dog", 1)], ["pets"], "tokens must be a dict, not list"),
        (None, ["pets"], "tokens must be a dict, not NoneType"),
        ({"dog": 1}, 5, "labels must be a collection of strings, not int"),
        ({"dog": 1}, None, "labels must be a collection of strings, not NoneType"),
        ({"dog": 1}, iter(["pets"]), "labels must be a collection of strings, not list_iterator"),
        ([("dog", 1)], 5, "tokens must be a dict, not list"),
    ])
    def test_malformed_record_named(self, tokens, labels, fault):
        records = records_of(three_doc_rows(), np.zeros((3, 2)))
        records[1] = ("b", np.zeros(2), tokens, DAY, labels)
        with pytest.raises(cp.CorpusError) as caught:
            cp.from_records(records)
        assert str(caught.value) == f"document 'b': {fault}"

    def test_first_malformed_record_in_order_named(self):
        records = [("a", np.zeros(2), {"x": 1}, 0, ["l"]),
                   ("b", np.zeros(2), {"x": 1}, "soon", 5),
                   ("c", np.zeros(2), [("x", 1)], 0, ["l"])]
        with pytest.raises(cp.CorpusError,
                           match="^document 'b': non-numeric timestamp 'soon'$"):
            cp.from_records(records)

    def test_other_collections_and_mappings_accepted(self):
        records = [("a", np.zeros(2), Counter(x=2), 0, ("l",)),
                   ("b", np.zeros(2), {"y": 1}, 0, frozenset({"l", "m"}))]
        corpus = cp.from_records(records)
        assert corpus.label_sets == [frozenset({"l"}), frozenset({"l", "m"})]
        assert row_counts(corpus, 0) == {"x": 2}


def reference_tfidf_matrix(rows, vocab, train):
    """The per-document loop that ``tfidf_matrix``'s flat-array build replaces, each word's
    df counted over the ``train`` token-count mappings."""
    out = np.zeros((len(rows), len(vocab)), dtype=np.float64)
    for v, counts in zip(out, rows):
        for tok, count in counts.items():
            df = sum(tok in doc for doc in train)
            if tok in vocab and df > 0:
                v[vocab.index(tok)] = count * math.log(len(train) / df)
        norm = np.linalg.norm(v)
        if norm > 0:
            v /= norm
    return out


def tfidf_of(mappings, train):
    """``tfidf_matrix`` of token-count mappings weighted by the ``train`` split, as
    ``query --text`` builds its row."""
    return cp.tfidf_matrix(cp.token_rows(mappings, train.vocabulary),
                           cp.document_frequencies(train))


def token_counts(num_tokens, max_size):
    return st.dictionaries(st.integers(0, num_tokens - 1).map(lambda j: f"w{j}"),
                           st.integers(1, 10**6), max_size=max_size)


class TestTfidf:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vocab_size=st.integers(1, 40), common=st.booleans(),
           train=st.lists(token_counts(48, 30), min_size=1, max_size=8),
           queries=st.lists(token_counts(56, 60), max_size=8))
    def test_matches_per_document_loop(self, vocab_size, common, train, queries):
        """Bit for bit, with unknown tokens, df-0 and idf-0 words and all-zero rows.

        Tokens past the vocabulary are unknown; vocabulary words in no
        training document have df 0; with ``common`` w0 is in every training
        document, so its idf is 0.
        """
        if common:
            train = [dict(doc, w0=1) for doc in train]
        vocab = [f"w{j}" for j in range(vocab_size)]
        records = [(f"d{i}", np.zeros(2), doc, i * DAY, ["l"]) for i, doc in enumerate(train)]
        idf = cp.document_frequencies(cp.from_records(records, vocabulary=vocab))
        rows = train + queries
        got = cp.tfidf_matrix(cp.token_rows(rows, vocab), idf)
        assert got.tobytes() == reference_tfidf_matrix(rows, vocab, train).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vocab_size=st.integers(1, 40),
           train=st.lists(token_counts(48, 30), min_size=1, max_size=12))
    def test_document_frequencies_match_per_token_loop(self, vocab_size, train):
        """Bit for bit ``math.log(N / df)`` of each word's df counted one training document at a
        time, and 0.0 for df 0, with empty documents and tokens outside the vocabulary."""
        vocab = [f"w{j}" for j in range(vocab_size)]
        records = [(f"d{i}", np.zeros(2), doc, i * DAY, ["l"]) for i, doc in enumerate(train)]
        corpus = cp.from_records(records, vocabulary=vocab)
        df = [0] * vocab_size
        for doc in train:
            for tok in doc:
                if tok in vocab:
                    df[vocab.index(tok)] += 1
        want = np.array([math.log(len(train) / d) if d > 0 else 0.0 for d in df])
        idf = cp.document_frequencies(corpus)
        assert idf.dtype == np.float64 and idf.shape == (vocab_size,)
        assert idf.tobytes() == want.tobytes()

    def _corpus(self, docs):
        records = [
            (f"d{i}", np.zeros(2), tokens, i * DAY, ["l"]) for i, tokens in enumerate(docs)
        ]
        return cp.from_records(records)

    def test_no_known_tokens_gives_zero_vector(self):
        train = self._corpus([{"a": 1}, {"b": 1}])
        rows = tfidf_of([{"zzz": 5}], train)
        assert rows.shape == (1, 2)
        assert not rows.any()

    def test_idf_vanishes_when_token_in_every_doc(self):
        train = self._corpus([{"a": 1}, {"a": 3}])
        (v,) = tfidf_of([{"a": 2}], train)
        assert v[train.vocabulary.index("a")] == 0.0

    def test_hand_value(self):
        # N=4, doc={a:2}, df(a)=1, vocab={a,b}: raw=[2 ln 4, 0] -> [1, 0]
        train = self._corpus([{"a": 2, "b": 1}, {"b": 1}, {"b": 2}, {"b": 1}])
        raw_a = 2 * math.log(4 / 1)
        (v,) = tfidf_of([{"a": 2}], train)
        assert v[train.vocabulary.index("a")] == pytest.approx(1.0)
        assert v[train.vocabulary.index("b")] == 0.0
        unnormalized = np.zeros(2)
        unnormalized[train.vocabulary.index("a")] = raw_a
        np.testing.assert_allclose(v, unnormalized / np.linalg.norm(unnormalized))

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(7)
        docs = [
            {f"w{rng.integers(20)}": int(rng.integers(1, 5)) for _ in range(rng.integers(1, 6))}
            for _ in range(30)
        ]
        train = self._corpus(docs)
        for v in cp.tfidf_matrix(train.text, cp.document_frequencies(train)):
            norm = np.linalg.norm(v)
            assert norm == 0.0 or abs(norm - 1.0) < 1e-12

    def test_one_row_equals_its_row_in_a_split(self):
        """A query's row is built as a document's row in a split is, bit for bit."""
        rng = np.random.default_rng(8)
        docs = [
            {f"w{rng.integers(12)}": int(rng.integers(1, 5)) for _ in range(rng.integers(1, 6))}
            for _ in range(25)
        ]
        corpus = self._corpus(docs)
        train = corpus.take(range(20))
        split = cp.tfidf_matrix(corpus.text, cp.document_frequencies(train))
        for counts, row in zip(docs, split):
            np.testing.assert_array_equal(tfidf_of([counts], train)[0], row)


class TestSplit:
    def _corpus(self, n):
        records = [
            (f"d{i}", np.zeros(2), {"w": 1}, i * DAY, ["l"]) for i in range(n)
        ]
        return cp.from_records(records)

    def test_largest_remainder_sizes(self):
        corpus = self._corpus(100)
        train, val, test = cp.split(corpus, cp.SplitSpec(0.9, 0.15, seed=3))
        assert (len(train), len(val), len(test)) == (77, 13, 10)

    def test_empty_test_split_errors(self):
        corpus = self._corpus(10)
        with pytest.raises(cp.CorpusError, match="test split"):
            cp.split(corpus, cp.SplitSpec(1.0, 0.0, seed=0))

    def test_same_seed_same_partition(self):
        corpus = self._corpus(50)
        a = cp.split(corpus, cp.SplitSpec(0.8, 0.2, seed=11))
        b = cp.split(corpus, cp.SplitSpec(0.8, 0.2, seed=11))
        for part_a, part_b in zip(a, b):
            assert part_a.ids == part_b.ids

    def test_partition_property(self):
        corpus = self._corpus(37)
        train, val, test = cp.split(corpus, cp.SplitSpec(0.9, 0.15, seed=5))
        ids = [i for part in (train, val, test) for i in part.ids]
        assert len(ids) == 37
        assert set(ids) == set(corpus.ids)

    def test_splits_share_axes(self):
        corpus = self._corpus(20)
        train, val, test = cp.split(corpus, cp.SplitSpec(0.9, 0.15, seed=0))
        for part in (train, val, test):
            assert part.time_axis == corpus.time_axis
            assert part.vocabulary == corpus.vocabulary



def synth_bundle(directory, *flags):
    """A small synth bundle (3 x 20 documents, 25 tokens) written to ``directory``."""
    with redirect_stdout(io.StringIO()):
        assert main(["synth", "--out", str(directory), "--categories", "3",
                     "--docs-per-category", "20", "--d-image", "4", "--vocab-size", "25",
                     "--words-per-doc", "5", "--seed", "2", *flags]) == 0
    return directory


def manifest_load(directory, time_unit=cp.DEFAULT_TIME_UNIT):
    """The bundle read from its manifest alone, as without a column index."""
    manifest, features, vocab, _ = bundle_paths(directory)
    return cp.load_corpus(manifest, features, vocab, time_unit=time_unit)


def counting_manifest_reads():
    """A patch of the manifest reader that counts its calls."""
    return mock.patch.object(cp, "_read_manifest", wraps=cp._read_manifest)


INDEX_TOKENS = ["b", "a", "x\u2028y", "p\x0cq", "\u00e9t\u00e9", "zz", "c"]  # vocabulary order

INDEX_FAULTS = {  # case -> edit of the header and arrays; each breaks one rule the index keeps
    "ids-missing": lambda h, a: h.pop("ids"),
    "ids-not-a-list": lambda h, a: h.update(ids="abc"),
    "id-not-a-string": lambda h, a: h["ids"].__setitem__(0, 7),
    "id-empty": lambda h, a: h["ids"].__setitem__(0, ""),
    "id-repeated": lambda h, a: h["ids"].__setitem__(1, h["ids"][0]),
    "labels-short": lambda h, a: h["labels"].pop(),
    "labels-not-a-list": lambda h, a: h["labels"].__setitem__(0, h["labels"][0][0]),
    "labels-empty": lambda h, a: h["labels"].__setitem__(0, []),
    "label-empty": lambda h, a: h["labels"].__setitem__(0, [""]),
    "label-not-a-string": lambda h, a: h["labels"].__setitem__(0, [1]),
    "entries-miscounted": lambda h, a: h.update(tokens=h["tokens"] - 1),
    "digest-missing": lambda h, a: h.pop("vocab_sha256"),
    "epoch-beyond-2**53": lambda h, a: np.put(a["epochs"], 0, 2**53 + 1),
    "indptr-not-from-0": lambda h, a: np.put(a["indptr"], 0, 1),
    "indptr-short-of-the-end": lambda h, a: np.put(a["indptr"], -1, a["indptr"][-1] - 1),
    "indptr-falls": lambda h, a: np.put(a["indptr"], 1, a["indptr"][2] + 1),
    "column-negative": lambda h, a: np.put(a["indices"], 0, -1),
    "column-outside-vocabulary": lambda h, a: np.put(a["indices"], 0, 25),
    "count-zero": lambda h, a: np.put(a["counts"], 0, 0),
    "count-beyond-2**53": lambda h, a: np.put(a["counts"], 0, 2**53 + 1),
}


class TestColumnIndex:
    """``load_bundle`` reads ids, labels, epochs and token rows from ``columns.bin`` while it
    was written beside the manifest and vocabulary bytes on disk, and gives exactly the corpus
    the manifest gives; any other index leaves the manifest to be read."""

    @pytest.mark.parametrize("time_unit", [cp.DEFAULT_TIME_UNIT, 3600.0])
    @pytest.mark.parametrize("bundle", ["synth", "ingested-vocabulary-out-of-order"])
    def test_index_gives_the_manifest_corpus(self, tmp_path, bundle, time_unit):
        data = synth_bundle(tmp_path / "data")
        if bundle == "ingested-vocabulary-out-of-order":
            vocab = cp.read_vocabulary(data / "vocab.txt")
            shuffled = tmp_path / "shuffled.txt"
            shuffled.write_text("".join(f"{tok}\n" for tok in vocab[9:] + vocab[:9][::-1]))
            with redirect_stdout(io.StringIO()):
                assert main(["ingest", str(data / "manifest.jsonl"), str(data / "features.bin"),
                             "--vocab", str(shuffled), "--out", str(tmp_path / "mixed")]) == 0
            data = tmp_path / "mixed"
            assert cp.read_vocabulary(data / "vocab.txt") != sorted(vocab)
        with counting_manifest_reads() as reads:
            got = load_bundle(data, time_unit)
        assert reads.call_count == 0
        assert_same_corpus(got, manifest_load(data, time_unit))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(docs=st.lists(st.tuples(
               st.text(min_size=1, max_size=3),
               st.dictionaries(st.sampled_from(INDEX_TOKENS), st.integers(1, 2**53), max_size=4),
               st.integers(-(2**53), 2**53),
               st.lists(st.sampled_from(["p", "q", "\u00fc", "r s"]), min_size=1, max_size=3)),
               min_size=1, max_size=6, unique_by=lambda doc: doc[0]),
           unit=st.sampled_from([1.0, 86400.0, 0.3]))
    def test_any_saved_corpus(self, docs, unit):
        """Unicode ids, tokens and labels, repeated labels, documents with no token, and epochs
        across the whole exact range read back alike through the index and the manifest."""
        records = [(doc_id, np.full(2, i, dtype=np.float64), tokens, epoch, labels)
                   for i, (doc_id, tokens, epoch, labels) in enumerate(docs)]
        corpus = cp.from_records(records, time_unit=unit, vocabulary=INDEX_TOKENS)
        with tempfile.TemporaryDirectory() as tmp:
            cp.save_corpus(corpus, tmp)
            with counting_manifest_reads() as reads:
                got = load_bundle(tmp, unit)
            assert reads.call_count == 0
            assert_same_corpus(got, manifest_load(tmp, unit))
            assert_same_corpus(got, corpus)

    @pytest.mark.parametrize("case", INDEX_FAULTS)
    def test_malformed_index_is_ignored(self, tmp_path, case):
        data = synth_bundle(tmp_path)
        rewrite_index(data / "columns.bin", INDEX_FAULTS[case])
        with counting_manifest_reads() as reads:
            got = load_bundle(data, cp.DEFAULT_TIME_UNIT)
        assert reads.call_count == 1
        assert_same_corpus(got, manifest_load(data))

    def test_indexed_image_is_the_feature_file_view(self, tmp_path):
        """Through the index the image is the feature file's float32 rows, read-only and no
        copy of the file's bytes; each split holds writable float32 copies of its rows."""
        data = synth_bundle(tmp_path)
        corpus = load_bundle(data, cp.DEFAULT_TIME_UNIT)
        assert corpus.image.dtype == np.float32 and not corpus.image.flags.writeable
        base = corpus.image
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, bytes)
        np.testing.assert_array_equal(corpus.image, cp.read_features(data / "features.bin"))
        parts = cp.split(corpus, cp.SplitSpec(0.8, 0.1, seed=0))
        for part in parts:
            assert part.image.dtype == np.float32 and part.image.flags.writeable
            assert not np.shares_memory(part.image, corpus.image)
        rows = np.concatenate([part.image for part in parts])
        assert sorted(map(bytes, rows)) == sorted(map(bytes, corpus.image))

    def test_unedited_rewrite_is_used(self, tmp_path):
        """``rewrite_index`` alone keeps an index usable, so each fault above is what the
        reader turns down."""
        data = synth_bundle(tmp_path)
        before = (data / "columns.bin").read_bytes()
        rewrite_index(data / "columns.bin")
        assert (data / "columns.bin").read_bytes() == before
        with counting_manifest_reads() as reads:
            load_bundle(data, cp.DEFAULT_TIME_UNIT)
        assert reads.call_count == 0


class TestLoadMemory:
    """Loading holds the feature file's bytes and one float32 image beside the parsed manifest
    or the column index: through the index the image is a view of those bytes, through the
    manifest one gather of its rows in manifest order.

    Bundle: 8 x 250 documents, 512 feature dimensions, a 5,000-token vocabulary and 20 words
    a document (4 MB of float32 features). The manifest path peaks at 11.9 MB
    (``tracemalloc``) and the index path at 6.2 MB, its arrays being views of the file's
    bytes, each retaining 5.8 MB; each bound keeps a headroom of 49% over its measured value.
    """

    PEAK_MB = 17.7  # the manifest path
    INDEX_PEAK_MB = 9.2
    RETAINED_MB = 8.6

    @pytest.fixture(scope="class")
    def bundle(self, tmp_path_factory):
        directory = tmp_path_factory.mktemp("memory")
        with redirect_stdout(io.StringIO()):
            assert main(["synth", "--out", str(directory), "--categories", "8",
                         "--docs-per-category", "250", "--d-image", "512",
                         "--vocab-size", "5000", "--words-per-doc", "20", "--seed", "0"]) == 0
        return directory

    @staticmethod
    def traced_load(directory):
        gc.collect()
        tracemalloc.start()
        try:
            corpus = load_bundle(directory, cp.DEFAULT_TIME_UNIT)
            gc.collect()
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(corpus) == 2000 and corpus.d_image == 512
        return peak / 1e6, retained / 1e6

    def test_load_bundle_peak_and_retained(self, bundle, tmp_path):
        """The manifest path: the same bundle without its column index."""
        for name in ("manifest.jsonl", "features.bin", "vocab.txt"):
            (tmp_path / name).write_bytes((bundle / name).read_bytes())
        peak, retained = self.traced_load(tmp_path)
        assert peak <= self.PEAK_MB
        assert retained <= self.RETAINED_MB

    def test_indexed_load_peak_and_retained(self, bundle):
        with counting_manifest_reads() as reads:
            peak, retained = self.traced_load(bundle)
        assert reads.call_count == 0
        assert peak <= self.INDEX_PEAK_MB
        assert retained <= self.RETAINED_MB
