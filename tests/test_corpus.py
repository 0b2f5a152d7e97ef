import json
import math
import re
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from corpus_helpers import assert_same_corpus, reference_document_fault, reference_load_corpus
from tcmr import corpus as cp


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
    records = [
        (row["id"], feats[row["feat_row"]], row["tokens"], row["timestamp"], row["labels"])
        for row in rows
    ]
    with pytest.raises(cp.CorpusError, match=match):
        cp.from_records(records)


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
        assert len(corpus.documents) == 3
        assert corpus.d_image == 4
        assert corpus.categories == ["park", "pets"]
        np.testing.assert_array_equal(corpus.documents[1].image_feat, feats[1])

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
        assert corpus.documents[0].timestamp == 0.0

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
        assert corpus.documents[2].text_counts == {}

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
        assert [d.timestamp for d in corpus.documents] == [0.0, 1.0, 3.0]
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


def _duplicate_vocabulary(tmp_path):
    (tmp_path / "vocab.txt").write_text("dog\ncat\ndog\n")
    cp.read_vocabulary(tmp_path / "vocab.txt")


def _ragged_features(tmp_path):
    cp.from_records([("a", np.zeros(2), {"x": 1}, 0, ["l"]),
                     ("b", np.zeros(3), {"x": 1}, 0, ["l"])])


def _split_of(n, dev, val):
    def split(tmp_path):
        docs = [cp.Document(f"d{i}", np.zeros(2), {}, 0.0, frozenset(["l"]), 0) for i in range(n)]
        corpus = cp.Corpus(docs, [], ["l"], cp.TimeAxis(1.0, 0, 1), 2)
        cp.split(corpus, cp.SplitSpec(dev, val, 0))
    return split


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
    "duplicate-vocabulary": (_duplicate_vocabulary,
                             "{tmp_path}/vocab.txt: duplicate tokens in vocabulary file"),
    "ragged-features": (_ragged_features,
                        "document 'b': feature vectors must share one dimension"),
    "empty-corpus": (lambda tmp_path: cp.from_records([]), "cannot build an empty corpus"),
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
        assert [d.id for d in cp.load_corpus(manifest, tmp_path / "features.bin").documents] \
            == ["a", "b", "c"]
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
        assert corpus.documents[2].text_counts == {"tree": 2**53}


class TestRoundTrip:
    def test_save_then_load_is_equal(self, tmp_path):
        rng = np.random.default_rng(0)
        feats = rng.normal(size=(3, 4))
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), feats)
        corpus = cp.load_corpus(manifest, features)

        out_m, out_f = tmp_path / "out.jsonl", tmp_path / "out.bin"
        cp.save_corpus(corpus, out_m, out_f)
        again = cp.load_corpus(out_m, out_f)
        assert_same_corpus(again, corpus)
        # features survive bit-identically through float32 on disk
        np.testing.assert_array_equal(again.image_matrix(), corpus.image_matrix())

    def test_canonical_write_is_idempotent(self, tmp_path):
        manifest, features, _ = make_bundle(
            tmp_path, three_doc_rows(), np.random.default_rng(1).normal(size=(3, 4))
        )
        corpus = cp.load_corpus(manifest, features)
        m1, f1 = tmp_path / "m1.jsonl", tmp_path / "f1.bin"
        cp.save_corpus(corpus, m1, f1)
        m2, f2 = tmp_path / "m2.jsonl", tmp_path / "f2.bin"
        cp.save_corpus(cp.load_corpus(m1, f1), m2, f2)
        assert m1.read_bytes() == m2.read_bytes()
        assert f1.read_bytes() == f2.read_bytes()


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
        m1, f1 = tmp_path / "m1.jsonl", tmp_path / "f1.bin"
        cp.save_corpus(cp.load_corpus(manifest, features), m1, f1)
        written = [json.loads(line)["timestamp"] for line in m1.read_text().splitlines()]
        assert written == list(epochs)
        m2, f2 = tmp_path / "m2.jsonl", tmp_path / "f2.bin"
        cp.save_corpus(cp.load_corpus(m1, f1), m2, f2)
        assert m1.read_bytes() == m2.read_bytes()


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


def assert_same_reading(tmp_path, text):
    manifest, features = tmp_path / "manifest.jsonl", tmp_path / "features.bin"
    manifest.write_bytes(text.encode("utf-8"))
    cp.write_features(features, np.arange(6.0).reshape(3, 2))
    got = _read(cp.load_corpus, manifest, features)
    want = _read(reference_load_corpus, manifest, features)
    if isinstance(want, cp.Corpus):
        assert isinstance(got, cp.Corpus), got
        assert_same_corpus(got, want)
    else:
        assert got == want
    return got


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


class TestTokenNames:
    """A vocabulary file holds one token a line, split at "\\n" only."""

    @pytest.mark.parametrize("token", ["x\u2028y", "p\x0cq", "r\x0bs", "t\x1cu", "v\x85w",
                                       "a\u2029b", " pad "])
    def test_vocabulary_file_keeps_unicode_line_breaks(self, tmp_path, token):
        rows = three_doc_rows()
        rows[1]["tokens"] = {token: 2, "z": 1}
        manifest, features, _ = make_bundle(tmp_path, rows, np.zeros((3, 2)))
        corpus = cp.load_corpus(manifest, features)
        out = tmp_path / "out"
        out.mkdir()
        cp.save_corpus(corpus, out / "m.jsonl", out / "f.bin", out / "vocab.txt")
        again = cp.load_corpus(out / "m.jsonl", out / "f.bin", out / "vocab.txt")
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
        st.lists(st.sampled_from(["l", "m", "", 0, None, True, ("l",)]), max_size=3),
        st.dictionaries(st.sampled_from(["a", "b", "", "c\n", "d\r", "e\u2028"]),
                        st.sampled_from([1, 2, 0, -1, True, 1.0, 2**53, 2**53 + 1, None]),
                        max_size=3),
    ), min_size=1, max_size=6))
    def test_named_fault_matches_ordered_loop(self, docs):
        records = [(f"d{i}", np.zeros(2), tokens, 0, labels)
                   for i, (labels, tokens) in enumerate(docs)]
        fault = reference_document_fault(records)
        if fault is None:
            corpus = cp.from_records(records)
            assert [sorted(d.text_counts) for d in corpus.documents] \
                == [list(d.text_counts) for d in corpus.documents]
        else:
            with pytest.raises(cp.CorpusError) as caught:
                cp.from_records(records)
            assert str(caught.value) == fault


def reference_tfidf_matrix(rows, stats):
    """The per-document loop that ``tfidf_matrix``'s flat-array build replaces."""
    out = np.zeros((len(rows), len(stats.token_index)), dtype=np.float64)
    for v, counts in zip(out, rows):
        for tok, count in counts.items():
            i = stats.token_index.get(tok)
            if i is not None and stats.doc_freq[i] > 0:
                v[i] = count * math.log(stats.num_docs / stats.doc_freq[i])
        norm = np.linalg.norm(v)
        if norm > 0:
            v /= norm
    return out


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
        stats = cp.document_frequencies(cp.from_records(records, vocabulary=vocab))
        rows = train + queries
        got = cp.tfidf_matrix(rows, stats)
        assert got.tobytes() == reference_tfidf_matrix(rows, stats).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(vocab_size=st.integers(1, 40),
           train=st.lists(token_counts(48, 30), min_size=1, max_size=12))
    def test_document_frequencies_match_per_token_loop(self, vocab_size, train):
        """Equal to counting each training document's tokens one at a time, as float64,
        with empty documents, tokens outside the vocabulary and words of df 0."""
        vocab = [f"w{j}" for j in range(vocab_size)]
        records = [(f"d{i}", np.zeros(2), doc, i * DAY, ["l"]) for i, doc in enumerate(train)]
        corpus = cp.from_records(records, vocabulary=vocab)
        want = np.zeros(vocab_size, dtype=np.float64)
        for doc in corpus.documents:
            for tok in doc.text_counts:
                want[vocab.index(tok)] += 1.0
        stats = cp.document_frequencies(corpus)
        assert stats.doc_freq.dtype == np.float64
        assert np.array_equal(stats.doc_freq, want)
        assert stats.num_docs == len(train)

    def _corpus(self, docs):
        records = [
            (f"d{i}", np.zeros(2), tokens, i * DAY, ["l"]) for i, tokens in enumerate(docs)
        ]
        return cp.from_records(records)

    def test_no_known_tokens_gives_zero_vector(self):
        train = self._corpus([{"a": 1}, {"b": 1}])
        stats = cp.document_frequencies(train)
        rows = cp.tfidf_matrix([{"zzz": 5}], stats)
        assert rows.shape == (1, 2)
        assert not rows.any()

    def test_idf_vanishes_when_token_in_every_doc(self):
        train = self._corpus([{"a": 1}, {"a": 3}])
        stats = cp.document_frequencies(train)
        (v,) = cp.tfidf_matrix([{"a": 2}], stats)
        assert v[stats.token_index["a"]] == 0.0

    def test_hand_value(self):
        # N=4, doc={a:2}, df(a)=1, vocab={a,b}: raw=[2 ln 4, 0] -> [1, 0]
        train = self._corpus([{"a": 2, "b": 1}, {"b": 1}, {"b": 2}, {"b": 1}])
        stats = cp.document_frequencies(train)
        raw_a = 2 * math.log(4 / 1)
        (v,) = cp.tfidf_matrix([{"a": 2}], stats)
        assert v[stats.token_index["a"]] == pytest.approx(1.0)
        assert v[stats.token_index["b"]] == 0.0
        unnormalized = np.zeros(2)
        unnormalized[stats.token_index["a"]] = raw_a
        np.testing.assert_allclose(v, unnormalized / np.linalg.norm(unnormalized))

    def test_unit_norm_or_zero(self):
        rng = np.random.default_rng(7)
        docs = [
            {f"w{rng.integers(20)}": int(rng.integers(1, 5)) for _ in range(rng.integers(1, 6))}
            for _ in range(30)
        ]
        train = self._corpus(docs)
        stats = cp.document_frequencies(train)
        for v in cp.tfidf_matrix([doc.text_counts for doc in train.documents], stats):
            norm = np.linalg.norm(v)
            assert norm == 0.0 or abs(norm - 1.0) < 1e-12

    def test_one_row_equals_its_row_in_a_split(self):
        """A query's row is built as a document's row in a split is, bit for bit."""
        rng = np.random.default_rng(8)
        docs = [
            {f"w{rng.integers(12)}": int(rng.integers(1, 5)) for _ in range(rng.integers(1, 6))}
            for _ in range(25)
        ]
        stats = cp.document_frequencies(self._corpus(docs[:20]))
        split = cp.tfidf_matrix(docs, stats)
        for counts, row in zip(docs, split):
            np.testing.assert_array_equal(cp.tfidf_matrix([counts], stats)[0], row)


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
            assert [d.id for d in part_a.documents] == [d.id for d in part_b.documents]

    def test_partition_property(self):
        corpus = self._corpus(37)
        train, val, test = cp.split(corpus, cp.SplitSpec(0.9, 0.15, seed=5))
        ids = [d.id for part in (train, val, test) for d in part.documents]
        assert len(ids) == 37
        assert set(ids) == {d.id for d in corpus.documents}

    def test_splits_share_axes(self):
        corpus = self._corpus(20)
        train, val, test = cp.split(corpus, cp.SplitSpec(0.9, 0.15, seed=0))
        for part in (train, val, test):
            assert part.time_axis == corpus.time_axis
            assert part.vocabulary == corpus.vocabulary

    def test_bad_fractions_rejected(self):
        with pytest.raises(cp.CorpusError):
            cp.SplitSpec(0.0, 0.15, 0)
        with pytest.raises(cp.CorpusError):
            cp.SplitSpec(0.9, 1.0, 0)
