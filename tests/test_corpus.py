import json
import math
import struct

import numpy as np
import pytest

from corpus_helpers import assert_same_corpus
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

    @pytest.mark.parametrize("unit", [0.0, -1.0, math.nan, math.inf])
    def test_time_unit_must_be_positive_and_finite(self, tmp_path, unit):
        manifest, features, _ = make_bundle(tmp_path, three_doc_rows(), np.zeros((3, 4)))
        with pytest.raises(cp.CorpusError, match="time unit must be positive and finite"):
            cp.load_corpus(manifest, features, time_unit=unit)


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


class TestTfidf:
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
            cp.SplitSpec(dev_fraction=0.0)
        with pytest.raises(cp.CorpusError):
            cp.SplitSpec(val_fraction_of_dev=1.0)
