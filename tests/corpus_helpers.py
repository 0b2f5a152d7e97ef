"""Corpus comparison for tests (the library compares corpora by identity), a column index
rewriter, and the reference reader and document checks that ``corpus`` must agree with."""

import json
import math

import numpy as np

from tcmr import corpus as cp
from tcmr.container import Container, write_container


def row_counts(corpus, i):
    """Row i's tokens and counts, in the row's order."""
    text = corpus.text
    cols = text.indices[text.indptr[i]:text.indptr[i + 1]].tolist()
    return dict(zip([corpus.vocabulary[c] for c in cols],
                    text.counts[text.indptr[i]:text.indptr[i + 1]].tolist()))


def assert_same_corpus(got, want):
    """Same documents in the same order, column by column, and the same corpus metadata."""
    assert got.ids == want.ids
    for column in ("image", "timestamps", "epochs"):
        a, b = getattr(got, column), getattr(want, column)
        assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes(), column
    for a, b in zip(got.text, want.text):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    assert got.label_sets == want.label_sets
    assert got.vocabulary == want.vocabulary
    assert got.categories == want.categories
    assert got.time_axis == want.time_axis
    assert got.d_image == want.d_image
    assert got.dropped_token_count == want.dropped_token_count


def rewrite_index(path, edit=None):
    """Rewrite a column index after ``edit(header, arrays)``, where ``arrays`` maps each int64
    array's name to it; the digests are kept unless the edit changes them."""
    box = Container(path, cp.INDEX_MAGIC, ValueError)
    n, entries = len(box.header["ids"]), box.header["tokens"]
    arrays = dict(zip(("epochs", "indptr", "indices", "counts"),  # writable copies of the views
                      map(np.copy, box.arrays([(n,), (n + 1,), (entries,), (entries,)],
                                              dtype="<i8"))))
    if edit:
        edit(box.header, arrays)
    write_container(path, cp.INDEX_MAGIC, box.field, box.header, arrays.values(), dtype="<i8")


def reference_parse_manifest_line(line):
    """One manifest line through ``json.loads`` and ``isinstance`` checks, as the reader did
    before it scanned lines (messages without the line number)."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise cp.CorpusError(f"invalid JSON ({exc.msg})") from None
    if not isinstance(row, dict):
        raise cp.CorpusError("expected a JSON object")
    for key in ("id", "timestamp", "tokens", "labels", "feat_row"):
        if key not in row:
            raise cp.CorpusError(f"missing key {key!r}")
    if not isinstance(row["id"], str) or not row["id"]:
        raise cp.CorpusError("id must be a non-empty string")
    value = row["timestamp"]
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise cp.CorpusError(f"non-numeric timestamp {value!r}") from None
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise cp.CorpusError("timestamp must be numeric")
    if isinstance(value, float) and not math.isfinite(value):
        raise cp.CorpusError("non-finite timestamp")
    row["timestamp"] = round(value)
    if not isinstance(row["tokens"], dict):
        raise cp.CorpusError("tokens must be an object")
    if not isinstance(row["labels"], list):
        raise cp.CorpusError("labels must be a list")
    if not isinstance(row["feat_row"], int) or isinstance(row["feat_row"], bool):
        raise cp.CorpusError("feat_row must be an integer")
    return row


def reference_load_corpus(manifest_path, features_path, vocab_path=None,
                          time_unit=cp.DEFAULT_TIME_UNIT):
    """The per-line ``json.loads`` manifest reader that ``corpus.load_corpus`` replaced: the
    file is iterated line by line in text mode, each non-blank line (with its newline) goes
    through ``json.loads``, and the records go to ``corpus.from_records``."""
    feats = cp.read_features(features_path)
    n_rows = feats.shape[0]
    records = []
    line_of_row = {}
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = reference_parse_manifest_line(line)
            except cp.CorpusError as exc:
                raise cp.CorpusError(f"manifest line {lineno}: {exc}") from None
            if not 0 <= row["feat_row"] < n_rows:
                raise cp.CorpusError(
                    f"manifest line {lineno}: feat_row {row['feat_row']} outside"
                    f" feature file with {n_rows} rows"
                )
            first = line_of_row.setdefault(row["feat_row"], lineno)
            if first != lineno:
                raise cp.CorpusError(
                    f"manifest lines {first} and {lineno} share feat_row {row['feat_row']}"
                )
            records.append(
                (row["id"], feats[row["feat_row"]], row["tokens"], row["timestamp"], row["labels"])
            )
    if len(records) != n_rows:
        raise cp.CorpusError(
            f"manifest has {len(records)} documents but feature file has {n_rows} rows"
        )
    vocabulary = cp.read_vocabulary(vocab_path) if vocab_path is not None else None
    return cp.from_records(records, time_unit=time_unit, vocabulary=vocabulary)


def reference_document_fault(records):
    """Message of the first document fault that ``corpus.from_records`` names, found by one
    loop over the documents in order (labels, then tokens in sorted order), or None."""
    for doc_id, _, tokens, _, labels in records:
        if isinstance(labels, str):
            return (f"document {doc_id!r}: labels must be a collection of strings, not the"
                    f" string {labels!r}")
        if not labels:
            return f"document {doc_id!r}: empty label set"
        for lab in labels:
            if not isinstance(lab, str) or not lab:
                return f"document {doc_id!r}: labels must be non-empty strings"
        for tok, count in sorted(tokens.items()):
            if not isinstance(tok, str) or not tok or "\n" in tok or "\r" in tok:
                return (f"document {doc_id!r}: token {tok!r} must be a non-empty string"
                        " without a line break")
            if type(count) is not int or not 0 < count <= cp.EXACT_INT:
                return (f"document {doc_id!r}: token count for {tok!r} must be a positive"
                        " integer of at most 2**53")
    return None
