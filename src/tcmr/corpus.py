"""Timestamped bimodal corpora: bundles, validation, TF-IDF, and splits.

A corpus holds documents that each carry an image feature vector, sparse
text token counts, a timestamp, and at least one category label. It keeps
them as columns, row i of each being document i: one (n, d) float32 image
array, the token counts as compressed sparse rows over the vocabulary
(``TokenRows``), the timestamps and exact epochs, and the label sets. A
split is a row index, taken with ``Corpus.take``. Timestamps are kept as
real offsets from the corpus start, measured in time units (e.g. days), so
density estimation can work on a continuous axis; discrete slice indices are
derived views.

``from_records`` is the one corpus builder: it sets the time axis and the
vocabulary, and validates every document. ``load_corpus`` only reads and
checks the files, then hands its columns to the builder behind it, so a
corpus read from disk and one built in memory pass the same checks. The
manifest reader checks each line in turn and names the first faulty one;
the builder checks each document rule once over a whole column and, on a
fault, names the first faulty document, as a loop over the documents in
order would. The id and vocabulary rules are stated once (``_check_ids``,
``_check_vocabulary``) and hold for the column index too.

A bundle is a directory of four files that ``save_corpus`` writes whole and
``load_bundle`` reads; ``load_corpus`` also reads ``ingest``'s loose files.
  * ``manifest.jsonl``: JSON Lines, one document per line with keys
    ``id, timestamp, tokens, labels, feat_row`` (timestamp in epoch seconds)
  * ``features.bin``: little-endian binary, magic ``TXNF``, u32 row count,
    u32 feature dimension, then float32 rows in ``feat_row`` order
  * ``vocab.txt``: one token per line, order authoritative
  * ``columns.bin``, the column index (a TXNI container): the ids, label
    lists, epochs and token rows of the manifest beside it, with the SHA-256
    of the manifest and vocabulary bytes it was written from. It is read in
    place of the manifest only while both files still have those digests and
    the columns pass the builder's id and vocabulary rules; the manifest
    stays the authority and names any fault.
"""

from __future__ import annotations

import hashlib
import json
import logging
import math
import struct
from collections import Counter
from collections.abc import Collection
from itertools import chain, repeat
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple, Sequence

import numpy as np

from .container import Container, write_container

log = logging.getLogger(__name__)

FEATURES_MAGIC = b"TXNF"
DEFAULT_TIME_UNIT = 86400.0  # one day, in seconds
EXACT_INT = 2**53  # float64 holds every integer of at most this magnitude exactly
INDEX_MAGIC = b"TXNI"
INDEX_VERSION = 1


class CorpusError(Exception):
    """Malformed manifest/features input or invalid document data."""


def positive_finite(value) -> bool:
    """True for a positive finite int or float; False for a bool, NaN or any other type."""
    return isinstance(value, (int, float)) and not isinstance(value, bool) and 0 < value < math.inf


@dataclass(frozen=True)
class TimeAxis:
    """Continuous time axis of a corpus plus its discrete slice view.

    ``unit`` is the duration of one time unit in seconds, ``origin`` the
    epoch-seconds of the earliest document, and ``num_slices`` the number
    of unit-wide slices covering the timespan.
    """

    unit: float
    origin: int
    num_slices: int

    def __post_init__(self):
        if not positive_finite(self.unit):
            raise CorpusError(f"time unit must be positive and finite, got {self.unit!r}")
        if type(self.origin) is not int or type(self.num_slices) is not int or self.num_slices < 1:
            raise CorpusError(f"origin must be an int and num_slices an int >= 1 (bool excluded),"
                              f" got {self.origin!r} and {self.num_slices!r}")

    def slice_of(self, t) -> np.ndarray:
        """Slice indices of timestamps given in time units; clamped to range."""
        return np.clip(np.floor(t), 0, self.num_slices - 1).astype(np.int64)


class TokenRows(NamedTuple):
    """Token counts of documents as compressed sparse rows: row i's vocabulary columns are
    ``indices[indptr[i]:indptr[i + 1]]``, in token-string order, with their ``counts``."""

    indptr: np.ndarray
    indices: np.ndarray
    counts: np.ndarray

    def take(self, rows: np.ndarray) -> "TokenRows":
        starts, lengths = self.indptr[rows], np.diff(self.indptr)[rows]
        indptr = np.concatenate([[0], np.cumsum(lengths)])
        at = np.repeat(starts - indptr[:-1], lengths) + np.arange(indptr[-1])
        return TokenRows(indptr, self.indices[at], self.counts[at])


def token_rows(mappings: Sequence[dict[str, int]], vocabulary: Sequence[str]) -> TokenRows:
    """Token rows of token-count dicts over ``vocabulary``, token ``vocabulary[j]`` in column
    j; each row in token-string order, less the tokens outside the vocabulary."""
    counts = np.fromiter(chain.from_iterable(map(dict.values, mappings)), np.int64)
    return _token_rows(mappings, counts, sorted(set().union(*mappings)), vocabulary)


def _token_rows(mappings, counts: np.ndarray, ranked: list, vocabulary) -> TokenRows:
    """``token_rows`` of ``mappings`` given their int64 values in order and their sorted token
    union ``ranked``."""
    column = dict(zip(vocabulary, range(len(vocabulary))))
    rank = dict(zip(ranked, range(len(ranked))))
    sizes = np.fromiter(map(len, mappings), np.intp, len(mappings))
    doc = np.repeat(np.arange(len(mappings)), sizes)
    place = np.fromiter(map(rank.__getitem__, chain.from_iterable(mappings)), np.intp, len(counts))
    order = np.argsort(doc * len(ranked) + place, kind="stable")
    columns = np.fromiter(map(column.get, ranked, repeat(-1)), np.intp, len(ranked))[place[order]]
    known = columns >= 0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(doc[known], minlength=len(mappings)))])
    return TokenRows(indptr, columns[known], counts[order][known])


@dataclass(eq=False)
class Corpus:
    """Documents as columns: row i of each column belongs to document i."""

    ids: list[str]
    image: np.ndarray  # (n, d_image) float32 features; read-only when read through the index
    text: TokenRows
    timestamps: np.ndarray  # (n,) time units since TimeAxis.origin
    epochs: np.ndarray  # (n,) int64 input epoch seconds, which a timestamp may not give back
    label_sets: list[frozenset[str]]
    vocabulary: list[str]
    time_axis: TimeAxis
    dropped_token_count: int = 0

    @property
    def d_image(self) -> int:
        return self.image.shape[1]

    @property
    def d_text(self) -> int:
        return len(self.vocabulary)

    def __len__(self):
        return len(self.ids)

    def take(self, rows) -> "Corpus":
        """The documents at ``rows``, in order, with the same vocabulary and time axis."""
        rows = np.asarray(rows, dtype=np.intp)
        return replace(self, ids=[self.ids[i] for i in rows.tolist()],
                       label_sets=[self.label_sets[i] for i in rows.tolist()],
                       image=self.image[rows], text=self.text.take(rows),
                       timestamps=self.timestamps[rows], epochs=self.epochs[rows])

    # for `bench/checks.py` only: it sorts ``documents`` by id and hands them to ``with_documents``
    @property
    def documents(self) -> list[SimpleNamespace]:
        return [SimpleNamespace(id=doc_id, row=row) for row, doc_id in enumerate(self.ids)]

    def with_documents(self, documents) -> "Corpus":
        return self.take([doc.row for doc in documents])


# ---------------------------------------------------------------------------
# Loading and saving


def read_features(path) -> np.ndarray:
    """The binary feature file's float32 (rows, d) array, a read-only view of its bytes."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise CorpusError(f"{path}: truncated feature file header")
    magic, rows, d = struct.unpack("<4sII", raw[:12])
    if magic != FEATURES_MAGIC:
        raise CorpusError(f"{path}: bad magic {magic!r}, expected {FEATURES_MAGIC!r}")
    if d == 0:
        raise CorpusError(f"{path}: feature dimension is 0")
    expected = 12 + rows * d * 4
    if len(raw) != expected:
        raise CorpusError(
            f"{path}: feature payload is {len(raw) - 12} bytes, expected {rows}x{d} float32"
        )
    return np.frombuffer(raw, dtype="<f4", offset=12).reshape(rows, d)


def write_features(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype="<f4")
    rows, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", FEATURES_MAGIC, rows, d))
        fh.write(matrix.tobytes())


def epoch_seconds(value) -> int:
    """Epoch seconds of a timestamp in a manifest, a record or ``synth``: an int (a NumPy integer
    too, a bool not) is exact, a finite float or numeric string rounds to the nearest second."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        return int(value)
    if isinstance(value, str):
        try:
            value = float(value)
        except ValueError:
            raise CorpusError(f"non-numeric timestamp {value!r}") from None
    if not isinstance(value, (float, np.floating)):
        raise CorpusError("timestamp must be numeric")
    if not math.isfinite(value):
        raise CorpusError("non-finite timestamp")
    return round(float(value))


# in the order a missing key is named; a keys view compares as a set
_MANIFEST_KEYS = dict.fromkeys(("id", "timestamp", "tokens", "labels", "feat_row")).keys()


def _parse_manifest_line(row) -> tuple:
    """(id, feat_row, tokens, epoch, labels) of a decoded manifest line, its JSON structure
    checked (messages without the line number); the document checks are the builder's. A JSON
    decoder makes exact types only, so ``type(x) is T`` does for isinstance; a bool is no int."""
    if type(row) is not dict:
        raise CorpusError("expected a JSON object")
    if not row.keys() >= _MANIFEST_KEYS:
        missing = next(key for key in _MANIFEST_KEYS if key not in row)
        raise CorpusError(f"missing key {missing!r}")
    doc_id, epoch, tokens, labels, feat_row = (
        row["id"], row["timestamp"], row["tokens"], row["labels"], row["feat_row"])
    if type(doc_id) is not str or not doc_id:
        raise CorpusError("id must be a non-empty string")
    if type(epoch) is not int:
        epoch = epoch_seconds(epoch)
    if type(tokens) is not dict:
        raise CorpusError("tokens must be an object")
    if type(labels) is not list:
        raise CorpusError("labels must be a list")
    if type(feat_row) is not int:
        raise CorpusError("feat_row must be an integer")
    return doc_id, feat_row, tokens, epoch, labels


def read_vocabulary(path) -> list[str]:
    """The UTF-8 vocabulary file's tokens, one a line: split at "\\n" only, blank lines skipped."""
    return [tok for tok in Path(path).read_text(encoding="utf-8").split("\n") if tok]


def _read_manifest(path, n_rows: int) -> tuple[list, ...]:
    """The id, feat_row, tokens, epoch and labels columns of the manifest's non-blank lines,
    for a feature file of ``n_rows`` rows; the first faulty line raises, named by its number.

    The manifest is read once as UTF-8 text (CR and CRLF read as "\\n") and split at "\\n"
    only, as a JSON string may hold U+2028; ``json.loads`` decodes each non-blank line (a line
    that is not JSON is decoded again with its "\\n" to word the fault as the file reads). Each
    line is then checked in turn: its structure (``_parse_manifest_line``), its feat_row inside
    the feature file, and that no earlier line holds that feat_row.
    """
    lines = Path(path).read_text(encoding="utf-8").split("\n")
    columns = ids, feat_rows, token_maps, epochs, label_lists = [], [], [], [], []
    first_line = {}  # feat_row -> the line that holds it
    for lineno, line in enumerate(lines, 1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            try:  # worded for the line as the file holds it: all but the last end in "\n"
                json.loads(line + "\n" if lineno < len(lines) else line)
            except json.JSONDecodeError as exc:
                raise CorpusError(f"manifest line {lineno}: invalid JSON ({exc.msg})") from None
        try:
            doc_id, feat_row, tokens, epoch, labels = _parse_manifest_line(row)
        except CorpusError as exc:
            raise CorpusError(f"manifest line {lineno}: {exc}") from None
        if not 0 <= feat_row < n_rows:
            raise CorpusError(f"manifest line {lineno}: feat_row {feat_row} outside"
                              f" feature file with {n_rows} rows")
        first = first_line.setdefault(feat_row, lineno)
        if first != lineno:
            raise CorpusError(f"manifest lines {first} and {lineno} share feat_row {feat_row}")
        ids.append(doc_id)
        feat_rows.append(feat_row)
        token_maps.append(tokens)
        epochs.append(epoch)
        label_lists.append(labels)
    return columns


def load_corpus(
    manifest_path,
    features_path,
    vocab_path=None,
    time_unit: float = DEFAULT_TIME_UNIT,
    index_path=None,
) -> Corpus:
    """Read a manifest + features pair (and vocabulary file) and build the Corpus.

    Only the file formats are checked here; the builder behind ``from_records`` validates the
    documents, exactly as for an in-memory corpus. Each manifest line is checked in turn (a
    JSON object, its keys, their value types, its feat_row inside the feature file and held by
    no earlier line), and the first faulty line is named. Image rows are gathered by feat_row
    in one step, as float32.

    With a vocabulary file, a column index at ``index_path`` that reads cleanly, holds to the
    builder's id and vocabulary rules and was written beside the manifest and vocabulary bytes
    now on disk gives the ids, labels, epochs and token rows in place of the manifest; the
    feature file is read and checked as without it. Any other index (missing, malformed, of
    another version, stale or breaking a rule), or a feature file of another row count, leaves
    the manifest to be read as above.
    """
    feats = read_features(features_path)
    n_rows = len(feats)
    if index_path is not None and vocab_path is not None:
        corpus = _read_index(index_path, manifest_path, vocab_path, feats, time_unit)
        if corpus is not None:
            return corpus
    ids, feat_rows, tokens, epochs, labels = _read_manifest(manifest_path, n_rows)
    if len(ids) != n_rows:
        raise CorpusError(
            f"manifest has {len(ids)} documents but feature file has {n_rows} rows"
        )
    _check_ids(ids)
    image = feats[np.array(feat_rows, dtype=np.intp)]
    del feats
    vocabulary = read_vocabulary(vocab_path) if vocab_path is not None else None
    return _build_corpus(ids, image, tokens, epochs, labels, time_unit, vocabulary)


def bundle_paths(directory) -> tuple[Path, Path, Path, Path]:
    """The manifest, features, vocabulary and column index paths of a bundle directory."""
    directory = Path(directory)
    return (directory / "manifest.jsonl", directory / "features.bin", directory / "vocab.txt",
            directory / "columns.bin")


def load_bundle(directory, time_unit: float) -> Corpus:
    """The corpus of a bundle directory, read through its column index while that is current;
    a directory without a vocabulary file is read from its manifest."""
    manifest, features, vocab, index = bundle_paths(directory)
    return load_corpus(manifest, features, vocab if vocab.exists() else None,
                       time_unit=time_unit, index_path=index)


def save_corpus(corpus: Corpus, directory) -> None:
    """Write a corpus as a whole bundle, making the directory if need be: the canonical
    manifest, the features, the vocabulary file and the column index of those bytes.

    The writer is deterministic (sorted tokens and labels, fixed key order),
    so re-ingesting its own output is byte-identical.
    """
    manifest_path, features_path, vocab_path, index_path = bundle_paths(directory)
    Path(directory).mkdir(parents=True, exist_ok=True)
    encode = json.JSONEncoder(separators=(",", ":")).encode
    words = [corpus.vocabulary[col] for col in corpus.text.indices.tolist()]
    counts = corpus.text.counts.tolist()
    bounds = corpus.text.indptr.tolist()
    manifest = "".join(
        encode({
            "id": doc_id,
            "timestamp": epoch,
            "tokens": dict(zip(words[start:stop], counts[start:stop])),  # in token order
            "labels": sorted(labels),
            "feat_row": i,
        }) + "\n"
        for i, (doc_id, epoch, labels, start, stop) in enumerate(zip(
            corpus.ids, corpus.epochs.tolist(), corpus.label_sets, bounds, bounds[1:]))
    ).encode("utf-8")
    manifest_path.write_bytes(manifest)
    write_features(features_path, corpus.image)
    vocab = "".join(tok + "\n" for tok in corpus.vocabulary).encode("utf-8")
    vocab_path.write_bytes(vocab)
    _write_index(index_path, corpus, manifest, vocab)


# ---------------------------------------------------------------------------
# Column index


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _write_index(path, corpus: Corpus, manifest: bytes, vocab: bytes) -> None:
    """The column index of a corpus just written as the ``manifest`` and ``vocab`` bytes: a
    TXNI container (see ``container``), field = u32 version, header keys ``ids``, ``labels``
    (each document's sorted labels), ``tokens`` (the number of token entries),
    ``manifest_sha256`` and ``vocab_sha256``; then int64 arrays: the epochs (n,), and the
    token rows' indptr (n + 1,), indices and counts (tokens,)."""
    header = {"ids": corpus.ids, "labels": [sorted(labels) for labels in corpus.label_sets],
              "tokens": len(corpus.text.indices), "manifest_sha256": _sha256(manifest),
              "vocab_sha256": _sha256(vocab)}
    write_container(path, INDEX_MAGIC, INDEX_VERSION.to_bytes(4, "little"), header,
                    [corpus.epochs, *corpus.text], dtype="<i8")


def _read_index(index_path, manifest_path, vocab_path, feats: np.ndarray,
                time_unit) -> Corpus | None:
    """The corpus of the index at ``index_path`` over the feature rows ``feats``, or None when
    the index is missing, malformed, of another version, not of ``len(feats)`` documents, or
    was not written beside the manifest and vocabulary bytes now on disk.

    The digests vouch for every rule the manifest and vocabulary files are held to; what is
    checked here is that the index holds columns of one corpus over that vocabulary: the
    builder's id and vocabulary rules, labels and epochs as many as the ids, non-empty lists
    of non-empty labels, epochs within [-2**53, 2**53], indptr rising from 0 to the number of
    entries, columns inside the vocabulary and counts in [1, 2**53]. A fault in any of these
    leaves the manifest to name it; the feature rows are checked as without an index.
    """
    try:
        box = Container(index_path, INDEX_MAGIC, ValueError)
        head = box.header
        if (box.field != INDEX_VERSION.to_bytes(4, "little")
                or head.get("manifest_sha256") != _sha256(Path(manifest_path).read_bytes())
                or head.get("vocab_sha256") != _sha256(Path(vocab_path).read_bytes())):
            return None
        ids, label_lists, entries = head.get("ids"), head.get("labels"), head.get("tokens")
        if type(ids) is not list or type(label_lists) is not list:
            return None
        n = len(ids)
        epochs, indptr, indices, counts = box.arrays(
            [(n,), (n + 1,), (entries,), (entries,)], dtype="<i8")
        vocabulary = read_vocabulary(vocab_path)
        _check_ids(ids)
        _check_vocabulary(vocabulary)
    except (OSError, ValueError, CorpusError):  # ValueError: unreadable, or not UTF-8
        return None
    labels = list(chain.from_iterable(label_lists))
    if not (n == len(feats) and len(label_lists) == n
            and list(map(type, label_lists)).count(list) == n and all(label_lists)
            and list(map(type, labels)).count(str) == len(labels) and all(labels)
            and -EXACT_INT <= epochs.min() and epochs.max() <= EXACT_INT
            and indptr[0] == 0 and indptr[-1] == len(indices) and (np.diff(indptr) >= 0).all()
            and (not len(indices) or 0 <= indices.min() and indices.max() < len(vocabulary)
                 and 1 <= counts.min() and counts.max() <= EXACT_INT)):
        return None
    axis = _time_axis(ids, feats, epochs.tolist(), time_unit)
    # save_corpus writes feat_row i on line i: the image is the feature file's read-only view
    return _corpus(ids, feats, TokenRows(indptr, indices, counts), epochs, label_lists,
                   vocabulary, axis)


def _check_ids(ids: list) -> None:
    """An empty corpus, an id that is no non-empty string, or an id held twice is a fault; the
    first faulty id in order is named."""
    if not ids:
        raise CorpusError("cannot build an empty corpus")
    if not (all(map(isinstance, ids, repeat(str))) and all(ids)):
        bad = next(doc_id for doc_id in ids if not isinstance(doc_id, str) or not doc_id)
        raise CorpusError(f"document id {bad!r} must be a non-empty string")
    if len(set(ids)) != len(ids):
        seen = Counter(ids)
        raise CorpusError(f"duplicate document id {next(i for i in ids if seen[i] > 1)!r}")


def _feature_matrix(ids: list, rows: list) -> np.ndarray:
    """(n, d) float32 image features, each row rounded to the nearest float32 as the feature
    file would store it."""
    try:
        matrix = np.array(rows, dtype=np.float64)
    except ValueError:  # ragged rows
        matrix = None
    if matrix is None or matrix.ndim != 2:
        shape = np.shape(rows[0])
        bad = next((doc_id for doc_id, row in zip(ids, rows) if np.shape(row) != shape), ids[0])
        raise CorpusError(f"document {bad!r}: feature vectors must share one dimension")
    if matrix.shape[1] == 0:
        raise CorpusError("image features need at least one dimension")
    with np.errstate(over="ignore"):  # a value past float32's range becomes inf, named later
        return matrix.astype(np.float32)


def _bad_token(tok) -> bool:
    """A vocabulary file holds one token a line: a token is a non-empty str with no line end."""
    return not isinstance(tok, str) or not tok or "\n" in tok or "\r" in tok


def _check_vocabulary(vocabulary: list) -> None:
    """A vocabulary file must hold it: distinct tokens, one a line; the first fault is named."""
    seen = set()
    for tok in vocabulary:
        if _bad_token(tok):
            raise CorpusError(f"vocabulary token {tok!r} must be a non-empty string"
                              " without a line break")
        if tok in seen:
            raise CorpusError(f"duplicate vocabulary token {tok!r}")
        seen.add(tok)


def from_records(
    records: Sequence[tuple[str, np.ndarray, dict[str, int], int, Sequence[str]]],
    time_unit: float = DEFAULT_TIME_UNIT,
    vocabulary: list[str] | None = None,
) -> Corpus:
    """Build and validate a corpus from (id, image_feat, tokens, epoch, labels) tuples.

    Every document needs a non-empty set of non-empty string labels and positive integer
    token counts; tokens are non-empty strings without "\\n" or "\\r", counts and epochs
    at most 2**53 in magnitude, ids unique and features of one dimension, kept as float32
    (the on-disk feature format) and finite there. The vocabulary is the sorted token union
    unless given, in which case its tokens must be distinct and follow the token rule, its
    order is authoritative, and unknown tokens are dropped (count recorded on the corpus).
    Tokens are a dict, labels a collection, and an epoch a manifest timestamp: an int is
    exact, a float or numeric string is rounded. Each document keeps its integer epoch, which
    ``save_corpus`` writes back.
    """
    ids = [rec[0] for rec in records]
    _check_ids(ids)
    image = _feature_matrix(ids, [rec[1] for rec in records])
    token_maps, epochs, label_lists = ([rec[k] for rec in records] for k in (2, 3, 4))
    for i, (doc_id, tokens, epoch, labels) in enumerate(zip(ids, token_maps, epochs, label_lists)):
        if type(epoch) is int and type(tokens) is dict and type(labels) is list:
            continue
        try:
            epochs[i] = epoch_seconds(epoch)
            if not isinstance(tokens, dict):
                raise CorpusError(f"tokens must be a dict, not {type(tokens).__name__}")
            if not isinstance(labels, Collection):
                raise CorpusError("labels must be a collection of strings, not"
                                  f" {type(labels).__name__}")
        except CorpusError as exc:
            raise CorpusError(f"document {doc_id!r}: {exc}") from None
    return _build_corpus(ids, image, token_maps, epochs, label_lists, time_unit, vocabulary)


def _time_axis(ids: list, image: np.ndarray, epochs: list, time_unit) -> TimeAxis:
    """The time axis of documents with these epoch seconds, once the image is checked to be
    finite, the time unit positive and finite, each epoch within [-2**53, 2**53] and the span
    finite in time units."""
    # a row of float32 values sums to a finite float64 exactly when every value is finite
    with np.errstate(invalid="ignore"):  # inf + -inf is NaN, which is what is looked for
        finite = np.isfinite(image.sum(axis=1, dtype=np.float64))
    if not finite.all():
        raise CorpusError(f"document {ids[int(np.argmin(finite))]!r}: non-finite feature value")

    if not positive_finite(time_unit):
        raise CorpusError(f"time unit must be positive and finite, got {time_unit!r}")
    origin, last = min(epochs), max(epochs)
    if origin < -EXACT_INT or last > EXACT_INT:
        bad = next(doc_id for doc_id, epoch in zip(ids, epochs) if abs(epoch) > EXACT_INT)
        raise CorpusError(f"document {bad!r}: timestamp outside [-2**53, 2**53]")
    span = (last - origin) / time_unit
    if not math.isfinite(span):
        raise CorpusError(f"time unit {time_unit!r} is too small for a {last - origin} s span")
    return TimeAxis(unit=time_unit, origin=origin, num_slices=int(math.floor(span)) + 1)


def _corpus(ids: list, image: np.ndarray, text: TokenRows, epochs: np.ndarray,
            label_lists: list, vocabulary: list, axis: TimeAxis, dropped: int = 0) -> Corpus:
    """The corpus of checked columns; ``epochs`` as int64."""
    return Corpus(ids=ids, image=image, text=text, timestamps=(epochs - axis.origin) / axis.unit,
                  epochs=epochs, label_sets=list(map(frozenset, label_lists)),
                  vocabulary=vocabulary, time_axis=axis, dropped_token_count=dropped)


def _build_corpus(ids: list, image: np.ndarray, token_maps: list, epochs: list,
                  label_lists: list, time_unit, vocabulary) -> Corpus:
    """The corpus of ``from_records``'s columns once the ids are checked and the image is
    (n, d) float32; checks every other rule of ``from_records``.
    Each rule runs once over all documents; on a fault, a loop names the first in order."""
    axis = _time_axis(ids, image, epochs, time_unit)

    if vocabulary is not None:
        _check_vocabulary(vocabulary)
    tokens = set().union(*token_maps)
    labels = list(chain.from_iterable(label_lists))
    values = list(chain.from_iterable(map(dict.values, token_maps)))
    # of Python ints, NumPy makes an int64 array exactly when every one fits (float64 if none)
    counts = np.array(values) if set(map(type, values)) <= {int} else None
    if not (all(label_lists) and not any(issubclass(t, str) for t in set(map(type, label_lists)))
            and all(issubclass(t, str) for t in set(map(type, labels)))
            and all(labels) and not any(map(_bad_token, tokens)) and counts is not None
            and (not values or counts.dtype == np.int64
                 and 0 < counts.min() and counts.max() <= EXACT_INT)):
        for doc_id, mapping, labs in zip(ids, token_maps, label_lists):
            if isinstance(labs, str):
                raise CorpusError(f"document {doc_id!r}: labels must be a collection of"
                                  f" strings, not the string {labs!r}")
            if not labs:
                raise CorpusError(f"document {doc_id!r}: empty label set")
            if not all(isinstance(lab, str) and lab for lab in labs):
                raise CorpusError(f"document {doc_id!r}: labels must be non-empty strings")
            for tok, count in sorted(mapping.items()):
                if _bad_token(tok):
                    raise CorpusError(f"document {doc_id!r}: token {tok!r} must be a non-empty"
                                      " string without a line break")
                if type(count) is not int or not 0 < count <= EXACT_INT:  # bool is not int
                    raise CorpusError(f"document {doc_id!r}: token count for {tok!r} must be"
                                      " a positive integer of at most 2**53")

    ranked = sorted(tokens)
    if vocabulary is None:
        vocabulary = ranked
    if not vocabulary:
        raise CorpusError("the corpus has an empty vocabulary")
    text = _token_rows(token_maps, counts.astype(np.int64, copy=False), ranked, vocabulary)
    dropped = sum(values) - sum(text.counts.tolist()) if tokens.difference(vocabulary) else 0
    if dropped:
        log.warning("dropped %d token occurrences outside the vocabulary", dropped)
    return _corpus(ids, image, text, np.array(epochs, dtype=np.int64), label_lists, vocabulary,
                   axis, dropped)


# ---------------------------------------------------------------------------
# TF-IDF


def document_frequencies(train: Corpus) -> np.ndarray:
    """The (V,) float64 IDF weights of the training split's vocabulary: ln(N/df) for a word in
    df of its N documents, 0.0 for a word in none. Compute them on the training split only."""
    df = np.bincount(train.text.indices, minlength=train.d_text).tolist()
    return np.array([math.log(len(train) / d) if d else 0.0 for d in df])


def tfidf_matrix(rows: TokenRows, idf: np.ndarray) -> np.ndarray:
    """TF-IDF rows, tf * idf, of token rows over the vocabulary of the ``idf`` weights that
    ``document_frequencies`` gives, unit-normalized unless all-zero.

    Tokens unseen in the training split (df = 0) or in every training
    document (idf 0) contribute nothing. The rows are filled from the flat
    (row, column, count) arrays in one assignment, and each row's norm is
    sqrt(v . v), as ``np.linalg.norm`` computes it.
    """
    doc = np.repeat(np.arange(len(rows.indptr) - 1), np.diff(rows.indptr))
    out = np.zeros((len(rows.indptr) - 1, len(idf)), dtype=np.float64)
    out[doc, rows.indices] = rows.counts * idf[rows.indices]
    norms = np.sqrt(out[:, None, :] @ out[:, :, None]).reshape(-1)
    nonzero = norms > 0
    out[nonzero] /= norms[nonzero, None]
    return out


def label_matrix(label_sets, categories=None) -> np.ndarray:
    """(n, C) float 0/1 indicator of each document's labels.

    Columns follow ``categories`` (default: every label that occurs, sorted);
    labels outside it are ignored. ``L @ L.T`` counts shared labels exactly.
    """
    if categories is None:
        categories = sorted(set().union(*label_sets))
    column = {c: k for k, c in enumerate(categories)}
    matrix = np.zeros((len(label_sets), len(column)), dtype=np.float64)
    for i, labels in enumerate(label_sets):
        for lab in labels:
            k = column.get(lab)
            if k is not None:
                matrix[i, k] = 1.0
    return matrix


# ---------------------------------------------------------------------------
# Splitting


@dataclass(frozen=True)
class SplitSpec:
    """Development/test split fractions plus the shuffle seed; ``RunConfig`` checks the
    fractions' ranges."""

    dev_fraction: float
    val_fraction_of_dev: float
    seed: int


def _largest_remainder(total: int, fractions: Sequence[float]) -> list[int]:
    quotas = [total * f for f in fractions]
    sizes = [int(math.floor(q)) for q in quotas]
    leftover = total - sum(sizes)
    order = sorted(
        range(len(quotas)),
        key=lambda i: (-(quotas[i] - sizes[i]), -quotas[i], i),
    )
    for i in order[:leftover]:
        sizes[i] += 1
    return sizes


def split(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic uniform shuffle, then slice into (train, val, test).

    Sizes follow largest-remainder rounding of the requested fractions.
    An empty train or test split is an error; an empty validation split is
    allowed only when val_fraction_of_dev is exactly 0.
    """
    n = len(corpus)
    if n == 0:
        raise CorpusError("cannot split an empty corpus")
    perm = np.random.default_rng(spec.seed).permutation(n)
    n_dev, n_test = _largest_remainder(n, [spec.dev_fraction, 1.0 - spec.dev_fraction])
    n_train, n_val = _largest_remainder(
        n_dev, [1.0 - spec.val_fraction_of_dev, spec.val_fraction_of_dev]
    )
    if n_train == 0:
        raise CorpusError("train split would be empty")
    if n_test == 0:
        raise CorpusError("test split would be empty")
    if n_val == 0 and spec.val_fraction_of_dev > 0.0:
        raise CorpusError("validation split would be empty")

    return tuple(corpus.take(rows) for rows in np.split(perm, [n_train, n_dev]))
