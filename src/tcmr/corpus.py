"""Timestamped bimodal corpora: loading, validation, TF-IDF, and splits.

A corpus holds documents that each carry an image feature vector, sparse
text token counts, a timestamp, and at least one category label. It keeps
them as columns, row i of each being document i: one (n, d) float64 image
array, the token counts as compressed sparse rows over the vocabulary
(``TokenRows``), the timestamps and exact epochs, and the label sets. A
split is a row index, taken with ``Corpus.take``. Timestamps are kept as
real offsets from the corpus start, measured in time units (e.g. days), so
density estimation can work on a continuous axis; discrete slice indices are
derived views.

``from_records`` is the one corpus builder: it sets the time axis, the
vocabulary and the category list, and validates every document.
``load_corpus`` only reads and checks the files, then calls it, so a corpus
read from disk and one built in memory pass the same checks.

On-disk layout:
  * manifest: JSON Lines, one document per line with keys
    ``id, timestamp, tokens, labels, feat_row`` (timestamp in epoch seconds)
  * features: little-endian binary, magic ``TXNF``, u32 row count, u32
    feature dimension, then float32 rows in ``feat_row`` order
  * optional vocabulary file: one token per line, order authoritative
"""

from __future__ import annotations

import json
import logging
import math
import struct
from collections import Counter
from itertools import chain
from dataclasses import dataclass, replace
from pathlib import Path
from types import SimpleNamespace
from typing import Mapping, NamedTuple, Sequence

import numpy as np

log = logging.getLogger(__name__)

FEATURES_MAGIC = b"TXNF"
DEFAULT_TIME_UNIT = 86400.0  # one day, in seconds
EXACT_INT = 2**53  # float64 holds every integer of at most this magnitude exactly
FEATURE_BLOCK = 1024  # feature rows rounded through float32 at a time


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


def token_rows(mappings: Sequence[Mapping[str, int]], column: Mapping[str, int]) -> TokenRows:
    """Token rows of token-count mappings over the vocabulary that ``column`` maps each token
    to; each row in token-string order, less the tokens outside the vocabulary."""
    ranked = sorted(set().union(*mappings))
    rank = dict(zip(ranked, range(len(ranked))))
    doc = np.repeat(np.arange(len(mappings)), list(map(len, mappings)))
    place = np.array([rank[tok] for tok in chain.from_iterable(mappings)], dtype=np.intp)
    order = np.argsort(doc * len(ranked) + place, kind="stable")
    columns = np.array([column.get(tok, -1) for tok in ranked], dtype=np.intp)[place[order]]
    counts = np.array([n for m in mappings for n in m.values()], dtype=np.int64)[order]
    known = columns >= 0
    indptr = np.concatenate([[0], np.cumsum(np.bincount(doc[known], minlength=len(mappings)))])
    return TokenRows(indptr, columns[known], counts[known])


@dataclass(eq=False)
class Corpus:
    """Documents as columns: row i of each column belongs to document i."""

    ids: list[str]
    image: np.ndarray  # (n, d_image) float64 features, each exactly a float32
    text: TokenRows
    timestamps: np.ndarray  # (n,) time units since TimeAxis.origin
    epochs: np.ndarray  # (n,) int64 input epoch seconds, which a timestamp may not give back
    label_sets: list[frozenset[str]]
    vocabulary: list[str]
    categories: list[str]
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
        """The documents at ``rows``, in order, with the same vocabulary, categories and axis."""
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


def _parse_timestamp(value) -> int:
    """Epoch seconds of a manifest timestamp that is not an int (an int is exact as it is)."""
    if type(value) is str:
        try:
            value = float(value)
        except ValueError:
            raise CorpusError(f"non-numeric timestamp {value!r}") from None
    if type(value) is not float:
        raise CorpusError("timestamp must be numeric")
    if not math.isfinite(value):
        raise CorpusError("non-finite timestamp")
    return round(value)


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
        epoch = _parse_timestamp(epoch)
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


def load_corpus(
    manifest_path,
    features_path,
    vocab_path=None,
    time_unit: float = DEFAULT_TIME_UNIT,
) -> Corpus:
    """Read a manifest + features pair (and vocabulary file) and build the Corpus.

    Only the file formats are checked here; ``from_records`` validates the documents,
    exactly as for an in-memory corpus. The manifest is read once as UTF-8 text (CR and
    CRLF read as "\\n") and split at "\\n" only, as a JSON string may hold U+2028; the
    decoder's scanner takes each line, and ``json.loads`` words a line it cannot take whole.
    """
    feats = read_features(features_path)
    n_rows = len(feats)
    scan = json.JSONDecoder().scan_once
    lines = Path(manifest_path).read_text(encoding="utf-8").split("\n")
    records = []
    line_of_row: dict[int, int] = {}
    for lineno, line in enumerate(lines, 1):
        try:
            row, end = scan(line, 0)
        except (StopIteration, json.JSONDecodeError):
            end = -1
        try:
            if end != len(line):  # blank, whitespace around the value, or a fault
                if not line.strip():
                    continue
                try:  # the line as the file holds it: all but the last end in "\n"
                    row = json.loads(line + "\n" if lineno < len(lines) else line)
                except json.JSONDecodeError as exc:
                    raise CorpusError(f"invalid JSON ({exc.msg})") from None
            doc_id, feat_row, tokens, epoch, labels = _parse_manifest_line(row)
        except CorpusError as exc:
            raise CorpusError(f"manifest line {lineno}: {exc}") from None
        if not 0 <= feat_row < n_rows:
            raise CorpusError(f"manifest line {lineno}: feat_row {feat_row} outside"
                              f" feature file with {n_rows} rows")
        first = line_of_row.setdefault(feat_row, lineno)
        if first != lineno:
            raise CorpusError(f"manifest lines {first} and {lineno} share feat_row {feat_row}")
        records.append((doc_id, feats[feat_row], tokens, epoch, labels))
    if len(records) != n_rows:
        raise CorpusError(
            f"manifest has {len(records)} documents but feature file has {n_rows} rows"
        )
    vocabulary = read_vocabulary(vocab_path) if vocab_path is not None else None
    return from_records(records, time_unit=time_unit, vocabulary=vocabulary)


def save_corpus(corpus: Corpus, manifest_path, features_path, vocab_path=None) -> None:
    """Write a corpus back in canonical manifest + features form.

    The writer is deterministic (sorted tokens and labels, fixed key order),
    so re-ingesting its own output is byte-identical.
    """
    encode = json.JSONEncoder(separators=(",", ":")).encode
    words = [corpus.vocabulary[col] for col in corpus.text.indices.tolist()]
    counts = corpus.text.counts.tolist()
    bounds = corpus.text.indptr.tolist()
    text = "".join(
        encode({
            "id": doc_id,
            "timestamp": epoch,
            "tokens": dict(zip(words[start:stop], counts[start:stop])),  # in token order
            "labels": sorted(labels),
            "feat_row": i,
        }) + "\n"
        for i, (doc_id, epoch, labels, start, stop) in enumerate(zip(
            corpus.ids, corpus.epochs.tolist(), corpus.label_sets, bounds, bounds[1:]))
    )
    Path(manifest_path).write_text(text, encoding="utf-8")
    write_features(features_path, corpus.image)
    if vocab_path is not None:
        Path(vocab_path).write_text("".join(tok + "\n" for tok in corpus.vocabulary),
                                    encoding="utf-8")


def _feature_matrix(records) -> np.ndarray:
    """(n, d) image features rounded through float32, checked finite: the rows are gathered
    into one float64 array, rounded in place a block of rows at a time."""
    try:
        matrix = np.array([rec[1] for rec in records], dtype=np.float64)
    except ValueError:  # ragged rows
        matrix = None
    if matrix is None or matrix.ndim != 2:
        shape = np.shape(records[0][1])
        bad = next((rec[0] for rec in records if np.shape(rec[1]) != shape), records[0][0])
        raise CorpusError(f"document {bad!r}: feature vectors must share one dimension")
    if matrix.shape[1] == 0:
        raise CorpusError("image features need at least one dimension")
    for block in np.split(matrix, range(FEATURE_BLOCK, len(matrix), FEATURE_BLOCK)):
        block[...] = block.astype(np.float32)  # a view of the matrix, rounded in place
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = records[int(np.argmin(finite))][0]
        raise CorpusError(f"document {bad!r}: non-finite feature value")
    return matrix


def _bad_token(tok) -> bool:
    """A vocabulary file holds one token a line: a token is a non-empty str with no line end."""
    return not isinstance(tok, str) or not tok or "\n" in tok or "\r" in tok


def from_records(
    records: Sequence[tuple[str, np.ndarray, Mapping[str, int], int, Sequence[str]]],
    time_unit: float = DEFAULT_TIME_UNIT,
    vocabulary: list[str] | None = None,
) -> Corpus:
    """Build and validate a corpus from (id, image_feat, tokens, epoch, labels) tuples.

    Every document needs a non-empty set of non-empty string labels and positive integer
    token counts; tokens are non-empty strings without "\\n" or "\\r", counts and epochs
    at most 2**53 in magnitude, ids unique and features finite, of one dimension. Features
    are rounded through float32 so a corpus is exactly representable in the on-disk feature
    format. The vocabulary is the sorted token union unless given, in which case its tokens
    must be distinct and follow the token rule, its order is authoritative, and unknown
    tokens are dropped (count recorded on the corpus). Each document keeps its integer
    epoch, which ``save_corpus`` writes back.
    """
    if not records:
        raise CorpusError("cannot build an empty corpus")
    ids = [rec[0] for rec in records]
    if len(set(ids)) != len(ids):
        seen = Counter(ids)
        raise CorpusError(f"duplicate document id {next(i for i in ids if seen[i] > 1)!r}")
    feats = _feature_matrix(records)

    if not positive_finite(time_unit):
        raise CorpusError(f"time unit must be positive and finite, got {time_unit!r}")
    epochs = [int(rec[3]) for rec in records]
    origin, last = min(epochs), max(epochs)
    if origin < -EXACT_INT or last > EXACT_INT:
        bad = next(rec[0] for rec, epoch in zip(records, epochs) if abs(epoch) > EXACT_INT)
        raise CorpusError(f"document {bad!r}: timestamp outside [-2**53, 2**53]")
    axis = TimeAxis(unit=time_unit, origin=origin,
                    num_slices=int(math.floor((last - origin) / time_unit)) + 1)

    token_maps = [rec[2] for rec in records]
    label_lists = [rec[4] for rec in records]
    tokens = set().union(*token_maps)
    if vocabulary is None:
        vocabulary = sorted(tokens)
    else:  # a vocabulary file must hold it: distinct tokens, one a line
        seen = set()
        for tok in vocabulary:
            if _bad_token(tok):
                raise CorpusError(f"vocabulary token {tok!r} must be a non-empty string"
                                  " without a line break")
            if tok in seen:
                raise CorpusError(f"duplicate vocabulary token {tok!r}")
            seen.add(tok)
    # each rule over all documents at once; on a fault, the loop names the first in order
    labels = list(chain.from_iterable(label_lists))
    counts = list(chain.from_iterable(mapping.values() for mapping in token_maps))
    if not (all(label_lists) and all(issubclass(t, str) for t in set(map(type, labels)))
            and all(labels) and not any(map(_bad_token, tokens))
            and set(map(type, counts)) <= {int}
            and 0 < min(counts, default=1) and max(counts, default=1) <= EXACT_INT):
        for doc_id, _, mapping, _, labs in records:
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

    if not vocabulary:
        raise CorpusError("the corpus has an empty vocabulary")
    text = token_rows(token_maps, dict(zip(vocabulary, range(len(vocabulary)))))
    dropped = sum(counts) - sum(text.counts.tolist())
    if dropped:
        log.warning("dropped %d token occurrences outside the vocabulary", dropped)
    epochs, label_sets = np.array(epochs, dtype=np.int64), list(map(frozenset, label_lists))
    return Corpus(ids=ids, image=feats, text=text, timestamps=(epochs - origin) / time_unit,
                  epochs=epochs, label_sets=label_sets, vocabulary=vocabulary,
                  categories=sorted(set().union(*label_sets)), time_axis=axis,
                  dropped_token_count=dropped)


# ---------------------------------------------------------------------------
# TF-IDF


@dataclass
class DocFrequency:
    """Document-frequency table; compute it on the training split only."""

    num_docs: int
    doc_freq: np.ndarray
    token_index: dict[str, int]


def document_frequencies(train: Corpus) -> DocFrequency:
    df = np.bincount(train.text.indices, minlength=train.d_text).astype(np.float64)
    index = dict(zip(train.vocabulary, range(train.d_text)))
    return DocFrequency(num_docs=len(train), doc_freq=df, token_index=index)


def tfidf_matrix(rows: TokenRows, stats: DocFrequency) -> np.ndarray:
    """TF-IDF rows, tf * ln(N/df), of token rows over the training vocabulary, unit-normalized
    unless all-zero.

    Tokens unseen in the training split (df = 0) or in every training
    document (idf 0) contribute nothing. The rows are filled from the flat
    (row, column, count) arrays in one assignment, and each row's norm is
    sqrt(v . v), as ``np.linalg.norm`` computes it.
    """
    idf = np.array([math.log(stats.num_docs / df) if df > 0 else 0.0
                    for df in stats.doc_freq.tolist()])
    doc = np.repeat(np.arange(len(rows.indptr) - 1), np.diff(rows.indptr))
    out = np.zeros((len(rows.indptr) - 1, len(stats.token_index)), dtype=np.float64)
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
