"""Timestamped bimodal corpora: loading, validation, TF-IDF, and splits.

A corpus holds documents that each carry an image feature vector, sparse
text token counts, a timestamp, and at least one category label. Timestamps
are kept as real offsets from the corpus start, measured in time units
(e.g. days), so density estimation can work on a continuous axis; discrete
slice indices are derived views.

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
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

log = logging.getLogger(__name__)

FEATURES_MAGIC = b"TXNF"
DEFAULT_TIME_UNIT = 86400.0  # one day, in seconds


class CorpusError(Exception):
    """Malformed manifest/features input or invalid document data."""


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
        if self.unit <= 0:
            raise CorpusError("time unit must be positive")
        if self.num_slices < 1:
            raise CorpusError("num_slices must be >= 1")

    def slice_of(self, t: float) -> int:
        """Slice index of a timestamp given in time units; clamped to range."""
        return min(max(int(math.floor(t)), 0), self.num_slices - 1)

    def to_epoch(self, t: float) -> int:
        return self.origin + int(round(t * self.unit))


@dataclass(eq=False)
class Document:
    """One bimodal instance: image features, token counts, time, labels."""

    id: str
    image_feat: np.ndarray
    text_counts: dict[str, int]
    timestamp: float  # time units since TimeAxis.origin
    labels: frozenset[str]


@dataclass(eq=False)
class Corpus:
    documents: list[Document]
    vocabulary: list[str]
    categories: list[str]
    time_axis: TimeAxis
    d_image: int
    dropped_token_count: int = 0

    @property
    def d_text(self) -> int:
        return len(self.vocabulary)

    def __len__(self):
        return len(self.documents)

    def image_matrix(self) -> np.ndarray:
        return np.stack([d.image_feat for d in self.documents])

    def timestamps(self) -> np.ndarray:
        return np.array([d.timestamp for d in self.documents], dtype=np.float64)

    def label_sets(self) -> list[frozenset[str]]:
        return [d.labels for d in self.documents]

    def with_documents(self, documents: list[Document]) -> "Corpus":
        """Same vocabulary, categories and time axis over a document subset."""
        return Corpus(
            documents=documents,
            vocabulary=self.vocabulary,
            categories=self.categories,
            time_axis=self.time_axis,
            d_image=self.d_image,
        )


# ---------------------------------------------------------------------------
# Loading and saving


def read_features(path) -> np.ndarray:
    """Read the binary feature file into a float64 (rows, d) array."""
    raw = Path(path).read_bytes()
    if len(raw) < 12:
        raise CorpusError(f"{path}: truncated feature file header")
    magic, rows, d = struct.unpack("<4sII", raw[:12])
    if magic != FEATURES_MAGIC:
        raise CorpusError(f"{path}: bad magic {magic!r}, expected {FEATURES_MAGIC!r}")
    expected = 12 + rows * d * 4
    if len(raw) != expected:
        raise CorpusError(
            f"{path}: feature payload is {len(raw) - 12} bytes, expected {rows}x{d} float32"
        )
    return np.frombuffer(raw[12:], dtype="<f4").reshape(rows, d).astype(np.float64)


def write_features(path, matrix: np.ndarray) -> None:
    matrix = np.asarray(matrix, dtype=np.float64)
    rows, d = matrix.shape
    with open(path, "wb") as fh:
        fh.write(struct.pack("<4sII", FEATURES_MAGIC, rows, d))
        fh.write(matrix.astype("<f4").tobytes())


def _parse_timestamp(value, where: str) -> int:
    if isinstance(value, bool):
        raise CorpusError(f"{where}: timestamp must be numeric")
    if isinstance(value, (int, float)):
        ts = float(value)
    elif isinstance(value, str):
        try:
            ts = float(value)
        except ValueError:
            raise CorpusError(f"{where}: non-numeric timestamp {value!r}") from None
    else:
        raise CorpusError(f"{where}: timestamp must be numeric")
    if not math.isfinite(ts):
        raise CorpusError(f"{where}: non-finite timestamp")
    return int(round(ts))


def _parse_manifest_line(line: str, lineno: int) -> dict:
    """JSON structure of one manifest line; the document checks are the builder's."""
    where = f"manifest line {lineno}"
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"{where}: invalid JSON ({exc.msg})") from None
    if not isinstance(row, dict):
        raise CorpusError(f"{where}: expected a JSON object")
    for key in ("id", "timestamp", "tokens", "labels", "feat_row"):
        if key not in row:
            raise CorpusError(f"{where}: missing key {key!r}")
    if not isinstance(row["id"], str) or not row["id"]:
        raise CorpusError(f"{where}: id must be a non-empty string")
    row["timestamp"] = _parse_timestamp(row["timestamp"], where)
    if not isinstance(row["tokens"], dict):
        raise CorpusError(f"{where}: tokens must be an object")
    if not isinstance(row["labels"], list):
        raise CorpusError(f"{where}: labels must be a list")
    if not isinstance(row["feat_row"], int) or isinstance(row["feat_row"], bool):
        raise CorpusError(f"{where}: feat_row must be an integer")
    return row


def read_vocabulary(path) -> list[str]:
    vocab = [line.rstrip("\n") for line in Path(path).read_text().splitlines()]
    vocab = [tok for tok in vocab if tok]
    if len(set(vocab)) != len(vocab):
        raise CorpusError(f"{path}: duplicate tokens in vocabulary file")
    return vocab


def load_corpus(
    manifest_path,
    features_path,
    vocab_path=None,
    time_unit: float = DEFAULT_TIME_UNIT,
) -> Corpus:
    """Read a manifest + features pair (and vocabulary file) and build the Corpus.

    Only the file formats are checked here; ``from_records`` validates the
    documents, exactly as for an in-memory corpus.
    """
    feats = read_features(features_path)
    n_rows = feats.shape[0]

    records = []
    line_of_row: dict[int, int] = {}
    with open(manifest_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            if not line.strip():
                continue
            row = _parse_manifest_line(line, lineno)
            if not 0 <= row["feat_row"] < n_rows:
                raise CorpusError(
                    f"manifest line {lineno}: feat_row {row['feat_row']} outside"
                    f" feature file with {n_rows} rows"
                )
            first = line_of_row.setdefault(row["feat_row"], lineno)
            if first != lineno:
                raise CorpusError(
                    f"manifest lines {first} and {lineno} share feat_row {row['feat_row']}"
                )
            records.append(
                (row["id"], feats[row["feat_row"]], row["tokens"], row["timestamp"], row["labels"])
            )
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
    axis = corpus.time_axis
    with open(manifest_path, "w", encoding="utf-8") as fh:
        for i, doc in enumerate(corpus.documents):
            row = {
                "id": doc.id,
                "timestamp": axis.to_epoch(doc.timestamp),
                "tokens": {tok: doc.text_counts[tok] for tok in sorted(doc.text_counts)},
                "labels": sorted(doc.labels),
                "feat_row": i,
            }
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    write_features(features_path, corpus.image_matrix())
    if vocab_path is not None:
        Path(vocab_path).write_text("".join(tok + "\n" for tok in corpus.vocabulary))


def _feature_matrix(records) -> np.ndarray:
    """(n, d) image features rounded through float32, checked finite."""
    try:
        matrix = np.array([rec[1] for rec in records], dtype=np.float64)
    except ValueError:  # ragged rows
        matrix = None
    if matrix is None or matrix.ndim != 2:
        shape = np.shape(records[0][1])
        bad = next((rec[0] for rec in records if np.shape(rec[1]) != shape), records[0][0])
        raise CorpusError(f"document {bad!r}: feature vectors must share one dimension")
    matrix = matrix.astype(np.float32).astype(np.float64)
    finite = np.isfinite(matrix).all(axis=1)
    if not finite.all():
        bad = records[int(np.argmin(finite))][0]
        raise CorpusError(f"document {bad!r}: non-finite feature value")
    return matrix


def from_records(
    records: Sequence[tuple[str, np.ndarray, Mapping[str, int], int, Sequence[str]]],
    time_unit: float = DEFAULT_TIME_UNIT,
    vocabulary: list[str] | None = None,
) -> Corpus:
    """Build and validate a corpus from (id, image_feat, tokens, epoch, labels) tuples.

    Every document needs a non-empty set of non-empty string labels and
    positive integer token counts; ids are unique and features finite, of
    one dimension. Features are rounded through float32 so a corpus is
    exactly representable in the on-disk feature format. The vocabulary is
    the sorted token union unless given, in which case its order is
    authoritative and unknown tokens are dropped (count recorded on the
    corpus).
    """
    if not records:
        raise CorpusError("cannot build an empty corpus")
    ids = [rec[0] for rec in records]
    if len(set(ids)) != len(ids):
        dupe = next(i for i in ids if ids.count(i) > 1)
        raise CorpusError(f"duplicate document id {dupe!r}")
    feats = _feature_matrix(records)

    if not 0 < time_unit < math.inf:  # False for NaN
        raise CorpusError(f"time unit must be positive and finite, got {time_unit!r}")
    epochs = [int(rec[3]) for rec in records]
    origin = min(epochs)
    span = (max(epochs) - origin) / time_unit
    axis = TimeAxis(unit=time_unit, origin=origin, num_slices=int(math.floor(span)) + 1)

    if vocabulary is None:
        vocabulary = sorted({tok for rec in records for tok in rec[2]})
    known = set(vocabulary)

    documents = []
    dropped = 0
    for (doc_id, _, tokens, _, labels), feat, epoch in zip(records, feats, epochs):
        if not labels:
            raise CorpusError(f"document {doc_id!r}: empty label set")
        if not all(isinstance(lab, str) and lab for lab in labels):
            raise CorpusError(f"document {doc_id!r}: labels must be non-empty strings")
        counts = {}
        for tok, count in sorted(tokens.items()):
            if type(count) is not int or count < 1:  # bool is not int here
                raise CorpusError(
                    f"document {doc_id!r}: token count for {tok!r} must be a positive integer"
                )
            if tok in known:
                counts[tok] = count
            else:
                dropped += count
        documents.append(
            Document(
                id=doc_id,
                image_feat=feat,
                text_counts=counts,
                timestamp=(epoch - origin) / time_unit,
                labels=frozenset(labels),
            )
        )
    if dropped:
        log.warning("dropped %d token occurrences outside the vocabulary", dropped)

    categories = sorted({lab for doc in documents for lab in doc.labels})
    return Corpus(
        documents=documents,
        vocabulary=vocabulary,
        categories=categories,
        time_axis=axis,
        d_image=feats.shape[1],
        dropped_token_count=dropped,
    )


# ---------------------------------------------------------------------------
# TF-IDF


@dataclass
class DocFrequency:
    """Document-frequency table; compute it on the training split only."""

    num_docs: int
    doc_freq: np.ndarray
    token_index: dict[str, int]


def document_frequencies(train: Corpus) -> DocFrequency:
    index = {tok: i for i, tok in enumerate(train.vocabulary)}
    df = np.zeros(len(index), dtype=np.float64)
    for doc in train.documents:
        for tok in doc.text_counts:
            df[index[tok]] += 1.0
    return DocFrequency(num_docs=len(train.documents), doc_freq=df, token_index=index)


def tfidf_matrix(rows: Sequence[Mapping[str, int]], stats: DocFrequency) -> np.ndarray:
    """TF-IDF rows, tf * ln(N/df), of token-count mappings, unit-normalized unless all-zero.

    Tokens missing from the vocabulary, unseen in the training split (df =
    0) or in every training document (idf 0) contribute nothing.
    """
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
    """Development/test split fractions plus the shuffle seed."""

    dev_fraction: float = 0.9
    val_fraction_of_dev: float = 0.15
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.dev_fraction <= 1.0:
            raise CorpusError("dev_fraction must be in (0, 1]")
        if not 0.0 <= self.val_fraction_of_dev < 1.0:
            raise CorpusError("val_fraction_of_dev must be in [0, 1)")


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
    n = len(corpus.documents)
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

    docs = corpus.documents
    train = [docs[i] for i in perm[:n_train]]
    val = [docs[i] for i in perm[n_train : n_train + n_val]]
    test = [docs[i] for i in perm[n_dev:]]
    return (
        corpus.with_documents(train),
        corpus.with_documents(val),
        corpus.with_documents(test),
    )
