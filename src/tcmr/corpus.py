"""Timestamped bimodal corpora: loading, validation, TF-IDF, and splits.

A corpus holds documents that each carry an image feature vector, sparse
text token counts, a timestamp, and at least one category label. Timestamps
are kept as real offsets from the corpus start, measured in time units
(e.g. days), so density estimation can work on a continuous axis; discrete
slice indices are derived views.

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

    def __eq__(self, other):
        if not isinstance(other, Document):
            return NotImplemented
        return (
            self.id == other.id
            and np.array_equal(self.image_feat, other.image_feat)
            and self.text_counts == other.text_counts
            and self.timestamp == other.timestamp
            and self.labels == other.labels
        )


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

    def __eq__(self, other):
        if not isinstance(other, Corpus):
            return NotImplemented
        return (
            self.documents == other.documents
            and self.vocabulary == other.vocabulary
            and self.categories == other.categories
            and self.time_axis == other.time_axis
            and self.d_image == other.d_image
        )

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
    feats = np.frombuffer(raw[12:], dtype="<f4").reshape(rows, d)
    bad = ~np.isfinite(feats)
    if bad.any():
        row = int(np.nonzero(bad.any(axis=1))[0][0])
        raise CorpusError(f"{path}: non-finite feature value in row {row}")
    return feats.astype(np.float64)


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
    tokens = row["tokens"]
    if not isinstance(tokens, dict):
        raise CorpusError(f"{where}: tokens must be an object")
    for tok, count in tokens.items():
        if not isinstance(tok, str):
            raise CorpusError(f"{where}: token keys must be strings")
        if not isinstance(count, int) or isinstance(count, bool) or count < 1:
            raise CorpusError(f"{where}: token count for {tok!r} must be a positive integer")
    labels = row["labels"]
    if (
        not isinstance(labels, list)
        or not labels
        or not all(isinstance(l, str) and l for l in labels)
    ):
        raise CorpusError(f"{where}: document with empty label set")
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
    """Load and validate a manifest + features pair into a Corpus.

    The vocabulary is the lexicographically sorted union of manifest tokens
    unless ``vocab_path`` is given, in which case that file's order is
    authoritative and unknown tokens are dropped (count recorded on the
    returned corpus).
    """
    feats = read_features(features_path)
    n_rows = feats.shape[0]

    rows = []
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
            rows.append(row)
    if not rows:
        raise CorpusError(f"{manifest_path}: empty manifest")
    if len(rows) != n_rows:
        raise CorpusError(
            f"manifest has {len(rows)} documents but feature file has {n_rows} rows"
        )
    ids = [row["id"] for row in rows]
    if len(set(ids)) != len(ids):
        dupe = next(i for i in ids if ids.count(i) > 1)
        raise CorpusError(f"duplicate document id {dupe!r}")

    if vocab_path is not None:
        vocabulary = read_vocabulary(vocab_path)
    else:
        vocabulary = sorted({tok for row in rows for tok in row["tokens"]})
    known = set(vocabulary)

    dropped = 0
    epochs = [row["timestamp"] for row in rows]
    origin = min(epochs)
    span = (max(epochs) - origin) / time_unit
    axis = TimeAxis(unit=time_unit, origin=origin, num_slices=int(math.floor(span)) + 1)

    documents = []
    for row in rows:
        counts = {}
        for tok, count in sorted(row["tokens"].items()):
            if tok in known:
                counts[tok] = count
            else:
                dropped += count
        documents.append(
            Document(
                id=row["id"],
                image_feat=feats[row["feat_row"]],
                text_counts=counts,
                timestamp=(row["timestamp"] - origin) / time_unit,
                labels=frozenset(row["labels"]),
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


def from_records(
    records: Sequence[tuple[str, np.ndarray, Mapping[str, int], int, Sequence[str]]],
    time_unit: float = DEFAULT_TIME_UNIT,
    vocabulary: list[str] | None = None,
) -> Corpus:
    """Build a corpus in memory from (id, image_feat, tokens, epoch, labels) tuples.

    Image features are rounded through float32 so an in-memory corpus is
    exactly representable in the on-disk feature format.
    """
    if not records:
        raise CorpusError("cannot build an empty corpus")
    epochs = [int(rec[3]) for rec in records]
    origin = min(epochs)
    span = (max(epochs) - origin) / time_unit
    axis = TimeAxis(unit=time_unit, origin=origin, num_slices=int(math.floor(span)) + 1)

    if vocabulary is None:
        vocabulary = sorted({tok for rec in records for tok in rec[2]})
    known = set(vocabulary)

    d_image = None
    documents = []
    dropped = 0
    for doc_id, feat, tokens, epoch, labels in records:
        feat = np.asarray(feat, dtype=np.float64).astype(np.float32).astype(np.float64)
        if d_image is None:
            d_image = feat.shape[0]
        elif feat.shape[0] != d_image:
            raise CorpusError(f"document {doc_id!r}: inconsistent feature dimension")
        if not np.isfinite(feat).all():
            raise CorpusError(f"document {doc_id!r}: non-finite feature value")
        if not labels:
            raise CorpusError(f"document {doc_id!r}: empty label set")
        counts = {}
        for tok in sorted(tokens):
            if tok in known:
                counts[tok] = int(tokens[tok])
            else:
                dropped += int(tokens[tok])
        documents.append(
            Document(
                id=doc_id,
                image_feat=feat,
                text_counts=counts,
                timestamp=(int(epoch) - origin) / time_unit,
                labels=frozenset(labels),
            )
        )
    ids = [d.id for d in documents]
    if len(set(ids)) != len(ids):
        raise CorpusError("duplicate document ids")
    categories = sorted({lab for doc in documents for lab in doc.labels})
    return Corpus(
        documents=documents,
        vocabulary=vocabulary,
        categories=categories,
        time_axis=axis,
        d_image=d_image,
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


def tfidf_vector(text_counts: Mapping[str, int], stats: DocFrequency) -> np.ndarray:
    """TF-IDF vector, tf * ln(N/df), unit-normalized unless all-zero.

    Tokens missing from the vocabulary, or unseen in the training split
    (df = 0), contribute nothing.
    """
    v = np.zeros(len(stats.token_index), dtype=np.float64)
    for tok, count in text_counts.items():
        i = stats.token_index.get(tok)
        if i is None:
            continue
        df = stats.doc_freq[i]
        if df > 0:
            v[i] = count * math.log(stats.num_docs / df)
    norm = np.linalg.norm(v)
    if norm > 0:
        v /= norm
    return v


def tfidf_matrix(corpus: Corpus, stats: DocFrequency) -> np.ndarray:
    return np.stack([tfidf_vector(d.text_counts, stats) for d in corpus.documents])


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
