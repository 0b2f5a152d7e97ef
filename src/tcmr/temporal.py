"""Temporal correlation models backing the soft constraints.

Three interchangeable models estimate how correlated two documents are in
time, each returning values in [0, 1]:

  * recency: exponential decay in the timestamp gap;
  * category: per-category Gaussian KDE density curves over the corpus
    timespan, peak-normalized; the correlation of a pair is the density
    product under the shared category that maximizes it;
  * topic: per-word temporal densities from a chained-slice topic model
    (collapsed Gibbs LDA per time slice, each slice's topic-word counts
    seeded from the previous slice), aggregated over a document's words.

All are fitted on the training split and frozen before subspace learning.
Training asks each model once per run for ``document_table(documents)``, the
per-document values its scores are made of (timestamps, category densities,
or word profiles and effective slices), and then once per mini-batch for
``pair_matrix(table, batch, scored)``: the (b, b) matrix of the correlations
of batch rows i and j. Misses (pairs without a fitted curve or documents
without a known word) score 0 and are counted over the ``scored`` pairs
only. The topic model conditions on document i's words and document j's
timestamp, so it is asymmetric by construction. Scalar one-pair references
of every model live in the test suite (``tests/temporal_reference.py``),
which checks ``pair_matrix`` against them entry by entry and miss by miss.
Fitted models are saved as TXNT files in the layout of ``container``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import dataclass, field

import numpy as np

from .container import Container, write_container
from .corpus import Corpus, TimeAxis, label_matrix

TEMPORAL_MAGIC = b"TXNT"
TEMPORAL_VERSION = 2  # written as the header's "version" key
KIND_TAGS = {"recency": b"REC\x00", "category": b"KDE\x00", "topic": b"TOP\x00"}
_TAG_KINDS = {v: k for k, v in KIND_TAGS.items()}

DEFAULT_TOPIC_FLOOR = 1e-6
TOPIC_ALPHA_MASS = 50.0  # the document-topic prior alpha is TOPIC_ALPHA_MASS / num_topics
TOPIC_BETA_PRIOR = 0.01  # the symmetric topic-word prior
KDE_BLOCK = 64  # query points per block in gaussian_kde_density


class TemporalModelError(Exception):
    pass


def _require_positive(name, value):
    if not 0 < value < math.inf:  # False for NaN
        raise TemporalModelError(f"{name} must be positive and finite, got {value!r}")


# ---------------------------------------------------------------------------
# Recency


@dataclass(frozen=True)
class RecencyModel:
    """sim(t_i, t_j) = exp(-|t_i - t_j| / h_rec), in time units."""

    h_rec: float

    def __post_init__(self):
        _require_positive("h_rec", self.h_rec)

    kind = "recency"

    def document_table(self, documents) -> np.ndarray:
        return np.array([d.timestamp for d in documents], dtype=np.float64)

    def pair_matrix(self, table, batch, scored) -> np.ndarray:
        # math.exp per entry: np.exp differs from it in the last bit on some inputs
        t = table[batch]
        exponents = (-np.abs(t[:, None] - t[None, :]) / self.h_rec).ravel().tolist()
        return np.array([math.exp(x) for x in exponents]).reshape(len(t), len(t))


# ---------------------------------------------------------------------------
# Category KDE


def gaussian_kde_density(obs: np.ndarray, t, bandwidth: float):
    """Direct Gaussian-sum density estimate; also the grid-free oracle.

    Evaluated in blocks of ``KDE_BLOCK`` query points, so the temporaries
    are (block x observations) rather than (queries x observations); each
    point still sums over all observations in order.
    """
    t = np.asarray(t, dtype=np.float64)
    flat = t.reshape(-1)
    sums = np.empty(flat.shape)
    for start in range(0, flat.size, KDE_BLOCK):
        z = (flat[start : start + KDE_BLOCK, None] - obs) / bandwidth
        sums[start : start + KDE_BLOCK] = np.exp(-0.5 * z * z).sum(axis=-1)
    density = sums / (len(obs) * bandwidth * math.sqrt(2 * math.pi))
    return density.reshape(t.shape)[()]


@dataclass
class CategoryKDE:
    """Peak-normalized per-category density curves on a uniform grid."""

    bandwidth: float
    grid: np.ndarray
    curves: dict[str, np.ndarray]
    missing_pair_count: int = 0

    kind = "category"

    def __post_init__(self):
        _require_positive("bandwidth", self.bandwidth)

    def document_table(self, documents):
        """(densities, labelled) over the categories that have a curve.

        ``labelled[i, c]`` is 1 when document i carries category c, and
        ``densities[i, c]`` is then the curve's value at its timestamp, else 0.
        """
        cats = sorted(self.curves)
        labelled = label_matrix([d.labels for d in documents], cats)
        t = np.array([d.timestamp for d in documents], dtype=np.float64)
        densities = np.empty_like(labelled)
        for k, cat in enumerate(cats):
            densities[:, k] = np.interp(t, self.grid, self.curves[cat])
        return densities * labelled, labelled

    def pair_matrix(self, table, batch, scored) -> np.ndarray:
        """Max over shared fitted categories of the two density values' product; 0 on a miss."""
        # an unshared category has a zero factor, and products are >= 0, so
        # the max over all categories is the max over the shared ones
        densities, labelled = table
        d, lab = densities[batch], labelled[batch]
        self.missing_pair_count += int((scored & (lab @ lab.T == 0)).sum())
        return (d[:, None, :] * d[None, :, :]).max(axis=2, initial=0.0)


def fit_category_kde(train: Corpus, bandwidth: float, grid_size: int = 2048) -> CategoryKDE:
    """Fit one Gaussian-KDE curve per category with at least one observation.

    Curves are sampled on a uniform grid over the corpus timespan and
    peak-normalized so the maximum is exactly 1.
    """
    _require_positive("bandwidth", bandwidth)
    if grid_size < 2:
        raise TemporalModelError("grid_size must be >= 2")
    t_max = max(d.timestamp for d in train.documents)
    grid = np.linspace(0.0, t_max, grid_size)
    per_category: dict[str, list[float]] = {}
    for doc in train.documents:
        for lab in doc.labels:
            per_category.setdefault(lab, []).append(doc.timestamp)
    curves = {}
    for lab in sorted(per_category):
        obs = np.array(per_category[lab], dtype=np.float64)
        raw = gaussian_kde_density(obs, grid, bandwidth)
        curves[lab] = raw / raw.max()
    return CategoryKDE(bandwidth=bandwidth, grid=grid, curves=curves)


# ---------------------------------------------------------------------------
# Topic densities (chained-slice Gibbs LDA)


@dataclass
class TopicDensity:
    """Per-word temporal density profiles from the chained-slice topic model.

    ``phi`` has one row per vocabulary word, one column per effective
    (nonempty, after forward-merging) time slice; rows sum to 1.
    ``slice_map`` sends every original slice index to its effective slice.
    """

    num_topics: int
    vocabulary: list[str]
    phi: np.ndarray
    slice_map: np.ndarray
    time_axis: TimeAxis
    floor: float = DEFAULT_TOPIC_FLOOR
    aggregate: str = "geometric"
    empty_word_count: int = 0
    _token_index: dict = field(default=None, repr=False)

    kind = "topic"

    def __post_init__(self):
        _require_positive("floor", self.floor)
        if self._token_index is None:
            self._token_index = {tok: i for i, tok in enumerate(self.vocabulary)}

    @property
    def num_effective_slices(self) -> int:
        return self.phi.shape[1]

    def profile(self, tokens) -> np.ndarray | None:
        """Aggregate word-density profile over effective slices, peaking at 1.

        Computed in log space; None when no token is in the vocabulary.
        """
        ids = sorted({self._token_index[t] for t in tokens if t in self._token_index})
        if not ids:
            return None
        logq = np.log(np.maximum(self.phi[ids, :], self.floor))
        if self.aggregate == "geometric":
            m = logq.mean(axis=0)
        elif self.aggregate == "product":
            m = logq.sum(axis=0)
        else:
            raise TemporalModelError(f"unknown aggregate {self.aggregate!r}")
        return np.exp(m - m.max())

    def effective_slice(self, t: float) -> int:
        return int(self.slice_map[self.time_axis.slice_of(t)])

    def document_table(self, documents):
        """(profiles, empty, slices): each document's profile (a zero row when
        no token is known), whether it has no known token, and the effective
        slice of its timestamp."""
        profiles = np.zeros((len(documents), self.num_effective_slices))
        empty = np.zeros(len(documents), dtype=bool)
        for i, doc in enumerate(documents):
            prof = self.profile(doc.text_counts)
            if prof is None:
                empty[i] = True
            else:
                profiles[i] = prof
        slices = np.array([self.effective_slice(d.timestamp) for d in documents], dtype=np.intp)
        return profiles, empty, slices

    def pair_matrix(self, table, batch, scored) -> np.ndarray:
        """Document i's profile at document j's effective slice; 0 on a miss."""
        profiles, empty, slices = table
        self.empty_word_count += int((scored & empty[batch, None]).sum())
        return profiles[np.ix_(batch, slices[batch])]


def _gibbs_slice(doc_word_ids, num_topics, vocab_size, alpha, prior_kw, iters, rng):
    """Collapsed Gibbs sampling for one time slice.

    ``prior_kw`` is the (topics, vocab) pseudo-count matrix: the symmetric
    prior plus the scaled counts carried over from the previous slice.
    Returns the final (topics, vocab) topic-word assignment counts.

    Runs on Python lists and floats, since with a handful of topics NumPy's
    per-call overhead dominates each token's draw. The draws equal those of
    the former NumPy loop (``np.cumsum`` of ``(n_kw[:, w] + prior_kw[:, w]) /
    (n_k + prior_k) * (n_dk[d] + alpha)``, then ``np.searchsorted``): each
    term has the same operands and operations, the sum runs left to right,
    and ``bisect_left`` picks the same index.
    """
    topics = range(num_topics)
    prior_wk = prior_kw.T.tolist()
    prior_k = prior_kw.sum(axis=1).tolist()
    n_wk = [[0.0] * num_topics for _ in range(vocab_size)]
    n_dk = [[0.0] * num_topics for _ in doc_word_ids]
    n_k = [0.0] * num_topics

    assignments = []
    for d, words in enumerate(doc_word_ids):
        z = rng.integers(num_topics, size=len(words)).tolist()
        assignments.append(z)
        nd = n_dk[d]
        for w, k in zip(words, z):
            nd[k] += 1.0
            n_wk[w][k] += 1.0
            n_k[k] += 1.0

    # the factors of each topic's weight; an entry is recomputed from its count
    # whenever that count changes, so it always equals count + prior exactly
    word_terms = [[c + p for c, p in zip(nw, pw)] for nw, pw in zip(n_wk, prior_wk)]
    denoms = [c + p for c, p in zip(n_k, prior_k)]
    n_tokens = sum(len(words) for words in doc_word_ids)

    for _ in range(iters):
        uniforms = iter(rng.random(n_tokens).tolist())
        for d, words in enumerate(doc_word_ids):
            z = assignments[d]
            nd = n_dk[d]
            doc_terms = [c + alpha for c in nd]
            for pos, w in enumerate(words):
                k = z[pos]
                nw, pw, wt = n_wk[w], prior_wk[w], word_terms[w]
                nd[k] -= 1.0
                nw[k] -= 1.0
                n_k[k] -= 1.0
                doc_terms[k] = nd[k] + alpha
                wt[k] = nw[k] + pw[k]
                denoms[k] = n_k[k] + prior_k[k]
                total = 0.0
                cum = []
                for j in topics:
                    total += wt[j] / denoms[j] * doc_terms[j]
                    cum.append(total)
                k = bisect_left(cum, next(uniforms) * total)
                z[pos] = k
                nd[k] += 1.0
                nw[k] += 1.0
                n_k[k] += 1.0
                doc_terms[k] = nd[k] + alpha
                wt[k] = nw[k] + pw[k]
                denoms[k] = n_k[k] + prior_k[k]
    return np.array(n_wk, dtype=np.float64).T.copy()


def fit_topic_densities(
    train: Corpus,
    num_topics: int,
    seed: int,
    gibbs_iters: int = 60,
    kappa: float = 0.5,
    floor: float = DEFAULT_TOPIC_FLOOR,
    aggregate: str = "geometric",
) -> TopicDensity:
    """Fit per-word temporal densities with the chained-slice estimator.

    Each nonempty time slice is modelled by collapsed-Gibbs LDA whose
    topic-word counts are initialized with kappa times the previous slice's
    counts, so topics evolve along the slice chain. Empty slices are merged
    forward into the next nonempty slice. Per word and topic the slice
    distribution is normalized over time, averaged over topics, and
    normalized again, giving one temporal density vector per word.
    """
    if num_topics < 1:
        raise TemporalModelError("need at least one topic")
    if aggregate not in ("geometric", "product"):
        raise TemporalModelError(f"unknown aggregate {aggregate!r}")
    alpha = TOPIC_ALPHA_MASS / num_topics
    axis = train.time_axis
    vocab = list(train.vocabulary)
    token_index = {tok: i for i, tok in enumerate(vocab)}
    vocab_size = len(vocab)
    if vocab_size == 0:
        raise TemporalModelError("training corpus has an empty vocabulary")

    slice_docs: dict[int, list[list[int]]] = {}
    for doc in train.documents:
        ids = []
        for tok in sorted(doc.text_counts):
            ids.extend([token_index[tok]] * doc.text_counts[tok])
        slice_docs.setdefault(axis.slice_of(doc.timestamp), []).append(ids)

    nonempty = sorted(slice_docs)
    # each slice goes to the first nonempty slice at or after it, else the last one
    slice_map = np.minimum(np.searchsorted(nonempty, np.arange(axis.num_slices)), len(nonempty) - 1)

    rng = np.random.default_rng(seed)
    beta = np.zeros((len(nonempty), num_topics, vocab_size))
    prev_counts = None
    for e, s in enumerate(nonempty):
        prior_kw = np.full((num_topics, vocab_size), TOPIC_BETA_PRIOR)
        if prev_counts is not None:
            prior_kw += kappa * prev_counts
        counts = _gibbs_slice(
            slice_docs[s], num_topics, vocab_size, alpha, prior_kw, gibbs_iters, rng
        )
        smoothed = counts + prior_kw
        beta[e] = smoothed / smoothed.sum(axis=1, keepdims=True)
        prev_counts = counts

    # per word and topic, normalize over slices; then average topics and
    # renormalize so each word's profile sums to 1
    phi_wp = beta / beta.sum(axis=0, keepdims=True)
    phi = phi_wp.mean(axis=1).T  # (vocab, effective slices)
    phi /= phi.sum(axis=1, keepdims=True)

    return TopicDensity(
        num_topics=num_topics,
        vocabulary=vocab,
        phi=phi,
        slice_map=slice_map,
        time_axis=axis,
        floor=floor,
        aggregate=aggregate,
    )


# ---------------------------------------------------------------------------
# Serialization: a TXNT container (see ``container``) whose field is the kind tag


def write_temporal_model(path, model) -> None:
    if isinstance(model, RecencyModel):
        header, arrays = {"h_rec": model.h_rec}, []
    elif isinstance(model, CategoryKDE):
        cats = sorted(model.curves)
        header = {"bandwidth": model.bandwidth, "grid_size": len(model.grid), "categories": cats}
        arrays = [model.grid, *(model.curves[c] for c in cats)]
    elif isinstance(model, TopicDensity):
        header = {
            "num_topics": model.num_topics,
            "vocabulary": model.vocabulary,
            "floor": model.floor,
            "aggregate": model.aggregate,
            "num_effective_slices": model.num_effective_slices,
            "time_axis": {
                "unit": model.time_axis.unit,
                "origin": model.time_axis.origin,
                "num_slices": model.time_axis.num_slices,
            },
        }
        arrays = [model.phi, model.slice_map]
    else:
        raise TemporalModelError(f"cannot serialize {type(model).__name__}")
    write_container(path, TEMPORAL_MAGIC, KIND_TAGS[model.kind],
                    dict(header, version=TEMPORAL_VERSION), arrays)


def _read_model(box, kind):
    def require(ok, fault):
        if not ok:
            raise TemporalModelError(f"{box.path}: {fault}")

    header = box.header
    if kind == "recency":
        box.arrays([])
        return RecencyModel(h_rec=header["h_rec"])
    if kind == "category":
        cats = header["categories"]
        require(len(set(cats)) == len(cats), "repeated entry in categories")
        grid, *curves = box.arrays([(header["grid_size"],)] * (1 + len(cats)))
        require(len(grid) >= 2 and (np.diff(grid) >= 0).all(),
                "the KDE grid needs at least 2 points in non-decreasing order")
        require(all(((c >= 0) & (c <= 1)).all() for c in curves), "KDE curve values outside [0, 1]")
        return CategoryKDE(bandwidth=header["bandwidth"], grid=grid, curves=dict(zip(cats, curves)))
    vocab = header["vocabulary"]
    require(len(set(vocab)) == len(vocab), "repeated entry in vocabulary")
    axis = TimeAxis(**header["time_axis"])
    phi, slice_map = box.arrays([(len(vocab), header["num_effective_slices"]), (axis.num_slices,)])
    require(((slice_map % 1 == 0) & (slice_map >= 0) & (slice_map < phi.shape[1])).all(),
            f"slice_map entries must be integers in [0, {phi.shape[1]})")
    return TopicDensity(
        num_topics=header["num_topics"], vocabulary=vocab, phi=phi,
        slice_map=slice_map.astype(np.int64), time_axis=axis,
        floor=header["floor"], aggregate=header["aggregate"],
    )


def read_temporal_model(path):
    box = Container(path, TEMPORAL_MAGIC, TemporalModelError)
    kind = _TAG_KINDS.get(box.field)
    if kind is None:
        raise TemporalModelError(f"{path}: unknown model kind")
    version = box.header.get("version", 1)  # version 1 headers had no version key
    if version != TEMPORAL_VERSION:
        raise TemporalModelError(
            f"{path}: TXNT version {version} is not supported, only version"
            f" {TEMPORAL_VERSION}; re-run fit-temporal to rewrite the model"
        )
    try:
        return _read_model(box, kind)
    except (KeyError, TypeError, ValueError) as exc:
        raise TemporalModelError(f"{path}: malformed {kind} header ({exc!r})") from None
