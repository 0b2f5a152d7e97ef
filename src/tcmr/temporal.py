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

All are fitted on the training split and frozen before subspace learning:
each model is a frozen dataclass holding the arrays it scores with, and its
constructor owns every rule a fitted model must meet, so fitters, the TXNT
reader and direct construction share one rule. There are no scalar one-pair
helpers: training asks each model once per run for
``document_table(corpus)``, the per-document values its scores are made
of, and then once per mini-batch for ``pair_matrix(table, batch)``: the
(b, b) matrix of the correlations of batch rows i and j, with no other
effect. Misses (pairs without a shared fitted curve, or document i without a
known word) score 0. The topic model conditions on document i's words and
document j's timestamp, so it is asymmetric by construction. The tests check
``pair_matrix`` against scalar references (``tests/temporal_reference.py``).
Fitted models are saved as TXNT files in the layout of ``container``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass

import numpy as np

from .container import Container, write_container
from .corpus import Corpus, CorpusError, TimeAxis, label_matrix, positive_finite

TEMPORAL_MAGIC = b"TXNT"
TEMPORAL_VERSION = 2  # written as the header's "version" key
KIND_TAGS = {"recency": b"REC\x00", "category": b"KDE\x00", "topic": b"TOP\x00"}
_TAG_KINDS = {v: k for k, v in KIND_TAGS.items()}

TOPIC_ALPHA_MASS = 50.0  # the document-topic prior alpha is TOPIC_ALPHA_MASS / num_topics
TOPIC_BETA_PRIOR = 0.01  # the symmetric topic-word prior
KDE_BLOCK = 64  # query points per block in gaussian_kde_density


class TemporalModelError(Exception):
    pass


def _require(ok, fault):
    if not ok:
        raise TemporalModelError(fault)


def _require_positive(name, value):
    _require(positive_finite(value),
             f"{name} must be positive and finite (an int or a float), got {value!r}")


def _require_names(name, values):
    _require(isinstance(values, list) and all(isinstance(v, str) for v in values),
             f"{name} must be a list of strings")
    _require(len(set(values)) == len(values), f"repeated entry in {name}")


# ---------------------------------------------------------------------------
# Recency


@dataclass(frozen=True)
class RecencyModel:
    """sim(t_i, t_j) = exp(-|t_i - t_j| / h_rec), in time units."""

    h_rec: float

    def __post_init__(self):
        _require_positive("h_rec", self.h_rec)

    kind = "recency"

    def document_table(self, corpus: Corpus) -> np.ndarray:
        return corpus.timestamps

    def pair_matrix(self, table, batch) -> np.ndarray:
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


@dataclass(frozen=True)
class CategoryKDE:
    """Peak-normalized per-category density curves on a uniform grid."""

    bandwidth: float
    grid: np.ndarray
    categories: list[str]
    curves: np.ndarray  # row c is the curve of categories[c], sampled at grid

    kind = "category"

    def __post_init__(self):
        _require_positive("bandwidth", self.bandwidth)
        _require_names("categories", self.categories)
        _require(np.ndim(self.grid) == 1 and len(self.grid) >= 2
                 and (np.diff(self.grid) >= 0).all(),
                 "the KDE grid needs at least 2 points in non-decreasing order")
        _require(np.shape(self.curves) == (len(self.categories), len(self.grid)),
                 "KDE curves need one row per category and one column per grid point")
        _require(((self.curves >= 0) & (self.curves <= 1)).all(), "KDE curve values outside [0, 1]")

    def document_table(self, corpus: Corpus) -> np.ndarray:
        """(n, categories): the curve of category c at document i's timestamp
        when document i carries c, else 0."""
        labelled = label_matrix(corpus.label_sets, self.categories)
        densities = np.empty_like(labelled)
        for k, curve in enumerate(self.curves):
            densities[:, k] = np.interp(corpus.timestamps, self.grid, curve)
        return densities * labelled

    def pair_matrix(self, table, batch) -> np.ndarray:
        """Max over shared fitted categories of the two density values' product; 0 on a miss."""
        # an unshared category has a zero factor, and products are >= 0, so
        # the max over all categories is the max over the shared ones
        d = table[batch]
        out = np.zeros((len(d), len(d)))
        for col in d.T:
            np.maximum(out, np.multiply.outer(col, col), out=out)
        return out


def fit_category_kde(train: Corpus, bandwidth: float, grid_size: int) -> CategoryKDE:
    """Fit one Gaussian-KDE curve per category with at least one observation.

    Curves are sampled on a uniform grid over the corpus timespan and
    peak-normalized so the maximum is exactly 1.
    """
    _require_positive("bandwidth", bandwidth)
    t, labels = train.timestamps, train.label_sets
    grid = np.linspace(0.0, t.max(), grid_size)
    cats = sorted(set().union(*labels))
    raw = np.array([gaussian_kde_density(t[member > 0], grid, bandwidth)
                    for member in label_matrix(labels, cats).T])
    return CategoryKDE(bandwidth=bandwidth, grid=grid, categories=cats,
                       curves=raw / raw.max(axis=1, keepdims=True))


# ---------------------------------------------------------------------------
# Topic densities (chained-slice Gibbs LDA)


@dataclass(frozen=True)
class TopicDensity:
    """Per-word temporal density profiles from the chained-slice topic model.

    ``phi`` has one row per vocabulary word, one column per effective
    (nonempty, after forward-merging) time slice; rows sum to 1.
    ``slice_map`` sends every slice of ``time_axis`` to its effective slice.
    """

    num_topics: int
    vocabulary: list[str]
    phi: np.ndarray
    slice_map: np.ndarray
    time_axis: TimeAxis
    floor: float
    aggregate: str

    kind = "topic"

    def __post_init__(self):
        _require(type(self.num_topics) is int and self.num_topics >= 1,  # bool is not int here
                 f"num_topics must be an int >= 1, got {self.num_topics!r}")
        _require_names("vocabulary", self.vocabulary)
        _require(np.ndim(self.phi) == 2 and len(self.phi) == len(self.vocabulary),
                 "phi needs one row per vocabulary word")
        _require(np.shape(self.slice_map) == (self.time_axis.num_slices,),
                 "slice_map needs one entry per time slice")
        s, e = self.slice_map, self.num_effective_slices
        _require(((s % 1 == 0) & (s >= 0) & (s < e)).all(),
                 f"slice_map entries must be integers in [0, {e})")
        object.__setattr__(self, "slice_map", s.astype(np.int64))
        _require_positive("floor", self.floor)
        _require(self.aggregate in ("geometric", "product"),
                 f"unknown aggregate {self.aggregate!r}")

    @property
    def num_effective_slices(self) -> int:
        return self.phi.shape[1]

    def document_table(self, corpus: Corpus):
        """(profiles, slices): each document's profile (the mean or, for
        ``product``, the sum of log(max(phi, floor)) over its known words, shifted
        to peak at 1 after exp; a zero row when none is known) and the effective
        slice of its timestamp."""
        n = len(corpus)
        column = {tok: i for i, tok in enumerate(self.vocabulary)}
        log_phi = np.log(np.maximum(self.phi, self.floor))
        # each document's known words as rows of phi, in ascending order; unknown words last
        to_phi = np.array([column.get(tok, -1) for tok in corpus.vocabulary], dtype=np.intp)
        doc = np.repeat(np.arange(n), np.diff(corpus.text.indptr))
        word = to_phi[corpus.text.indices]
        by_word = np.lexsort((word, doc, word < 0))[:np.count_nonzero(word >= 0)]
        doc, word = doc[by_word], word[by_word]
        counts = np.bincount(doc, minlength=n)
        # the j-th known word of every document that has one, j = 0, 1, ...: rows are
        # added in the order a sum over axis 0 of the document's own rows adds them
        rank = np.arange(len(doc)) - np.repeat(np.cumsum(counts) - counts, counts)
        by_rank = np.argsort(rank, kind="stable")
        cuts = np.cumsum(np.bincount(rank, minlength=counts.max(initial=0)))
        m = np.zeros((n, self.num_effective_slices))
        for take in np.split(by_rank, cuts[:-1]):
            m[doc[take]] += log_phi[word[take]]
        has = np.flatnonzero(counts)
        m = m[has]
        if self.aggregate == "geometric":
            m /= counts[has, None]
        profiles = np.zeros((n, self.num_effective_slices))
        profiles[has] = np.exp(m - m.max(axis=1, keepdims=True))
        slices = self.slice_map[self.time_axis.slice_of(corpus.timestamps)]
        return profiles, slices

    def pair_matrix(self, table, batch) -> np.ndarray:
        """Document i's profile at document j's effective slice; 0 on a miss."""
        profiles, slices = table
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
    gibbs_iters: int,
    kappa: float,
    floor: float,
    aggregate: str,
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
    alpha = TOPIC_ALPHA_MASS / num_topics
    axis = train.time_axis
    vocab = list(train.vocabulary)
    vocab_size = len(vocab)

    # each document's word ids, one per occurrence, in its row's token order
    word_ids = np.repeat(train.text.indices, train.text.counts).tolist()
    bounds = np.concatenate([[0], np.cumsum(train.text.counts)])[train.text.indptr].tolist()
    slice_docs: dict[int, list[list[int]]] = {}
    for start, stop, s in zip(bounds, bounds[1:], axis.slice_of(train.timestamps).tolist()):
        slice_docs.setdefault(s, []).append(word_ids[start:stop])

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
        header = {"bandwidth": model.bandwidth, "grid_size": len(model.grid),
                  "categories": model.categories}
        arrays = [model.grid, model.curves]
    elif isinstance(model, TopicDensity):
        header = {
            "num_topics": model.num_topics,
            "vocabulary": model.vocabulary,
            "floor": model.floor,
            "aggregate": model.aggregate,
            "num_effective_slices": model.num_effective_slices,
            "time_axis": asdict(model.time_axis),
        }
        arrays = [model.phi, model.slice_map]
    else:
        raise TemporalModelError(f"cannot serialize {type(model).__name__}")
    write_container(path, TEMPORAL_MAGIC, KIND_TAGS[model.kind],
                    dict(header, version=TEMPORAL_VERSION), arrays)


def _read_model(box, kind):
    """Read the arrays; return the call that builds the model from them and the header."""
    h = box.header
    if kind == "recency":
        box.arrays([])
        return lambda: RecencyModel(h_rec=h["h_rec"])
    if kind == "category":
        size = h["grid_size"]
        grid, curves = box.arrays([(size,), (len(h["categories"]), size)])
        return lambda: CategoryKDE(bandwidth=h["bandwidth"], grid=grid,
                                   categories=h["categories"], curves=curves)
    axis = h["time_axis"]
    phi, slice_map = box.arrays([(len(h["vocabulary"]), h["num_effective_slices"]),
                                 (axis["num_slices"],)])
    return lambda: TopicDensity(
        num_topics=h["num_topics"], vocabulary=h["vocabulary"], phi=phi, slice_map=slice_map,
        time_axis=TimeAxis(**axis), floor=h["floor"], aggregate=h["aggregate"],
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
        build = _read_model(box, kind)  # the box's own faults name the path already
        try:
            return build()
        except (TemporalModelError, CorpusError) as exc:
            raise TemporalModelError(f"{path}: {exc}") from None
    except (KeyError, TypeError, ValueError) as exc:
        raise TemporalModelError(f"{path}: malformed {kind} header ({exc!r})") from None
