"""Synthetic timestamped bimodal corpora with planted structure.

Each category owns a Gaussian mixture over the timespan (its temporal
modes), an image prototype, and a word distribution. A nonzero drift rate
makes prototypes and word usage mode-specific by interpolating between two
per-category endpoints as a function of the mode index, so temporally
separated modes of one category look and read differently; with drift 0
every mode of a category shares one exact prototype and word distribution.

Also provides definitional metric oracles used to validate the retrieval
module's vectorized implementations.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

import numpy as np

from .corpus import DEFAULT_TIME_UNIT, Corpus, epoch_seconds, from_records


class SynthError(ValueError):
    pass


@dataclass
class SynthSpec:
    """Generator parameters; the ``synth`` command's flags hold their defaults."""

    num_categories: int
    docs_per_category: int
    timespan: float  # in time units
    modes: list  # [(center, width, weight), ...] shared, or one list per category
    d_image: int
    image_noise: float
    vocab_size: int
    words_per_doc: int
    word_concentration: float
    drift: float
    seed: int

    def __post_init__(self):
        if self.num_categories < 1 or self.docs_per_category < 1:
            raise SynthError("need at least one category and one document per category")
        if not 0 < self.timespan < math.inf:  # NaN fails each of these
            raise SynthError(f"timespan must be positive and finite, got {self.timespan!r}")
        if self.d_image < 1:
            raise SynthError("d_image must be >= 1")
        if not 0 <= self.image_noise < math.inf:
            raise SynthError(f"image_noise must be finite and >= 0, got {self.image_noise!r}")
        if self.vocab_size < 1:
            raise SynthError("vocab_size must be >= 1")
        if self.words_per_doc < 1:
            raise SynthError("words_per_doc must be >= 1")
        if not 0 < self.word_concentration < math.inf:
            raise SynthError("word_concentration must be positive and finite")
        if not 0 <= self.drift < math.inf:
            raise SynthError(f"drift must be finite and >= 0, got {self.drift!r}")
        if self.seed < 0:
            raise SynthError(f"seed must be >= 0, got {self.seed}")

    def modes_for(self, category: int) -> list[tuple[float, float, float]]:
        per_cat = self.modes and isinstance(self.modes[0], list)
        modes = self.modes[category] if per_cat else self.modes
        if not modes:
            raise SynthError(f"category {category} has no temporal modes")
        total = sum(w for _, _, w in modes)
        if not abs(total - 1.0) <= 1e-9:  # NaN fails
            raise SynthError(f"category {category}: mode weights sum to {total}, not 1")
        if any(w < 0 for _, _, w in modes):
            raise SynthError(f"category {category}: mode weights must be non-negative")
        for center, width, _ in modes:
            if not 0 < width < math.inf:
                raise SynthError(f"category {category}: mode width must be positive and finite")
            if not 0 <= center <= self.timespan:
                raise SynthError("mode center outside the timespan")
        return [tuple(m) for m in modes]


@dataclass
class SynthTruth:
    """Everything the generator knows: per-category modes, prototypes, word
    distributions (per mode), and each document's (category, mode) source."""

    category_modes: list[list[tuple[float, float, float]]]
    prototypes: list[list[np.ndarray]]
    word_dists: list[list[np.ndarray]]
    doc_source: dict[str, tuple[int, int]] = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "category_modes": [
                [list(map(float, m)) for m in modes] for modes in self.category_modes
            ],
            "doc_source": {k: list(v) for k, v in self.doc_source.items()},
        }


def _unit(v):
    return v / np.linalg.norm(v)


def choice_replay(p):
    """A draw ``rng -> int`` equal to ``rng.choice(len(p), p=p)``, without its check of ``p``
    (the caller's: non-negative, positive sum). As ``choice`` does, it searches one
    ``rng.random()`` on the right side of the cumulative sum of ``p`` over its last entry."""
    cdf = np.asarray(p, dtype=np.float64).cumsum()
    cdf = (cdf / cdf[-1]).tolist()
    return lambda rng: bisect_right(cdf, rng.random())


def generate(spec: SynthSpec) -> tuple[Corpus, SynthTruth]:
    """Sample a corpus from the spec; deterministic given the seed, and byte-identical
    to earlier versions. After its category's draws, each document draws, in order: one
    ``random()`` for its mode (as ``rng.choice`` with the weights would), a normal time
    redrawn up to 20 times while outside the timespan, image noise if any, and its words.
    A time t becomes the epoch ``epoch_seconds(t * DEFAULT_TIME_UNIT)``, the manifest's rule."""
    rng = np.random.default_rng(spec.seed)
    vocab = [f"w{i:04d}" for i in range(spec.vocab_size)]

    category_modes, prototypes, word_dists = [], [], []
    for c in range(spec.num_categories):
        modes = spec.modes_for(c)
        category_modes.append(modes)
        proto_a = _unit(rng.normal(size=spec.d_image))
        proto_b = _unit(rng.normal(size=spec.d_image))
        words_a = rng.dirichlet(np.full(spec.vocab_size, spec.word_concentration))
        words_b = rng.dirichlet(np.full(spec.vocab_size, spec.word_concentration))
        protos_c, words_c = [], []
        for m in range(len(modes)):
            u = 0.0 if len(modes) == 1 else min(1.0, spec.drift * m / (len(modes) - 1))
            protos_c.append(proto_a if u == 0.0 else _unit((1 - u) * proto_a + u * proto_b))
            words_c.append((1 - u) * words_a + u * words_b)
        prototypes.append(protos_c)
        word_dists.append(words_c)

    truth = SynthTruth(
        category_modes=category_modes, prototypes=prototypes, word_dists=word_dists
    )
    records = []
    counter = 0
    for c in range(spec.num_categories):
        modes, protos, dists = category_modes[c], prototypes[c], word_dists[c]
        draw_mode = choice_replay([w for _, _, w in modes])
        for _ in range(spec.docs_per_category):
            m = draw_mode(rng)
            center, width, _ = modes[m]
            t = float(rng.normal(center, width))
            for _ in range(20):
                if 0.0 <= t <= spec.timespan:
                    break
                t = float(rng.normal(center, width))
            t = min(max(t, 0.0), spec.timespan)

            feat = protos[m]
            if spec.image_noise > 0:
                feat = feat + spec.image_noise * rng.normal(size=spec.d_image)
            counts = rng.multinomial(spec.words_per_doc, dists[m]).tolist()
            tokens = {vocab[i]: n for i, n in enumerate(counts) if n}

            doc_id = f"doc{counter:05d}"
            counter += 1
            epoch = epoch_seconds(t * DEFAULT_TIME_UNIT)
            records.append((doc_id, feat, tokens, epoch, [f"cat{c:02d}"]))
            truth.doc_source[doc_id] = (c, m)

    corpus = from_records(records, time_unit=DEFAULT_TIME_UNIT, vocabulary=vocab)
    return corpus, truth


# ---------------------------------------------------------------------------
# Definitional metric oracles


def oracle_ap(scores, relevance, k: int):
    """Average precision at k, straight from the definition.

    Candidates are ranked by score descending with ties broken by index;
    precision is accumulated at every relevant rank within the cutoff and
    normalized by min(R, k). Returns None when nothing is relevant.
    """
    scores = list(scores)
    relevance = [bool(r) for r in relevance]
    total_relevant = sum(relevance)
    if total_relevant == 0:
        return None
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    hits = 0
    acc = 0.0
    for rank, i in enumerate(order[:k], start=1):
        if relevance[i]:
            hits += 1
            acc += hits / rank
    return acc / min(total_relevant, k)


def oracle_ndcg(scores, grades, k: int, gain: str = "linear"):
    """nDCG at k from the definition; None when the ideal ranking is empty."""
    scores = list(scores)
    grades = [float(g) for g in grades]
    if gain == "exponential":
        grades = [2.0**g - 1.0 for g in grades]
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    dcg = sum(grades[i] / math.log2(rank + 1) for rank, i in enumerate(order[:k], start=1))
    ideal = sorted(grades, reverse=True)
    idcg = sum(g / math.log2(rank + 1) for rank, g in enumerate(ideal[:k], start=1))
    if idcg == 0.0:
        return None
    return dcg / idcg
