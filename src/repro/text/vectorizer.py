"""tf*idf document vectors over a lazily-maintained corpus statistic.

BINGO! computes document vectors "according to the standard bag-of-words
model, using stopword elimination, Porter stemming, and tf*idf based term
weighting", where idf is "logarithmically dampened" and the *local document
database* approximates the corpus; idf is recomputed "lazily upon each
retraining" (paper section 2.2).  :class:`CorpusStatistics` implements that
lazy contract: document frequencies are updated on every ingest, but the
idf snapshot used for weighting only changes when :meth:`CorpusStatistics.
refresh` is called (the engine calls it at each retraining point).
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass, field

__all__ = [
    "SparseVector",
    "CorpusStatistics",
    "TfIdfVectorizer",
    "cosine_similarity",
]


@dataclass(frozen=True)
class SparseVector:
    """An immutable sparse feature vector (feature name -> weight).

    Feature names are strings so that heterogeneous feature spaces (terms,
    term pairs, anchor terms...) can coexist in one vector; the classifier
    does not need to know how features were constructed (section 3.4).
    """

    weights: Mapping[str, float]

    def __post_init__(self) -> None:
        object.__setattr__(self, "weights", dict(self.weights))
        # Cached Euclidean norm; not a dataclass field so equality and
        # repr stay weight-only.  Vectors are immutable, so the norm
        # can never go stale.
        object.__setattr__(self, "_norm", None)

    def __len__(self) -> int:
        return len(self.weights)

    def __iter__(self):
        return iter(self.weights.items())

    @property
    def norm(self) -> float:
        cached = self._norm
        if cached is None:
            cached = math.sqrt(sum(w * w for w in self.weights.values()))
            object.__setattr__(self, "_norm", cached)
        return cached

    def dot(self, other: "SparseVector") -> float:
        a, b = self.weights, other.weights
        if len(b) < len(a):
            a, b = b, a
        return sum(w * b[f] for f, w in a.items() if f in b)

    def normalized(self) -> "SparseVector":
        """Return a unit-norm copy (self if the vector is empty/zero)."""
        n = self.norm
        if n == 0.0:
            return self
        return SparseVector({f: w / n for f, w in self.weights.items()})

    def project(self, features: Iterable[str]) -> "SparseVector":
        """Restrict the vector to ``features`` (the selected feature set)."""
        if isinstance(features, (set, frozenset)):
            keep = features
        else:
            keep = set(features)
        return SparseVector(
            {f: w for f, w in self.weights.items() if f in keep}
        )


def cosine_similarity(a: SparseVector, b: SparseVector) -> float:
    """Cosine of the angle between two sparse vectors (0.0 if either is zero)."""
    denom = a.norm * b.norm
    if denom == 0.0:
        return 0.0
    # clamp: rounding on near-parallel vectors can push the ratio past 1
    return max(-1.0, min(1.0, a.dot(b) / denom))


@dataclass
class CorpusStatistics:
    """Document-frequency bookkeeping with an explicit idf snapshot.

    ``add_document`` updates live counts; ``refresh`` promotes them into the
    idf snapshot actually used for weighting.  This reproduces BINGO!'s lazy
    idf recomputation at retraining points.
    """

    document_count: int = 0
    document_frequency: Counter = field(default_factory=Counter)
    _snapshot_n: int = 0
    _snapshot_df: dict[str, int] = field(default_factory=dict)
    _snapshot_version: int = 0
    _idf_cache: dict[str, float] = field(default_factory=dict)

    def add_document(self, terms: Iterable[str]) -> None:
        """Record one document's distinct terms into the live counts."""
        self.document_count += 1
        self.document_frequency.update(set(terms))

    def remove_document(self, terms: Iterable[str]) -> None:
        """Retract one document's distinct terms from the live counts.

        The exact inverse of :meth:`add_document`: df counts are
        integers, so an add/remove pair leaves the statistics
        value-identical to never having ingested the document at all --
        the property the living portal's incremental idf update is
        proven against.  Terms whose df reaches zero are deleted so the
        live counts match a from-scratch recount key-for-key.
        """
        self.document_count -= 1
        frequency = self.document_frequency
        for term in sorted(set(terms)):
            remaining = frequency[term] - 1
            if remaining > 0:
                frequency[term] = remaining
            else:
                del frequency[term]

    def refresh(self) -> None:
        """Promote live counts into the idf snapshot (called at retraining)."""
        self._snapshot_n = self.document_count
        self._snapshot_df = dict(self.document_frequency)
        self._snapshot_version += 1
        self._idf_cache = {}

    @property
    def snapshot_version(self) -> int:
        """Monotonic idf-snapshot counter; cached vectors are valid only
        for the version they were computed under."""
        return self._snapshot_version

    def idf(self, term: str) -> float:
        """Log-dampened inverse document frequency from the snapshot.

        ``idf(t) = log(1 + N / df(t))``; unseen terms get the maximal
        idf ``log(1 + N)`` so that novel topic-specific vocabulary is not
        suppressed.  With an empty snapshot every idf is 1.0 (pure tf),
        which is the state of a freshly-started crawl.
        """
        n = self._snapshot_n
        if n == 0:
            return 1.0
        cached = self._idf_cache.get(term)
        if cached is not None:
            return cached
        df = self._snapshot_df.get(term, 0)
        value = math.log(1.0 + n) if df == 0 else math.log(1.0 + n / df)
        self._idf_cache[term] = value
        return value


class _Dampening(dict[int, float]):
    """``tf -> 1 + log(tf)``, computed on first use."""

    def __missing__(self, tf: int) -> float:
        value = self[tf] = 1.0 + math.log(tf)
        return value


#: the ``1 + log tf`` table every vectorizer shares
_DAMPENED = _Dampening()


class TfIdfVectorizer:
    """Build tf*idf :class:`SparseVector` documents against a corpus.

    Term frequencies are dampened as ``1 + log(tf)`` (standard log-tf),
    multiplied by the corpus snapshot idf.
    """

    def __init__(self, statistics: CorpusStatistics | None = None) -> None:
        self.statistics = statistics or CorpusStatistics()

    def ingest(self, terms: Iterable[str]) -> None:
        """Add a document to the corpus statistics (live counts only)."""
        self.statistics.add_document(terms)

    def retract(self, terms: Iterable[str]) -> None:
        """Remove a document from the corpus statistics (live counts)."""
        self.statistics.remove_document(terms)

    def refresh(self) -> None:
        """Recompute the idf snapshot (BINGO! does this on retraining)."""
        self.statistics.refresh()

    @property
    def snapshot_version(self) -> int:
        return self.statistics.snapshot_version

    def vectorize(self, terms: Iterable[str]) -> SparseVector:
        """Turn a term multiset into a tf*idf vector under the snapshot."""
        return self.vectorize_counts(Counter(terms))

    def vectorize_counts(self, counts: Mapping[str, int]) -> SparseVector:
        """The one tf*idf weight: ``(1 + log tf) * idf`` per positive
        count, in ``counts`` order.

        idf comes from the snapshot's memo in one probe per term;
        :meth:`CorpusStatistics.idf` (which fills the memo) runs only on
        a miss.  An idf is never 0.0, so ``or`` tells a miss.
        """
        statistics = self.statistics
        memo = statistics._idf_cache.get
        idf = statistics.idf
        dampened = _DAMPENED
        return SparseVector({
            term: dampened[tf] * (memo(term) or idf(term))
            for term, tf in counts.items()
            if tf > 0
        })
