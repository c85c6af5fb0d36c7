"""Topic vocabularies for the synthetic Web corpus.

Focused crawling rests on documents of one topic sharing characteristic
vocabulary that competing topics lack, on sibling topics sharing a broader
*category* vocabulary (the "theorem discriminates math from agriculture
but not algebra from stochastics" effect of paper section 2.3), and on a
large "common-sense" background vocabulary shared by everything.

:class:`TopicUniverse` builds that three-layer structure deterministically
from a seed:

* one background vocabulary shared by every page;
* one category vocabulary per top-level category (science, sports, ...);
* one specific vocabulary per topic, seeded with a few human-readable
  signature words (e.g. ``recovery``, ``logging`` for the ARIES topic) and
  filled with pronounceable pseudo-words so no two topics collide by
  accident.

Sampling follows a Zipf law inside each vocabulary, which yields realistic
tf/df distributions for the MI feature selection and tf*idf weighting.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = ["WordFactory", "Vocabulary", "TopicSpec", "TopicUniverse"]

_CONSONANTS = "bcdfghjklmnprstvz"
_VOWELS = "aeiou"

# words per vocabulary layer
BACKGROUND_SIZE = 1200
CATEGORY_SIZE = 300
TOPIC_SIZE = 160
#: the Zipf exponent of every vocabulary a universe builds
ZIPF_EXPONENT = 1.1


class WordFactory:
    """Generates distinct pronounceable pseudo-words, deterministically."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self._seen: set[str] = set()

    def word(self, syllables: int = 3) -> str:
        """Return a fresh CV-syllable word not produced before."""
        for _ in range(1000):
            parts = []
            for _ in range(syllables):
                c = _CONSONANTS[self._rng.integers(len(_CONSONANTS))]
                v = _VOWELS[self._rng.integers(len(_VOWELS))]
                parts.append(c + v)
            candidate = "".join(parts)
            if candidate not in self._seen:
                self._seen.add(candidate)
                return candidate
        raise RuntimeError("word factory exhausted")  # pragma: no cover

    def words(self, count: int, syllables: int = 3) -> list[str]:
        return [self.word(syllables) for _ in range(count)]


@dataclass
class Vocabulary:
    """A ranked word list sampled under a Zipf(s) law."""

    words: list[str]
    zipf_exponent: float = ZIPF_EXPONENT
    _cdf: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if not self.words:
            raise ValueError("vocabulary must contain at least one word")
        ranks = np.arange(1, len(self.words) + 1, dtype=float)
        weights = ranks ** (-self.zipf_exponent)
        self._cdf = np.cumsum(weights / weights.sum())

    def sample(self, rng: np.random.Generator, count: int) -> list[str]:
        """Draw ``count`` words (with repetition) under the Zipf law."""
        if count <= 0:
            return []
        draws = rng.random(count)
        indices = np.searchsorted(self._cdf, draws, side="left")
        return [self.words[i] for i in indices]

    def __len__(self) -> int:
        return len(self.words)

    def __contains__(self, word: str) -> bool:
        return word in set(self.words)


@dataclass
class TopicSpec:
    """One topic: its category, signature words and private vocabulary."""

    name: str
    category: str
    vocabulary: Vocabulary
    signature: list[str]


class TopicUniverse:
    """The three-layer vocabulary model for a synthetic Web.

    ``topic_mixture(topic, specificity)`` yields the sampling weights used
    by the corpus renderer: ``specificity`` goes to the topic vocabulary,
    a fixed share to the category layer, and the rest to background.
    """

    #: human-readable seeds per well-known topic, for debuggability of
    #: feature-selection output (compare paper section 2.3's stem list).
    SIGNATURES: dict[str, list[str]] = {
        "databases": [
            "database", "query", "transaction", "index", "relational",
            "recovery", "schema", "join", "concurrency", "storage",
        ],
        "datamining": [
            "mining", "knowledge", "olap", "pattern", "genetic",
            "discovery", "cluster", "dataset", "frequent", "association",
        ],
        "ir": [
            "retrieval", "ranking", "precision", "recall", "corpus",
            "relevance", "indexing", "tfidf", "document", "crawler",
        ],
        "aries": [
            "aries", "recovery", "logging", "undo", "redo", "checkpoint",
            "latch", "pageid", "lsn", "rollback",
        ],
        "opensource": [
            "source", "code", "release", "license", "repository",
            "build", "download", "version", "project", "distribution",
        ],
    }

    def __init__(
        self,
        topics: dict[str, str],
        seed: int = 0,
        sibling_overlap: float = 0.25,
    ) -> None:
        """Create vocabularies for ``topics`` (mapping topic -> category).

        ``sibling_overlap`` is the fraction of each topic's non-signature
        vocabulary drawn from a per-category *jargon pool* shared by the
        sibling topics -- real topics are not vocabulary-disjoint, and
        the shared words land at random Zipf ranks, so a term can be
        frequent in one topic and occasional in its sibling (polysemy /
        shared jargon).  Signature words stay private to their topic.
        """
        if not 0.0 <= sibling_overlap < 1.0:
            raise ValueError("sibling_overlap must be in [0, 1)")
        rng = np.random.default_rng(seed)
        factory = WordFactory(rng)
        self.background = Vocabulary(
            factory.words(BACKGROUND_SIZE, syllables=2), ZIPF_EXPONENT
        )
        self.categories: dict[str, Vocabulary] = {}
        jargon_pools: dict[str, list[str]] = {}
        for category in sorted(set(topics.values())):
            self.categories[category] = Vocabulary(
                factory.words(CATEGORY_SIZE), ZIPF_EXPONENT
            )
            jargon_pools[category] = factory.words(TOPIC_SIZE)
        self.topics: dict[str, TopicSpec] = {}
        for name, category in topics.items():
            signature = list(self.SIGNATURES.get(name, []))
            n_filler = max(TOPIC_SIZE - len(signature), 0)
            n_shared = int(round(n_filler * sibling_overlap))
            filler = factory.words(n_filler - n_shared)
            pool = jargon_pools[category]
            shared = [
                pool[i]
                for i in rng.choice(len(pool), size=n_shared, replace=False)
            ]
            # interleave shared jargon at random ranks (ranks drive the
            # Zipf sampling weight, so placement matters)
            words = signature + filler
            for word in shared:
                position = int(rng.integers(len(signature), len(words) + 1))
                words.insert(position, word)
            self.topics[name] = TopicSpec(
                name=name,
                category=category,
                vocabulary=Vocabulary(words, ZIPF_EXPONENT),
                signature=signature,
            )

    def topic_names(self) -> list[str]:
        return sorted(self.topics)

    def spec(self, topic: str) -> TopicSpec:
        try:
            return self.topics[topic]
        except KeyError:
            raise KeyError(f"unknown topic {topic!r}") from None

    def sample_terms(
        self,
        rng: np.random.Generator,
        length: int,
        topic: str | None,
        specificity: float,
        category_share: float = 0.25,
    ) -> list[str]:
        """Sample a document's term sequence.

        ``specificity`` is the fraction of tokens drawn from the topic's
        private vocabulary; ``category_share`` from its category layer;
        the remainder comes from the shared background.  With ``topic``
        None (pure background page) everything is background.
        """
        if not 0.0 <= specificity <= 1.0:
            raise ValueError(f"specificity must be in [0, 1], got {specificity}")
        if topic is None:
            return self.background.sample(rng, length)
        spec = self.spec(topic)
        n_topic = int(round(length * specificity))
        n_category = int(round(length * min(category_share, 1.0 - specificity)))
        n_background = max(length - n_topic - n_category, 0)
        terms = (
            spec.vocabulary.sample(rng, n_topic)
            + self.categories[spec.category].sample(rng, n_category)
            + self.background.sample(rng, n_background)
        )
        # Interleave deterministically so term-pair features see a mix.
        order = rng.permutation(len(terms))
        return [terms[i] for i in order]
