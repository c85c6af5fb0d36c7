"""Topic-specific Mutual-Information feature selection (paper section 2.3).

For each topic the selector ranks candidate features by

    MI(X, V) = P[X and V] * log( P[X and V] / (P[X] * P[V]) )

computed over the documents of the *competing* topics (the siblings at
the same tree level) -- a feature is good if it discriminates a topic
from its siblings, and the discriminating set legitimately differs per
level ("theorem" separates math from agriculture but not algebra from
stochastics).

For efficiency the selector first pre-selects the ``tf_preselection``
most frequent terms within the topic and evaluates MI only for those;
the final output is the ``selected_features`` highest-MI features, in
rank order.  Probabilities are document-level (a feature "occurs" in a
document or not), which is the standard MI formulation for text [24].

The counts behind a ranking are :class:`TermCounts`, which a caller may
keep across rankings under :meth:`TermCounts.add` / :meth:`TermCounts.remove`
(the engine keeps one per training topic, so a retraining point counts
only the archetypes it swapped); :func:`select_features` folds fresh
ones from its documents.  Either way :func:`rank_features` ranks.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter

__all__ = [
    "FeatureScore",
    "TermCounts",
    "select_features",
    "rank_features",
    "mutual_information",
]


@dataclass(frozen=True)
class FeatureScore:
    """One ranked feature with its MI weight."""

    feature: str
    weight: float
    rank: int


class TermCounts:
    """Document frequencies, term frequencies and the document count of
    a collection of bags (``term -> count`` mappings), exact under any
    sequence of :meth:`add` and :meth:`remove`.  An empty bag counts
    for nothing."""

    __slots__ = ("df", "tf", "documents")

    def __init__(self, bags: Iterable[Mapping[str, int]] = ()) -> None:
        """Fold ``bags`` into empty counts, one :meth:`add` each."""
        self.df: Counter = Counter()
        self.tf: Counter = Counter()
        self.documents = 0
        for bag in bags:
            self.add(bag)

    def add(self, bag: Mapping[str, int]) -> None:
        if not bag:
            return
        self.documents += 1
        self.df.update(bag.keys())
        self.tf.update(bag)

    def remove(self, bag: Mapping[str, int]) -> None:
        """Take back a bag :meth:`add` counted; a term no counted bag
        holds any more leaves both counters."""
        if not bag:
            return
        self.documents -= 1
        df, tf = self.df, self.tf
        for term, count in bag.items():
            if df[term] == 1:
                del df[term], tf[term]
            else:
                df[term] -= 1
                tf[term] -= count

    @classmethod
    def summed(cls, parts: Sequence["TermCounts"]) -> "TermCounts":
        """The counts of the union of disjoint collections."""
        if len(parts) == 1:
            return parts[0]
        total = cls()
        for part in parts:
            total.df.update(part.df)
            total.tf.update(part.tf)
            total.documents += part.documents
        return total


def mutual_information(
    n_joint: int, n_feature: int, n_topic: int, n_total: int
) -> float:
    """Pointwise MI weight from document counts.

    ``n_joint`` documents of the topic containing the feature,
    ``n_feature`` documents containing the feature overall,
    ``n_topic`` documents of the topic, ``n_total`` documents in scope.
    """
    if n_joint == 0 or n_feature == 0 or n_topic == 0 or n_total == 0:
        return 0.0
    p_joint = n_joint / n_total
    p_feature = n_feature / n_total
    p_topic = n_topic / n_total
    return p_joint * math.log(p_joint / (p_feature * p_topic))


def select_features(
    topic_documents: Mapping[str, Sequence[Iterable[str]]],
    topic: str,
    tf_preselection: int = 5000,
    selected_features: int = 2000,
) -> list[FeatureScore]:
    """Rank the most discriminative features of ``topic`` vs its siblings.

    ``topic_documents`` maps each competing topic (including ``topic``
    itself) to its documents, each document being an iterable of feature
    occurrences (term multiset; a ``Mapping`` of counts is read in place,
    not copied).  Returns up to ``selected_features``
    :class:`FeatureScore` entries, best first.
    """
    if topic not in topic_documents:
        raise KeyError(f"topic {topic!r} missing from topic_documents")
    bags = {
        name: [
            terms if isinstance(terms, Mapping) else Counter(terms)
            for terms in documents
        ]
        for name, documents in topic_documents.items()
    }
    return rank_features(
        bags[topic],
        TermCounts(bags[topic]),
        [TermCounts(docs) for name, docs in bags.items() if name != topic],
        tf_preselection=tf_preselection,
        selected_features=selected_features,
    )


def rank_features(
    positives: Sequence[Mapping[str, int]],
    topic: TermCounts,
    rest: Sequence[TermCounts],
    tf_preselection: int = 5000,
    selected_features: int = 2000,
) -> list[FeatureScore]:
    """Rank the features of the bags ``positives``, whose counts are
    ``topic``, against the competing collections counted in ``rest``.

    The ``tf_preselection`` most frequent in-topic terms are scored;
    terms of equal frequency keep their order of first appearance over
    ``positives`` (``Counter.most_common``'s tie order on counts folded
    in that order).  Returns up to ``selected_features``
    :class:`FeatureScore` entries, best first.
    """
    n_topic = topic.documents
    n_total = n_topic + sum(counts.documents for counts in rest)
    if n_topic == 0:
        return []

    # tf-based pre-selection: only the most frequent in-topic terms are
    # scored ("BINGO! pre-selects candidates ... based on tf values").
    # Both sorts are stable, so this is most_common(tf_preselection).
    order = dict.fromkeys(chain.from_iterable(positives))
    candidates = sorted(
        order, key=topic.tf.__getitem__, reverse=True
    )[:tf_preselection]

    df_topic = topic.df
    df_rest = TermCounts.summed(rest).df.get
    scored = []
    for term in candidates:
        n_joint = df_topic[term]
        weight = mutual_information(
            n_joint=n_joint,
            n_feature=n_joint + df_rest(term, 0),
            n_topic=n_topic,
            n_total=n_total,
        )
        if weight > 0.0:
            scored.append((term, weight))
    # by weight, best first, ties by term (both sorts are stable)
    scored.sort(key=itemgetter(0))
    scored.sort(key=itemgetter(1), reverse=True)
    return [
        FeatureScore(feature=term, weight=weight, rank=rank)
        for rank, (term, weight) in enumerate(scored[:selected_features], 1)
    ]
