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
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

__all__ = ["FeatureScore", "select_features", "mutual_information"]


@dataclass(frozen=True)
class FeatureScore:
    """One ranked feature with its MI weight."""

    feature: str
    weight: float
    rank: int


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

    # document frequencies per scope
    df_topic: Counter = Counter()
    tf_topic: Counter = Counter()
    df_all: Counter = Counter()
    n_topic = 0
    n_total = 0
    for name, documents in topic_documents.items():
        for terms in documents:
            if not isinstance(terms, Mapping):
                terms = Counter(terms)
            if not terms:
                continue
            n_total += 1
            df_all.update(terms.keys())
            if name == topic:
                n_topic += 1
                df_topic.update(terms.keys())
                tf_topic.update(terms)
    if n_topic == 0 or n_total == 0:
        return []

    # tf-based pre-selection: only the most frequent in-topic terms are
    # scored ("BINGO! pre-selects candidates ... based on tf values").
    candidates = [term for term, _ in tf_topic.most_common(tf_preselection)]

    scored = []
    for term in candidates:
        weight = mutual_information(
            n_joint=df_topic[term],
            n_feature=df_all[term],
            n_topic=n_topic,
            n_total=n_total,
        )
        if weight > 0.0:
            scored.append((term, weight))
    scored.sort(key=lambda pair: (-pair[1], pair[0]))
    return [
        FeatureScore(feature=term, weight=weight, rank=rank)
        for rank, (term, weight) in enumerate(scored[:selected_features], 1)
    ]
