"""Cluster-based subclass suggestion (paper section 3.6).

"BINGO! can perform a cluster analysis on the results of one class and
suggest creating new subclasses with tentative labels automatically drawn
from the most characteristic terms of these subclasses."
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from collections.abc import Sequence

from repro.core.records import CrawledDocument
from repro.errors import SearchError
from repro.ml.kmeans import ClusterModel, KMeans, choose_cluster_count
from repro.text.vectorizer import SparseVector, TfIdfVectorizer

__all__ = ["SubclassSuggestion", "suggest_subclasses"]


@dataclass(frozen=True)
class SubclassSuggestion:
    """One proposed subclass: a label and its member documents."""

    label: str
    documents: tuple[CrawledDocument, ...]
    impurity: float


def _vectors_for(
    documents: Sequence[CrawledDocument],
) -> list[SparseVector]:
    vectorizer = TfIdfVectorizer()
    for document in documents:
        vectorizer.ingest(document.counts.get("term", Counter()).keys())
    vectorizer.refresh()
    return [
        vectorizer.vectorize_counts(document.counts.get("term", Counter()))
        for document in documents
    ]


def suggest_subclasses(
    documents: Sequence[CrawledDocument],
    k: int | None = None,
    k_range: Sequence[int] = (2, 3, 4, 5),
    seed: int = 0,
    label_terms: int = 3,
) -> list[SubclassSuggestion]:
    """Cluster one class's documents into tentative subclasses.

    With ``k`` given, exactly k clusters are built; otherwise the
    entropy-impurity-minimising k from ``k_range`` is chosen (paper:
    "BINGO! can choose the number of clusters such that an entropy-based
    cluster impurity measure is minimized").
    """
    if len(documents) < 2:
        raise SearchError("need at least two documents to cluster")
    vectors = _vectors_for(documents)
    if k is not None:
        model: ClusterModel = KMeans(k, seed=seed).fit(vectors)
    else:
        feasible = [kk for kk in k_range if kk <= len(documents)]
        if not feasible:
            raise SearchError("no feasible cluster count in k_range")
        model = choose_cluster_count(vectors, k_range=feasible, seed=seed)
    suggestions = []
    for cluster in range(model.k):
        members = tuple(documents[i] for i in model.members(cluster))
        if not members:
            continue
        suggestions.append(
            SubclassSuggestion(
                label=model.label(cluster, terms=label_terms),
                documents=members,
                impurity=model.impurity,
            )
        )
    suggestions.sort(key=lambda s: -len(s.documents))
    return suggestions
