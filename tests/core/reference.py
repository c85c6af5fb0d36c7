"""The dict-walking decision phase, kept as the classifier's parity oracle.

This is the per-node formulation ``HierarchicalClassifier`` ran before
the compiled kernel of :mod:`repro.perf.compiled` replaced it: each
document vectorized whole (``vectorize_counts`` per space), then one dict
projection, normalisation and dot product per (child, feature space)
pair (:func:`member_decision_reference`, and its hyperplane distance), the
meta-classifier combination of paper 3.5 written out over plain lists,
and the top-down descent of paper 2.4.  It reads a trained classifier's
``tree``, ``models`` and ``vectorizers`` and nothing of the kernel.  No
production module calls it; ``tests/core/test_compiled_classifier.py``
pins the kernel to it
(identical topics and paths, confidences within 1e-9).  Do not optimise
this module: its value is that it states the rules one document and one
member at a time.

``evaluate_many_reference`` is the kernel's own block product as it
was written against scipy (two ``csr_matrix`` x dense products) over
whole tf*idf vectors; ``tests/core/test_compiled_classifier.py`` holds
``_SpaceBlock.evaluate_many`` over the same documents' term counts to it
bit for bit.

``select_features_reference`` is MI feature selection as it counted
every document at every call, before the engine kept its training
counts (:class:`~repro.core.feature_selection.TermCounts`);
``tests/core/test_training_counts.py`` holds the kept counts' ranking
to it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence

import numpy as np
from scipy import sparse

from repro.core.classifier import (
    ACCEPTANCE_THRESHOLD,
    MODES,
    ClassificationResult,
    HierarchicalClassifier,
    NodeClassifier,
    TopicDecisionModel,
    TrainingDoc,
)
from repro.core.feature_selection import FeatureScore, mutual_information
from repro.errors import TrainingError
from repro.ml.svm import LinearSVM
from repro.text.vectorizer import SparseVector

__all__ = [
    "select_features_reference",
    "classify_reference",
    "decide_reference",
    "evaluate_many_reference",
    "member_decision_reference",
    "vectorize_reference",
]


def vectorize_reference(
    classifier: HierarchicalClassifier, doc: TrainingDoc
) -> dict[str, SparseVector]:
    """Per-space tf*idf vectors, one ``vectorize_counts`` per space."""
    return {
        space: classifier.vectorizers[space].vectorize_counts(
            doc.get(space, Counter())
        )
        for space in classifier.spaces
    }


def member_decision_reference(
    member: NodeClassifier, vectors: Mapping[str, SparseVector]
) -> float:
    """One member's decision: the document's vector in the member's
    space restricted to its selected features (training projects before
    normalising, so the decision must too), scored by its learner; 0.0
    when the bundle lacks the space."""
    vector = vectors.get(member.space)
    if vector is None:
        return 0.0
    return member.svm.decision(vector.project(frozenset(member.features)))


def distance_reference(member, vectors: Mapping[str, SparseVector]) -> float:
    """A member's confidence: for an SVM the signed distance of the
    document from the separating hyperplane, ``decision / ||w||``
    (paper 2.4; 0 when ``w`` is 0), for any other learner its raw
    decision."""
    decision = member_decision_reference(member, vectors)
    if isinstance(member.svm, LinearSVM):
        norm = member.svm._weight_norm
        return decision / norm if norm else 0.0
    return decision


def decide_reference(
    model: TopicDecisionModel, vectors: Mapping[str, SparseVector], mode: str
) -> tuple[bool, float]:
    """``(is_positive, confidence)`` of one topic under ``mode``.

    Confidence is a hyperplane-distance style score: the
    (precision-weighted) mean distance of the members consulted.
    """
    if not model.members:
        raise TrainingError(f"topic {model.topic!r} has no trained model")
    if mode not in MODES:
        raise TrainingError(f"unknown decision mode {mode!r}")
    if mode in ("single", "best"):
        member = model.members[0] if mode == "single" else max(
            model.members, key=lambda m: m.estimate.precision
        )
        return (
            member_decision_reference(member, vectors)
            > ACCEPTANCE_THRESHOLD,
            distance_reference(member, vectors),
        )
    votes = [
        1 if member_decision_reference(member, vectors) > ACCEPTANCE_THRESHOLD
        else -1
        for member in model.members
    ]
    distances = [
        distance_reference(member, vectors) for member in model.members
    ]
    precisions = [member.estimate.precision for member in model.members]
    if mode == "unanimous":
        positive = all(vote > 0 for vote in votes)
    elif mode == "majority":
        positive = sum(votes) > 0
    else:  # weighted by xi-alpha precision
        weights = precisions if sum(precisions) > 0 else [1.0] * len(votes)
        positive = sum(w * v for w, v in zip(weights, votes)) > 0
    if mode == "weighted" and sum(precisions) > 0:
        confidence = sum(
            w * d for w, d in zip(precisions, distances)
        ) / sum(precisions)
    else:
        confidence = sum(distances) / len(distances)
    return positive, confidence


def classify_reference(
    classifier: HierarchicalClassifier, doc: TrainingDoc, mode: str = "single"
) -> ClassificationResult:
    """The decision phase of paper sections 2.4 and 3.5.

    Starting at ROOT, all children with trained models vote; the
    document descends into the highest-confidence positive child.  When
    no child accepts, the document lands in the level's OTHERS node.
    The returned confidence is that of the deepest accepted level (or
    the best rejection distance when nothing accepted).
    """
    if not classifier.trained:
        raise TrainingError("classifier has not been trained")
    vectors = vectorize_reference(classifier, doc)
    current = "ROOT"
    path: list[tuple[str, float]] = []
    confidence = 0.0
    while True:
        children = [
            child for child in classifier.tree.children_of(current)
            if child in classifier.models
        ]
        if not children:
            break
        decisions = [
            (child, *decide_reference(classifier.models[child], vectors, mode))
            for child in children
        ]
        positive = [
            (child, conf) for child, is_pos, conf in decisions if is_pos
        ]
        if not positive:
            return ClassificationResult(
                topic=classifier.tree.others_of(current),
                confidence=max(conf for _, _, conf in decisions),
                path=tuple(path),
            )
        child, confidence = max(positive, key=lambda pair: pair[1])
        path.append((child, confidence))
        current = child
    return ClassificationResult(
        topic=current, confidence=confidence, path=tuple(path)
    )


def evaluate_many_reference(
    block, vectors: Sequence[SparseVector | None]
) -> tuple[np.ndarray, np.ndarray]:
    """``_SpaceBlock.evaluate_many`` through scipy's ``csr_matrix``."""
    g = len(vectors)
    cols: list[int] = []
    vals: list[float] = []
    indptr = [0]
    present = np.zeros(g, dtype=bool)
    for i, vector in enumerate(vectors):
        if vector is not None:
            present[i] = True
            for feature, weight in vector.weights.items():
                column = block.vocabulary.get(feature)
                if column is not None:
                    cols.append(column)
                    vals.append(weight)
        indptr.append(len(cols))
    data = np.asarray(vals, dtype=np.float64)
    shape = (g, block.weights.shape[1])
    dots = sparse.csr_matrix((data, cols, indptr), shape=shape) \
        @ block.weights.T
    norms = np.sqrt(
        sparse.csr_matrix((data * data, cols, indptr), shape=shape)
        @ block.membership.T
    )
    divisor = np.where(norms > 0.0, norms, 1.0)
    decisions = dots / divisor + block.bias[None, :]
    distances = decisions * block.inv_weight_norm[None, :]
    decisions[~present] = 0.0
    distances[~present] = 0.0
    return decisions, distances


def select_features_reference(
    topic_documents, topic: str, tf_preselection: int, selected_features: int
) -> list[FeatureScore]:
    """Count every scope's documents, pre-select by ``most_common``,
    rank by MI (ties by term)."""
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
