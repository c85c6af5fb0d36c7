"""Archetype selection for retraining (paper sections 2.6 and 3.2).

At each retraining point the most characteristic documents of a topic --
its *archetypes* -- are determined two ways:

* the best **authorities** from link analysis over the topic's documents;
* the automatically classified documents with the highest **SVM
  confidence**.

The union of both candidate lists is considered for promotion to
training data, but (section 3.2, the topic-drift fix) a candidate is
accepted only if its classification confidence exceeds the mean
confidence of the previous training documents, and at most
``min(N_auth, N_conf)`` candidates are added per iteration.  Because the
mean confidence of the training set rises, existing low-confidence
training documents may be dropped (seed documents can be protected).
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping, Sequence, Set
from dataclasses import dataclass, field

__all__ = ["MAX_ARCHETYPES_PER_TOPIC", "ArchetypeDecision", "select_archetypes"]

MAX_ARCHETYPES_PER_TOPIC = 30
"""Promotions per topic and round, and the length of the confidence
candidate list the engine offers (paper 5.1: 30 archetypes)."""


@dataclass
class ArchetypeDecision:
    """Outcome of one archetype-selection round for one topic."""

    added: list[tuple[int, float, str]] = field(default_factory=list)
    """(doc_id, confidence, source) of promoted archetypes; source is
    "authority", "confidence" or "both"."""
    removed: list[int] = field(default_factory=list)
    """Training doc_ids dropped because they fell below the new mean."""
    previous_mean: float = 0.0
    new_mean: float = 0.0


def select_archetypes(
    confidence_candidates: Sequence[tuple[int, float]],
    authority_candidates: Sequence[tuple[int, float]],
    training_confidences: Mapping[int, float],
    document_confidences: Mapping[int, float],
    max_new: int = MAX_ARCHETYPES_PER_TOPIC,
    enforce_threshold: bool = True,
    confidence_factor: float = 1.0,
    protected: Set[int] = frozenset(),
    cap_by_min: bool = True,
) -> ArchetypeDecision:
    """One selection round.

    Parameters
    ----------
    confidence_candidates:
        ``(doc_id, svm_confidence)`` of auto-classified topic documents,
        best first (the N_conf list).
    authority_candidates:
        ``(doc_id, authority_score)`` from link analysis, best first
        (the N_auth list).
    training_confidences:
        Current training documents and their confidences under the
        *current* decision model.
    document_confidences:
        Confidence lookup for any candidate doc (authorities need it,
        since their authority score is not a confidence).
    max_new:
        Hard cap on promotions per round (in addition to min(N_auth,
        N_conf)).
    enforce_threshold:
        Apply the mean-confidence admission rule of section 3.2 (the
        ablation A2 switches this off).
    confidence_factor:
        Admission requires confidence > factor * mean (1.0 = the paper).
    protected:
        doc_ids never removed from the training set (e.g. user seeds).
    cap_by_min:
        Apply the paper's ``x <= min(N_auth, N_conf)`` bound.  During the
        bootstrap ("extremely small training data", section 5.2) BINGO!
        admits all positively classified candidates instead -- pass False
        to reproduce that warm-up mode.
    """
    previous_mean = (
        sum(training_confidences.values()) / len(training_confidences)
        if training_confidences
        else 0.0
    )
    if cap_by_min:
        cap = min(
            len(authority_candidates), len(confidence_candidates), max_new
        )
    else:
        cap = max_new

    sources: dict[int, str] = {}
    for doc_id, _score in confidence_candidates:
        sources[doc_id] = "confidence"
    for doc_id, _score in authority_candidates:
        sources[doc_id] = "both" if doc_id in sources else "authority"

    # Order candidates by confidence, best first.  Only the admitted
    # prefix is ever consumed: the loop below takes at most ``cap``
    # candidates plus skips for docs that are already training data, so
    # a bounded heap selection replaces the full sort (candidate lists
    # grow with the crawl, the cap does not).
    bound = cap + len(training_confidences)
    ordered = heapq.nlargest(
        bound,
        (
            (document_confidences.get(doc_id, 0.0), doc_id)
            for doc_id in sources
        ),
    )
    decision = ArchetypeDecision(previous_mean=previous_mean)
    for confidence, doc_id in ordered:
        if len(decision.added) >= cap:
            break
        if doc_id in training_confidences:
            continue  # already training data
        if enforce_threshold and confidence <= confidence_factor * previous_mean:
            continue
        decision.added.append((doc_id, confidence, sources[doc_id]))

    # Recompute the mean over old + new training docs.  Old unprotected
    # training docs that lag behind the previous admission bar may be
    # dropped -- at most one removal per promotion, so the training set
    # never shrinks across a round.
    combined = dict(training_confidences)
    for doc_id, confidence, _source in decision.added:
        combined[doc_id] = confidence
    decision.new_mean = (
        sum(combined.values()) / len(combined) if combined else 0.0
    )
    if enforce_threshold and decision.added:
        laggards = sorted(
            (confidence, doc_id)
            for doc_id, confidence in training_confidences.items()
            if doc_id not in protected
            and confidence < previous_mean * confidence_factor
        )
        decision.removed = [
            doc_id for _conf, doc_id in laggards[: len(decision.added)]
        ]
    return decision
