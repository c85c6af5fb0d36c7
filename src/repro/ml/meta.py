"""Meta classification (paper section 3.5, equation 2).

Combines several trained binary classifiers ``V = {v1..vh}`` with
weights ``w(vi)`` and thresholds ``t1 >= t2``:

    Meta(V, D) = +1  if  sum_i w_i * res_i(D) > t1
                 -1  if  sum_i w_i * res_i(D) < t2
                  0  otherwise  (abstain)

Three canonical instances are provided as constructors:

* :meth:`MetaClassifier.unanimous` -- all classifiers must agree for a
  definitive positive (w=1, t1 = h - 0.5 = -t2);
* :meth:`MetaClassifier.majority` -- plain vote (w=1, t1 = t2 = 0);
* :meth:`MetaClassifier.weighted` -- weights are the classifiers'
  xi-alpha precision estimates (t1 = t2 = 0).
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Sequence

from repro.errors import TrainingError
from repro.ml.common import BinaryClassifier

__all__ = ["MetaVerdict", "MetaClassifier"]


@dataclass(frozen=True)
class MetaVerdict:
    """The combined decision: +1, -1 or 0 (abstain), plus the vote sum."""

    decision: int
    score: float
    votes: tuple[int, ...]


class MetaClassifier:
    """Weighted-vote combination of trained binary classifiers."""

    def __init__(
        self,
        classifiers: Sequence[BinaryClassifier],
        weights: Sequence[float] | None = None,
        t1: float = 0.0,
        t2: float = 0.0,
    ) -> None:
        if not classifiers:
            raise TrainingError("meta classifier needs at least one member")
        self.classifiers = list(classifiers)
        if weights is None:
            weights = [1.0] * len(self.classifiers)
        if len(weights) != len(self.classifiers):
            raise TrainingError(
                f"{len(self.classifiers)} classifiers but {len(weights)} weights"
            )
        if t1 < t2:
            raise TrainingError(f"t1 ({t1}) must be >= t2 ({t2})")
        self.weights = list(weights)
        self.t1 = t1
        self.t2 = t2

    # -- canonical instances -------------------------------------------

    @classmethod
    def unanimous(cls, classifiers: Sequence[BinaryClassifier]) -> "MetaClassifier":
        """Positive only if *all* members vote positive (and vice versa)."""
        h = len(classifiers)
        return cls(classifiers, weights=[1.0] * h, t1=h - 0.5, t2=-(h - 0.5))

    @classmethod
    def majority(cls, classifiers: Sequence[BinaryClassifier]) -> "MetaClassifier":
        """Simple majority vote; ties abstain."""
        return cls(classifiers, weights=[1.0] * len(classifiers), t1=0.0, t2=0.0)

    @classmethod
    def weighted(
        cls,
        classifiers: Sequence[BinaryClassifier],
        precisions: Sequence[float],
    ) -> "MetaClassifier":
        """Weighted average with xi-alpha precision estimates as weights."""
        return cls(classifiers, weights=list(precisions), t1=0.0, t2=0.0)

    # -- decisions --------------------------------------------------------

    def verdict_from_votes(self, votes: Sequence[int]) -> MetaVerdict:
        """Combine the members' votes, in member order (members vote
        once per document via ``decision_batch`` and every meta mode
        reuses the same vote matrix)."""
        votes = tuple(votes)
        score = sum(w * r for w, r in zip(self.weights, votes))
        if score > self.t1:
            decision = 1
        elif score < self.t2:
            decision = -1
        else:
            decision = 0
        return MetaVerdict(decision=decision, score=score, votes=votes)
