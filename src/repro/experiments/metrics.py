"""Shared evaluation metrics for the experiment drivers.

The synthetic Web knows every page's true topic, so experiments can
compute exact precision/recall against ground truth.  This module keeps
the counting in one place:

* :class:`BinaryCounts` -- confusion counts with derived metrics; a
  decision of 0 (meta-classifier abstention) counts as a rejection and
  is tracked separately;
* :func:`ranking_precision_at_k` -- threshold-free precision of a
  confidence ranking, used where absolute decision thresholds would
  dominate the comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable

__all__ = ["BinaryCounts", "ranking_precision_at_k"]


@dataclass
class BinaryCounts:
    """Streaming confusion counts for a binary decision function."""

    tp: int = 0
    fp: int = 0
    fn: int = 0
    tn: int = 0
    abstained: int = 0

    def update(self, predicted: int, actual: int) -> None:
        """Record one decision; ``predicted`` may be 0 for abstention."""
        if predicted == 0:
            self.abstained += 1
            if actual == 1:
                self.fn += 1
            else:
                self.tn += 1
            return
        if predicted == 1 and actual == 1:
            self.tp += 1
        elif predicted == 1:
            self.fp += 1
        elif actual == 1:
            self.fn += 1
        else:
            self.tn += 1

    @property
    def total(self) -> int:
        return self.tp + self.fp + self.fn + self.tn

    @property
    def precision(self) -> float:
        """Precision; 0.0 when nothing was predicted positive (a
        degenerate classifier must not look perfect)."""
        denominator = self.tp + self.fp
        return self.tp / denominator if denominator else 0.0

    @property
    def recall(self) -> float:
        denominator = self.tp + self.fn
        return self.tp / denominator if denominator else 0.0

    @property
    def abstain_rate(self) -> float:
        return self.abstained / self.total if self.total else 0.0


def ranking_precision_at_k(
    scored: Iterable[tuple[float, bool]], k: int | None = None
) -> float:
    """Precision of the top-k of a (score, is_relevant) ranking.

    ``k`` defaults to the number of relevant items (R-precision).
    """
    pairs = sorted(scored, key=lambda pair: -pair[0])
    if k is None:
        k = sum(1 for _score, relevant in pairs if relevant)
    if k <= 0:
        return 1.0
    top = pairs[:k]
    if not top:
        return 0.0
    return sum(1 for _score, relevant in top if relevant) / len(top)
