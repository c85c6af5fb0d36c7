"""The Epoch lifecycle token: one typed object for corpus invalidation.

Before this module the invalidation state of the serving tier was an
anonymous ``(idf snapshot_version, generation)`` tuple threaded through
:mod:`repro.search.engine`, :mod:`repro.search.index` and
:mod:`repro.search.serving` under the name ``cache_token``.  The living
portal (:mod:`repro.portal`) multiplies the events that move that state
-- retraining, archetype promotion, recrawl deltas -- so
the tuple is replaced by one explicit value object:

* an :class:`Epoch` is **immutable and hashable**: result caches key on
  it directly, checkpoints serialise it (:meth:`Epoch.to_dict`), and
  responses carry the epoch they were computed under;
* every transition is an explicit :meth:`Epoch.advance` with a
  ``reason`` string, so metrics and logs can say *why* the corpus
  moved, not just that it did.

The engine owns exactly one current epoch
(:attr:`repro.search.engine.LocalSearchEngine.epoch`); everything else
-- :class:`~repro.search.index.QueryCache`,
:class:`~repro.search.index.InvertedIndex`,
:class:`~repro.search.serving.QueryServer` replay, portal checkpoints --
only ever consumes epochs, never mutates them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Mapping

__all__ = ["Epoch"]


@dataclass(frozen=True)
class Epoch:
    """One immutable point in the engine's corpus lifecycle.

    ``ordinal`` increases on *every* transition; ``generation`` only on
    explicit lifecycle advances (recrawl delta, promotion) --
    the pair ``(snapshot_version, generation)`` is exactly the legacy
    ``cache_token`` tuple, so stored rows keep their historical shape.
    """

    ordinal: int = 0
    """Monotonic transition counter (every advance or idf sync)."""
    snapshot_version: int = 0
    """The tf*idf snapshot version the corpus vectors were built under."""
    generation: int = 0
    """Explicit lifecycle generation (deltas, promotions)."""
    reason: str = "init"
    """Why the last transition happened (``"init"``, ``"recrawl"``,
    ``"idf_refresh"``, ...)."""

    @classmethod
    def initial(cls, snapshot_version: int = 0) -> "Epoch":
        """The engine's first epoch, under a given idf snapshot."""
        return cls(snapshot_version=snapshot_version)

    def advance(
        self, reason: str, snapshot_version: int | None = None
    ) -> "Epoch":
        """An explicit lifecycle transition: new generation, new ordinal."""
        return replace(
            self,
            ordinal=self.ordinal + 1,
            generation=self.generation + 1,
            snapshot_version=(
                self.snapshot_version
                if snapshot_version is None
                else snapshot_version
            ),
            reason=reason,
        )

    def synced(
        self, snapshot_version: int, reason: str = "idf_refresh"
    ) -> "Epoch":
        """An idf-snapshot sync: the vectorizer refreshed underneath the
        engine (a retraining point), so the epoch follows the snapshot
        without claiming a new lifecycle generation -- mirroring how the
        legacy tuple changed its first component only."""
        return replace(
            self,
            ordinal=self.ordinal + 1,
            snapshot_version=snapshot_version,
            reason=reason,
        )

    # -- checkpoints --------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        """JSON-safe image for checkpoints (portal scheduler state)."""
        return {
            "ordinal": self.ordinal,
            "snapshot_version": self.snapshot_version,
            "generation": self.generation,
            "reason": self.reason,
        }

    @classmethod
    def from_dict(cls, state: Mapping[str, Any]) -> "Epoch":
        return cls(
            ordinal=int(state["ordinal"]),
            snapshot_version=int(state["snapshot_version"]),
            generation=int(state["generation"]),
            reason=str(state["reason"]),
        )

    def __str__(self) -> str:
        return (
            f"epoch#{self.ordinal}"
            f"(v{self.snapshot_version}.g{self.generation}, {self.reason})"
        )
