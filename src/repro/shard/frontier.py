"""The frontier of a sharded crawl.

:class:`ShardedFrontier` is :class:`~repro.core.frontier.CrawlFrontier`
itself: one store whose every decision reads across all hosts, so
``pop`` returns the same entries in the same order for any worker
count.  It exists only as the sharded runtime's entry point.
"""

from __future__ import annotations

from repro.core.frontier import CrawlFrontier, QueueEntry

__all__ = ["ShardedFrontier"]


class ShardedFrontier(CrawlFrontier):
    """The one-store frontier a ``crawl_workers > 1`` context builds."""

    # the sharded runtime's own entry points: a run attributes its
    # frontier time to the sharded or the single frontier by which
    # class's ``push``/``pop`` was entered

    def push(self, entry: QueueEntry) -> bool:
        """Admit a URL; False for already-seen."""
        return super().push(entry)

    def pop(self) -> QueueEntry | None:
        """The globally best *ready* URL across topics."""
        return super().pop()
