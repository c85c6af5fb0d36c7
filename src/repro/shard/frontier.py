"""The crawl frontier partitioned by host over N workers.

:class:`ShardedFrontier` is :class:`~repro.core.frontier.CrawlFrontier`
holding ``router.workers`` stores, each URL in the store of its host's
worker (:class:`~repro.shard.router.ShardRouter`).  The queue
discipline is the base class's and reads across all stores, so ``pop``
returns the same entries in the same order for any worker count; what
sharding adds is that ``shards[i]`` is exactly worker *i*'s hosts
(:class:`~repro.shard.workers.WorkerSlice` exports its size and
counters).
"""

from __future__ import annotations

from typing import Any

from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.shard.router import ShardRouter

__all__ = ["ShardedFrontier"]


class ShardedFrontier(CrawlFrontier):
    """Host-partitioned frontier with single-frontier pop semantics."""

    def __init__(self, router: ShardRouter, **options: Any) -> None:
        """``options`` are :class:`CrawlFrontier`'s (limits, refill
        batch, ``prefetch``, ``now``) with its defaults."""
        super().__init__(
            shards=router.workers, route=router.shard_of_url, **options
        )
        self.router = router

    # the sharded runtime's own entry points: a run attributes its
    # frontier time to the sharded or the single frontier by which
    # class's ``push``/``pop`` was entered

    def push(self, entry: QueueEntry) -> bool:
        """Admit a URL to its host's shard; False for already-seen."""
        return super().push(entry)

    def pop(self) -> QueueEntry | None:
        """The globally best *ready* URL across topics and shards."""
        return super().pop()
