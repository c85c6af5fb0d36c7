"""Sharded crawl runtime: deterministic N-worker host partitioning.

BUbiNG-style decomposition of the crawl (PAPERS.md): hosts are
hash-partitioned onto N workers, each with its own fetch pool and
storage workspaces, and global phases (retraining, link analysis,
archetype promotion) run behind periodic merge barriers.  The frontier
and the host breaker board stay one store each at every worker count.

* :class:`~repro.shard.router.ShardRouter` -- a stable host-hash ->
  worker-id mapping (BLAKE2b, independent of Python's salted ``hash``);
* :class:`~repro.shard.frontier.ShardedFrontier` -- the
  :class:`~repro.core.frontier.CrawlFrontier` a sharded context builds
  (the same one store, so the pop order is *bit-identical* for any N);
* :class:`~repro.shard.workers.WorkerSet` -- the router, one worker
  pool per worker and the workspace ranges, plus the merge-barrier and
  cross-worker link-handoff counters.

The determinism contract lives in DESIGN.md ("Sharding the crawl
runtime"); the headline guarantee is that N=1 and
N=8 crawls produce identical Table-1 counters.
"""

from __future__ import annotations

from repro.shard.frontier import ShardedFrontier
from repro.shard.router import ShardRouter
from repro.shard.workers import WorkerSet

__all__ = ["ShardRouter", "ShardedFrontier", "WorkerSet"]
