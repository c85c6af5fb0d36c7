"""Sharded crawl runtime: deterministic N-worker host partitioning.

BUbiNG-style decomposition of the crawl (PAPERS.md): the frontier is
hash-partitioned by *host* onto N workers, politeness and circuit
breakers stay host-local (so they shard for free), and global phases
(retraining, link analysis, archetype promotion) run behind periodic
merge barriers.

* :class:`~repro.shard.router.ShardRouter` -- a stable host-hash ->
  worker-id mapping (BLAKE2b, independent of Python's salted ``hash``);
* :class:`~repro.shard.frontier.ShardedFrontier` -- the one
  :class:`~repro.core.frontier.CrawlFrontier` algorithm over N
  per-worker stores routed by host, so the pop order is
  *bit-identical* for any N;
* :class:`~repro.shard.workers.WorkerSet` -- the per-worker slices
  (frontier shard, breaker board, worker pool, workspaces) plus the
  merge-barrier machinery and cross-shard link-handoff accounting.

The determinism contract lives in DESIGN.md ("Sharding the crawl
runtime"); the headline guarantee is that N=1 and
N=8 crawls produce identical Table-1 counters.
"""

from __future__ import annotations

from repro.shard.frontier import ShardedFrontier
from repro.shard.router import ShardRouter
from repro.shard.workers import BreakerBoardSet, WorkerSet, WorkerSlice

__all__ = [
    "ShardRouter",
    "ShardedFrontier",
    "WorkerSet",
    "WorkerSlice",
    "BreakerBoardSet",
]
