"""What each worker of a sharded crawl owns, and the merge barriers.

Worker *i* owns worker pool *i* (``threads_per_worker`` simulated
crawler threads) and the bulk-loader workspace range
``[i * threads_per_worker, (i + 1) * threads_per_worker)``.  Both
follow one :class:`~repro.shard.router.ShardRouter`, so a host's fetch
slots and storage rows always land on the same worker.

The frontier and the host breaker board are *not* per worker: every
frontier decision reads across all hosts, and a breaker is only ever
consulted for its own host, so each is one store on the crawl context
at every worker count.  Global phases (retraining, link analysis,
archetype promotion) run behind the merge barrier the
:class:`WorkerSet` tracks (``note_commit`` / ``run_barrier``), at which
point every worker's in-flight micro-batch has been committed.
"""

from __future__ import annotations

from repro.shard.router import ShardRouter
from repro.web.clock import SimulatedClock, WorkerPool

__all__ = ["WorkerSet"]


class WorkerSet:
    """The router, one :class:`WorkerPool` per worker, and the counters
    of cross-worker link handoffs, commits and merge barriers."""

    def __init__(
        self,
        count: int,
        clock: SimulatedClock,
        threads_per_worker: int,
    ) -> None:
        if count < 1:
            raise ValueError(f"worker count must be >= 1, got {count}")
        self.count = count
        self.clock = clock
        self.threads_per_worker = threads_per_worker
        self.router = ShardRouter(count)
        self.pools: list[WorkerPool] = [
            WorkerPool(threads_per_worker, clock) for _ in range(count)
        ]
        self.cross_shard_links = 0
        """Links whose source and target hosts live on different
        workers (handed off through the one frontier)."""
        self.local_links = 0
        self.commits = 0
        self.barriers = 0

    # -- placement --------------------------------------------------------

    def pool_for(self, host: str) -> WorkerPool:
        return self.pools[self.router.shard_of(host)]

    def workspace_for(self, key: int, host: str) -> int:
        """The bulk-loader workspace for ``host``'s rows: each worker
        owns a contiguous range of ``threads_per_worker`` workspaces."""
        base = self.router.shard_of(host) * self.threads_per_worker
        return base + key % self.threads_per_worker

    # -- scheduling -------------------------------------------------------

    def run_fetch(self, host: str, duration: float) -> tuple[float, float]:
        """Schedule a fetch of ``host`` on its worker's pool."""
        return self.pool_for(host).run(duration)

    def drain(self) -> float:
        """Advance the clock until every worker's pool is idle."""
        for pool in self.pools:
            pool.drain()
        return self.clock.now

    # -- link handoff accounting -----------------------------------------

    def note_link(self, src_host: str, dst_host: str) -> None:
        """Record an admitted link by locality of its endpoint hosts."""
        if self.router.shard_of(src_host) == self.router.shard_of(dst_host):
            self.local_links += 1
        else:
            self.cross_shard_links += 1

    # -- merge barriers ---------------------------------------------------

    def note_commit(self, interval: int) -> bool:
        """Count one committed micro-batch; True when a barrier is due
        (every ``interval`` commits; 0 disables periodic barriers)."""
        self.commits += 1
        return interval > 0 and self.commits % interval == 0

    def run_barrier(self) -> None:
        """Count one merge barrier (the context has flushed the loader)."""
        self.barriers += 1

    # -- observability ----------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Set-level gauges, exported as the ``shard`` source."""
        return {
            "workers": float(self.count),
            "commits": float(self.commits),
            "barriers": float(self.barriers),
            "cross_shard_links": float(self.cross_shard_links),
            "local_links": float(self.local_links),
        }
