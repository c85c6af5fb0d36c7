"""Per-worker runtime slices and the merge-barrier machinery.

A sharded crawl is N :class:`WorkerSlice`\\ s: worker *i* owns frontier
shard *i*, breaker board *i*, worker pool *i* (``threads_per_worker``
simulated crawler threads) and the bulk-loader workspace range
``[i * threads_per_worker, (i + 1) * threads_per_worker)``.  All
placement follows one :class:`~repro.shard.router.ShardRouter`, so a
host's queue entries, breaker, politeness slots, fetch slots and
storage rows always land on the same worker.

Host-local state shards for free -- a breaker or politeness slot is
only ever consulted for its own host -- which is why
:class:`BreakerBoardSet` is nothing but N boards behind the
single-board read interface.  Global phases (retraining, link
analysis, archetype promotion) are the part that does *not* shard;
they run behind the merge barrier the :class:`WorkerSet` tracks
(``note_commit`` / ``run_barrier``), at which point every worker's
in-flight micro-batch has been committed and merged state is safe to
read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterator

from repro.core.frontier import FrontierShard
from repro.robust.breaker import BreakerBoard, BreakerPolicy, HostBreaker
from repro.shard.frontier import ShardedFrontier
from repro.shard.router import ShardRouter
from repro.web.clock import SimulatedClock, WorkerPool

__all__ = ["BreakerBoardSet", "WorkerSlice", "WorkerSet"]


class BreakerBoardSet:
    """N host-partitioned breaker boards behind the one-board interface.

    Every host's breaker lives on exactly one worker's board (the
    router decides which), so the write side is a pure dispatch and the
    read side merges N disjoint host tables.
    """

    def __init__(
        self,
        router: ShardRouter,
        policy: BreakerPolicy | None = None,
    ) -> None:
        self.router = router
        self.boards: list[BreakerBoard] = [
            BreakerBoard(policy) for _ in range(router.workers)
        ]
        self.policy: BreakerPolicy = self.boards[0].policy

    def board_for(self, host: str) -> BreakerBoard:
        return self.boards[self.router.shard_of(host)]

    # -- single-board interface (dispatch by host) -----------------------

    def get(self, host: str) -> HostBreaker:
        return self.board_for(host).get(host)

    def admit(self, host: str, now: float) -> tuple[HostBreaker, str, float]:
        return self.board_for(host).admit(host, now)

    def priority_factor(self, host: str) -> float:
        return self.board_for(host).priority_factor(host)

    def __contains__(self, host: str) -> bool:
        return host in self.board_for(host)

    # -- merged read-side views ------------------------------------------

    def items(self) -> Iterator[tuple[str, HostBreaker]]:
        for board in self.boards:
            yield from board.items()

    def __len__(self) -> int:
        return sum(len(board) for board in self.boards)

    @property
    def quarantined(self) -> list[str]:
        return sorted(
            host for board in self.boards for host in board.quarantined
        )

    @property
    def slow_hosts(self) -> list[str]:
        return sorted(
            host for board in self.boards for host in board.slow_hosts
        )

    def stats(self) -> dict[str, float]:
        """Aggregate board counters -- the same keys as one
        :meth:`BreakerBoard.stats`, summed across workers."""
        merged = [board.stats() for board in self.boards]
        return {
            "hosts_tracked": sum(s["hosts_tracked"] for s in merged),
            "hosts_quarantined": sum(s["hosts_quarantined"] for s in merged),
            "hosts_slow": sum(s["hosts_slow"] for s in merged),
            "breaker_trips": sum(s["breaker_trips"] for s in merged),
            "breaker_probes": sum(s["breaker_probes"] for s in merged),
        }

    # -- checkpoint -------------------------------------------------------

    def to_dict(self) -> dict[str, Any]:
        return {"workers": [board.to_dict() for board in self.boards]}

    def restore(self, data: dict[str, Any]) -> None:
        per_worker = data["workers"]
        if len(per_worker) != len(self.boards):
            raise ValueError(
                f"checkpoint has {len(per_worker)} breaker boards, this "
                f"context has {len(self.boards)} -- resume with the same "
                "crawl_workers"
            )
        for board, board_state in zip(self.boards, per_worker):
            board.restore(board_state)


@dataclass
class WorkerSlice:
    """One worker's view of the sharded runtime (all host-local state)."""

    index: int
    frontier: FrontierShard
    board: BreakerBoard
    pool: WorkerPool

    def stats(self) -> dict[str, float]:
        """One worker's gauges, exported as the ``shard_w{i}`` source."""
        return {
            "frontier_size": float(len(self.frontier)),
            "enqueued": float(self.frontier.enqueued),
            "duplicate_drops": float(self.frontier.duplicate_drops),
            "evictions": float(self.frontier.evictions),
            "dns_drops": float(self.frontier.dns_drops),
            "deferred_total": float(self.frontier.deferred_total),
            "hosts_tracked": float(len(self.board)),
            "hosts_quarantined": float(len(self.board.quarantined)),
            "hosts_slow": float(len(self.board.slow_hosts)),
        }


class WorkerSet:
    """The N per-worker slices plus the global coordination state.

    Owns the router, the sharded frontier, the breaker-board set and
    one :class:`WorkerPool` per worker; tracks cross-shard link
    handoffs and the commit counter that triggers merge barriers.
    """

    def __init__(
        self,
        count: int,
        clock: SimulatedClock,
        threads_per_worker: int,
        breaker_policy: BreakerPolicy | None = None,
        prefetch: Callable[[str], bool] | None = None,
    ) -> None:
        if count < 1:
            raise ValueError(f"worker count must be >= 1, got {count}")
        self.count = count
        self.clock = clock
        self.threads_per_worker = threads_per_worker
        self.router = ShardRouter(count)
        self.frontier = ShardedFrontier(
            self.router,
            prefetch=prefetch,
            now=lambda: clock.now,
        )
        self.hosts = BreakerBoardSet(self.router, breaker_policy)
        self.pools: list[WorkerPool] = [
            WorkerPool(threads_per_worker, clock) for _ in range(count)
        ]
        self.slices: list[WorkerSlice] = [
            WorkerSlice(
                index=i,
                frontier=self.frontier.shards[i],
                board=self.hosts.boards[i],
                pool=self.pools[i],
            )
            for i in range(count)
        ]
        self.cross_shard_links = 0
        """Links whose source and target hosts live on different
        workers (handed off through the shared frontier)."""
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
