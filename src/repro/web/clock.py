"""Simulated time.

All timing in the reproduction (fetch latencies, DNS lookups, crawl
budgets, TTL expiry) flows through :class:`SimulatedClock`, so the paper's
"90 minutes" vs "12 hours" crawls replay deterministically in fractions of
a second of wall time.  The crawler's thread pool is modelled as a set of
workers whose completion times are tracked by :class:`WorkerPool`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field

__all__ = ["SimulatedClock", "WorkerPool"]


@dataclass
class SimulatedClock:
    """A monotonically advancing clock measured in simulated seconds."""

    now: float = 0.0

    def advance(self, seconds: float) -> float:
        """Move time forward; negative advances are rejected."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock by {seconds!r} seconds")
        self.now += seconds
        return self.now

    def advance_to(self, timestamp: float) -> float:
        """Jump to ``timestamp`` if it is in the future; never rewinds."""
        if timestamp > self.now:
            self.now = timestamp
        return self.now


@dataclass
class WorkerPool:
    """Models N concurrent crawler threads against the simulated clock.

    ``acquire`` returns the earliest time a worker is free (advancing the
    clock there if needed) and ``release`` marks that worker busy until
    ``start + duration``.  This reproduces the throughput behaviour of the
    paper's multi-threaded crawler -- e.g. one slow host stalls a single
    worker, not the whole crawl -- without real threads, keeping every run
    deterministic.
    """

    size: int
    clock: SimulatedClock
    _free_at: list[float] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.size < 1:
            raise ValueError(f"pool size must be >= 1, got {self.size}")
        self._free_at = [0.0] * self.size
        heapq.heapify(self._free_at)

    def run(self, duration: float) -> tuple[float, float]:
        """Schedule one task of ``duration`` simulated seconds.

        Returns ``(start, end)``.  The task starts when the next worker
        frees up (but never before the current clock time) and the clock
        advances to the start; the *end* may lie in the future, because
        other workers can start tasks meanwhile.
        """
        if duration < 0:
            raise ValueError(f"duration must be >= 0, got {duration}")
        start = max(heapq.heappop(self._free_at), self.clock.now)
        self.clock.advance_to(start)
        end = start + duration
        heapq.heappush(self._free_at, end)
        return start, end

    def drain(self) -> float:
        """Advance the clock until all workers are idle; returns that time."""
        last = max(self._free_at)
        self.clock.advance_to(last)
        return self.clock.now
