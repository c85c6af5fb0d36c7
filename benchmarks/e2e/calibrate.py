"""An interleaved speed reference: reference seconds instead of wall seconds.

The sandbox is a few vCPUs of a shared host whose speed drifts: a fixed
pure-Python loop takes 0.143 s, then 0.179 s a minute later, in *every*
window of that minute, minimum included -- so neither best-of-R nor
longer runs recover the undisturbed time (PR 12's first attempt: 9-33 %
quartile distance on ``ops_per_s``).  What does hold is the *ratio* of
two kinds of work interleaved at a fine grain: over 5 s windows the sum
of one kind spreads 8.5 %, its ratio to the other kind 1.4 %.

So the benchmark carries its own clock.  A ``SIGALRM`` interval timer
interrupts the (single, main) benchmark thread every :data:`PERIOD_S`
and runs a fixed kernel of mixed interpreter work; each tick's start and
duration are recorded.  For any window the harness then knows

* the *work* seconds: wall minus the ticks that fell into it, and
* the machine's speed in it: mean kernel seconds over
  :data:`REFERENCE_KERNEL_S`,

and reports work seconds divided by that speed -- the seconds the
window would have taken on a machine that runs the kernel in exactly
:data:`REFERENCE_KERNEL_S`.  The constant is this box's kernel time in a
typical phase, so the figures read like wall seconds here; a ratio
between two commits does not depend on it.
"""

from __future__ import annotations

import re
import signal
import time
from bisect import bisect_left
from itertools import accumulate

__all__ = ["PERIOD_S", "REFERENCE_KERNEL_S", "Calibrator", "WorkClock"]

PERIOD_S = 0.02
REFERENCE_KERNEL_S = 0.0019

_WORD = re.compile(r"\w+")
_TEXT = " ".join(f"word{index * 7919 % 503}" for index in range(1500))
#: far more objects than the caches hold, visited in a scattered order
_HEAP = [(index, str(index)) for index in range(100_000)]
_ORDER = [index * 7919 % 100_000 for index in range(100_000)]
_cursor = 0


def _kernel() -> int:
    """Arithmetic, regex scanning, dict counting and a sort: the kinds of
    interpreter work the crawl and serving paths are made of."""
    total = 0
    for index in range(9_000):
        total += index * index % 7
    counts: dict[str, int] = {}
    for word in _WORD.findall(_TEXT):
        counts[word] = counts.get(word, 0) + 1
    ranked = sorted(counts.items(), key=lambda item: -item[1])
    global _cursor
    heap = _HEAP
    for index in _ORDER[_cursor:_cursor + 2000]:
        total += heap[index][0]
    _cursor = (_cursor + 2000) % 100_000
    return total + len(ranked)


class WorkClock:
    """Recorded ticks, queried after the fact."""

    def __init__(self, starts: list[float], durations: list[float]) -> None:
        self.starts = starts
        self.durations = durations
        self._before = [0.0, *accumulate(durations)]

    def _ticks(self, earlier: float, later: float) -> tuple[int, int]:
        return bisect_left(self.starts, earlier), bisect_left(
            self.starts, later
        )

    def work(self, mark: float) -> float:
        """``mark`` on a clock that stands still during ticks."""
        return mark - self._before[bisect_left(self.starts, mark)]

    def speed(self, earlier: float, later: float) -> float:
        """Mean kernel seconds of the ticks started in the window over
        the reference (1.0 without ticks: plain wall seconds)."""
        first, last = self._ticks(earlier, later)
        if last == first:
            return 1.0
        kernel_s = self._before[last] - self._before[first]
        return kernel_s / (last - first) / REFERENCE_KERNEL_S

    def reference_seconds(self, earlier: float, later: float) -> float:
        work_s = self.work(later) - self.work(earlier)
        return work_s / self.speed(earlier, later)


class Calibrator:
    """Runs the kernel from a ``SIGALRM`` handler every ``PERIOD_S``.

    Python runs signal handlers in the main thread between two
    bytecodes, so the kernel never overlaps the work it interrupts.
    """

    def __init__(self) -> None:
        self.starts: list[float] = []
        self.durations: list[float] = []
        self._inside = False

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _tick(self, _signal: int, _frame: object) -> None:
        if self._inside:  # a tick that outlasted the period
            return
        self._inside = True
        started = time.perf_counter()
        _kernel()
        self.starts.append(started)
        self.durations.append(time.perf_counter() - started)
        self._inside = False

    def clock(self) -> WorkClock:
        return WorkClock(list(self.starts), list(self.durations))
