"""The interleaved speed reference."""

from __future__ import annotations

import signal
import time

import pytest

from benchmarks.e2e.calibrate import (
    PERIOD_S, REFERENCE_KERNEL_S, Calibrator, WorkClock,
)


class TestWorkClock:
    # two ticks: [10, 10.5) and [20, 21.5)
    clock = WorkClock([10.0, 20.0], [0.5, 1.5])

    def test_work_clock_stands_still_during_ticks(self) -> None:
        assert self.clock.work(9.0) == 9.0
        assert self.clock.work(12.0) == 11.5
        assert self.clock.work(30.0) == 28.0

    def test_speed_is_mean_kernel_time_over_the_reference(self) -> None:
        assert self.clock.speed(0.0, 30.0) == pytest.approx(
            1.0 / REFERENCE_KERNEL_S
        )
        assert self.clock.speed(15.0, 30.0) == pytest.approx(
            1.5 / REFERENCE_KERNEL_S
        )

    def test_a_slow_machine_reads_the_same_reference_seconds(self) -> None:
        # the same work on a machine twice as slow: twice the work
        # seconds, twice the kernel seconds
        fast = WorkClock([1.0], [REFERENCE_KERNEL_S])
        slow = WorkClock([2.0], [2 * REFERENCE_KERNEL_S])
        work_s = 4.0
        assert fast.reference_seconds(
            0.0, work_s + REFERENCE_KERNEL_S
        ) == pytest.approx(work_s)
        assert slow.reference_seconds(
            0.0, 2 * work_s + 2 * REFERENCE_KERNEL_S
        ) == pytest.approx(work_s)

    def test_without_ticks_it_is_wall_seconds(self) -> None:
        assert WorkClock([], []).reference_seconds(3.0, 5.5) == 2.5
        assert self.clock.reference_seconds(11.0, 13.0) == 2.0


def test_calibrator_ticks_while_the_main_thread_works() -> None:
    calibrator = Calibrator()
    calibrator.start()
    try:
        started = time.perf_counter()
        while time.perf_counter() - started < 10 * PERIOD_S:
            pass
    finally:
        calibrator.stop()
    clock = calibrator.clock()
    assert len(clock.starts) >= 3
    assert clock.starts == sorted(clock.starts)
    assert all(duration > 0.0 for duration in clock.durations)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
