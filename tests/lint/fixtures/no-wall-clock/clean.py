"""Fixture: outside the ``repro`` package benchmark timing is allowed,
and simulated time is allowed anywhere."""
import time


def measure() -> float:
    return time.perf_counter()


def day() -> int:
    return time.gmtime().tm_yday


def at(clock) -> float:
    return clock.now
