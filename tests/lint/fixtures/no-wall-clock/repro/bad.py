"""Fixture: a ``repro.*`` module may not read any clock at all.

Every value a frontier decision below depends on is flagged where it
is read -- through a helper, a parameter, arithmetic or an inherited
method -- so nothing has to follow it to the ``push``.
"""
import time


class CrawlFrontier:
    def __init__(self) -> None:
        self.pending: list[float] = []

    def push(self, priority: float) -> None:
        self.pending.append(priority)

    def requeue(self, priority: float) -> None:
        self.pending.append(priority)


class ShardedFrontier(CrawlFrontier):
    def push(self, priority: float) -> None:
        super().push(priority)


def stamp() -> float:
    # helper return: two call hops away from the frontier
    return time.time()


def jitter(base: float) -> float:
    return base + 0.5


def admit(frontier: CrawlFrontier) -> None:
    frontier.push(jitter(stamp()))


def forward(frontier: CrawlFrontier, priority: float) -> None:
    frontier.push(priority)


def plan(frontier: CrawlFrontier) -> None:
    # parameter pass-through: forward() hands it to the sink
    forward(frontier, time.time_ns() / 1e9)


def backoff(frontier: CrawlFrontier) -> None:
    # arithmetic on the way
    delay = time.monotonic() + 30.0
    frontier.requeue(delay * 2.0)


def shard_admit(frontier: ShardedFrontier) -> None:
    # overridden and inherited entry points alike
    frontier.push(time.time())
    frontier.requeue(time.monotonic())


def measure(frontier: CrawlFrontier) -> float:
    # metrics-only timing is wall time too: benchmarks/e2e owns it
    started = time.perf_counter()
    frontier.push(1.0)
    return time.perf_counter() - started


def day() -> int:
    return time.gmtime().tm_yday
