"""Unit tests for the interprocedural clock/RNG taint engine."""

from __future__ import annotations

import textwrap
from pathlib import Path

from repro.lint.dataflow import analyze_taint
from repro.lint.engine import LintEngine, ModuleUnit
from repro.lint.graph import ProjectIndex

FRONTIER = """\
class CrawlFrontier:
    def __init__(self) -> None:
        self.pending: list[float] = []

    def push(self, priority: float) -> None:
        self.pending.append(priority)

    def requeue(self, priority: float) -> None:
        self.pending.append(priority)
"""


def flows_in(tmp_path: Path, source: str) -> list[tuple[str, str, str]]:
    path = tmp_path / "m.py"
    path.write_text(FRONTIER + textwrap.dedent(source), encoding="utf-8")
    unit = LintEngine().load(path)
    assert isinstance(unit, ModuleUnit)
    index = ProjectIndex.build([unit])
    return [
        (flow.category, flow.source, flow.sink)
        for flow in analyze_taint(index)
    ]


def test_direct_source_to_sink(tmp_path: Path) -> None:
    assert flows_in(
        tmp_path,
        """\
        import time


        def admit(frontier: CrawlFrontier) -> None:
            now = time.time()
            frontier.push(now)
        """,
    ) == [("clock", "time.time", "CrawlFrontier.push")]


def test_taint_through_helper_return(tmp_path: Path) -> None:
    assert flows_in(
        tmp_path,
        """\
        import time


        def stamp() -> float:
            return time.time()


        def admit(frontier: CrawlFrontier) -> None:
            frontier.push(stamp())
        """,
    ) == [("clock", "time.time", "CrawlFrontier.push")]


def test_taint_through_parameter_passthrough(tmp_path: Path) -> None:
    # the sink is two calls away: admit() inherits push()'s sink
    # param, and the caller supplies the tainted argument
    assert flows_in(
        tmp_path,
        """\
        import random


        def admit(frontier: CrawlFrontier, priority: float) -> None:
            frontier.push(priority)


        def plan(frontier: CrawlFrontier) -> None:
            admit(frontier, random.random())
        """,
    ) == [("rng", "random.random", "CrawlFrontier.push")]


def test_sink_inherited_by_the_sharded_frontier(tmp_path: Path) -> None:
    # ShardedFrontier is a CrawlFrontier that overrides only some entry
    # points: both its own and its inherited ones stay decision sinks
    flows = flows_in(
        tmp_path,
        """\
        import time


        class ShardedFrontier(CrawlFrontier):
            def push(self, priority: float) -> None:
                super().push(priority)


        def admit(frontier: ShardedFrontier) -> None:
            frontier.push(time.time())
            frontier.requeue(time.monotonic())
        """,
    )
    assert flows == [
        ("clock", "time.time", "ShardedFrontier.push"),
        ("clock", "time.monotonic", "CrawlFrontier.requeue"),
    ]


def test_arithmetic_preserves_taint(tmp_path: Path) -> None:
    assert flows_in(
        tmp_path,
        """\
        import time


        def admit(frontier: CrawlFrontier) -> None:
            delay = time.monotonic() + 30.0
            frontier.push(delay * 2.0)
        """,
    ) == [("clock", "time.monotonic", "CrawlFrontier.push")]


def test_seeded_rng_is_not_a_source(tmp_path: Path) -> None:
    assert (
        flows_in(
            tmp_path,
            """\
            import random


            def plan(frontier: CrawlFrontier, seed: int) -> None:
                rng = random.Random(seed)
                frontier.push(rng.random())
            """,
        )
        == []
    )


def test_metrics_only_clock_use_is_not_flagged(tmp_path: Path) -> None:
    # a perf_counter() that never reaches a decision site is fine
    assert (
        flows_in(
            tmp_path,
            """\
            import time


            def measure(frontier: CrawlFrontier) -> float:
                start = time.perf_counter()
                frontier.push(1.0)
                return time.perf_counter() - start
            """,
        )
        == []
    )


def test_flows_are_deterministic(tmp_path: Path) -> None:
    source = """\
    import time


    def admit(frontier: CrawlFrontier) -> None:
        frontier.push(time.time())
        frontier.push(time.monotonic())
    """
    first = flows_in(tmp_path, source)
    second = flows_in(tmp_path, source)
    assert first == second
    assert [flow[1] for flow in first] == ["time.time", "time.monotonic"]
