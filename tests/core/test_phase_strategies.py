"""Phase-strategy tests: depth-first learning vs prioritised harvesting."""

from __future__ import annotations

import pytest

from repro.core import BingoEngine
from repro.core.engine import LEARNING_MAX_DEPTH

from tests.core.conftest import fast_engine_config


class TestLearningPhaseStrategy:
    @pytest.fixture(scope="class")
    def learning_report(self, small_web):
        engine = BingoEngine.for_portal(
            small_web, config=fast_engine_config(learning_fetch_budget=100)
        )
        report = engine.run_learning_phase()
        return engine, report

    def test_depth_first_goes_deep_quickly(self, learning_report) -> None:
        """Depth-first priorities go deep within a small budget
        (breadth-first would sweep level by level)."""
        engine, report = learning_report
        assert report.stats.max_depth >= 3

    def test_depth_cap_respected(self, learning_report) -> None:
        engine, report = learning_report
        assert report.stats.max_depth <= LEARNING_MAX_DEPTH
        for doc in engine.ctx.documents:
            assert doc.depth <= LEARNING_MAX_DEPTH

    def test_learning_visits_few_hosts(self, learning_report) -> None:
        """Seed-domain restriction keeps the learning phase local."""
        _, report = learning_report
        assert report.stats.visited_hosts <= 25


class TestHarvestingPhaseStrategy:
    def test_harvest_orders_by_confidence(self, small_web) -> None:
        """Harvesting pops high-confidence links first: the first half of
        the harvest should contain a higher share of positively
        classified documents than the second half."""
        engine = BingoEngine.for_portal(
            small_web, config=fast_engine_config(learning_fetch_budget=100)
        )
        engine.run_learning_phase()
        before = len(engine.ctx.documents)
        engine.run_harvesting_phase(fetch_budget=300)
        harvest_docs = engine.ctx.documents[before:]
        assert len(harvest_docs) >= 100
        half = len(harvest_docs) // 2
        first = harvest_docs[:half]
        second = harvest_docs[half:]

        def accept_rate(docs):
            return sum(
                1 for d in docs if not d.topic.endswith("/OTHERS")
            ) / len(docs)

        assert accept_rate(first) >= accept_rate(second) - 0.05

    def test_time_budget_stops_harvest(self, small_web) -> None:
        engine = BingoEngine.for_portal(
            small_web, config=fast_engine_config(learning_fetch_budget=60)
        )
        engine.run_learning_phase()
        start = engine.ctx.clock.now
        report = engine.run_harvesting_phase(time_budget=30.0)
        elapsed = engine.ctx.clock.now - start
        # the crawl stops promptly after the simulated deadline (in-flight
        # tasks may overshoot by at most the pool drain)
        assert report.stats.simulated_seconds == pytest.approx(
            elapsed, rel=1e-9
        )
        assert elapsed < 30.0 + 120.0
