"""Acceptance gate: paying more revisits never serves a staler portal.

The same crawl is kept alive against the same evolution schedule at
increasing per-cycle recrawl budgets.  The clock is advanced to
*absolute* cycle targets (``crawl end + k * CYCLE_SECONDS``) rather
than by relative increments, so recrawl fetch latencies cannot drift
the tick schedule: every budget faces the identical sequence of
mutations, deaths, births and link rot, and the freshness reports --
all read at the one shared horizon -- are directly comparable.
"""

from __future__ import annotations

import pytest

from tests.portal.conftest import build_portal

BUDGETS = (0, 15, 40, 90)
CYCLES = 3
CYCLE_SECONDS = 3600.0


def served(portal) -> list[tuple[int, str, float]]:
    return [
        (d.doc_id, d.final_url, d.fetched_at)
        for d in portal.search.documents
    ]


@pytest.fixture(scope="module")
def curve() -> list[dict]:
    runs = []
    for budget in BUDGETS:
        portal = build_portal()
        base = portal.clock.now
        epoch_before, served_before = portal.search.epoch, served(portal)
        for k in range(1, CYCLES + 1):
            portal.clock.advance_to(base + k * CYCLE_SECONDS)
            portal.evolution.advance_to(portal.clock.now)
            portal.recrawl(budget)
        report = portal.freshness(at=base + CYCLES * CYCLE_SECONDS)
        # everything a recrawl could still fix
        unfresh = report.stale_documents + report.dead_indexed
        runs.append({
            "budget": budget,
            "base": base,
            "ticks": portal.evolution.applied_tick,
            "unfresh": unfresh,
            "lag_sum": report.lag_mean * unfresh,
            "epoch_unchanged": portal.search.epoch == epoch_before,
            "served_unchanged": served(portal) == served_before,
        })
    return runs


def non_increasing(values: list[float]) -> bool:
    return all(a >= b for a, b in zip(values, values[1:]))


class TestFreshnessFallsWithBudget:
    def test_every_budget_faced_the_same_evolution(self, curve) -> None:
        assert len({run["base"] for run in curve}) == 1
        assert len({run["ticks"] for run in curve}) == 1
        assert curve[0]["ticks"] > 0

    def test_unfresh_count_is_non_increasing(self, curve) -> None:
        unfresh = [run["unfresh"] for run in curve]
        assert non_increasing(unfresh), unfresh
        # the curve must actually bend, or the gate proves nothing
        assert unfresh[-1] < unfresh[0], unfresh

    def test_accumulated_lag_is_non_increasing(self, curve) -> None:
        # the total, not ``lag_mean``: a mean over a shrinking set of
        # unfresh documents may rise when the young ones are refreshed
        lag_sum = [run["lag_sum"] for run in curve]
        assert non_increasing(lag_sum), lag_sum
        assert lag_sum[-1] < lag_sum[0], lag_sum

    def test_zero_budget_leaves_the_served_portal_untouched(
        self, curve
    ) -> None:
        idle = curve[0]
        assert idle["budget"] == 0
        assert idle["unfresh"] > 0  # the web did move underneath it
        assert idle["epoch_unchanged"]
        assert idle["served_unchanged"]
