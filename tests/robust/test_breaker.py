"""Unit tests for the host circuit breaker state machine."""

from __future__ import annotations

import pytest

from repro.robust import BreakerBoard, BreakerPolicy, HostBreaker
from repro.robust.breaker import (
    ALLOW,
    CLOSED,
    DEFER_QUARANTINE,
    DEFER_SLOW,
    HALF_OPEN,
    OPEN,
    PROBE,
)


def make(**overrides) -> HostBreaker:
    policy = BreakerPolicy(
        slow_after=1, open_after=3, quarantine=100.0,
        quarantine_multiplier=2.0, max_quarantine=400.0,
        slow_cooldown=5.0, **overrides,
    )
    return HostBreaker(policy=policy)


class TestSlowState:
    def test_failures_make_host_slow(self) -> None:
        breaker = make()
        assert not breaker.slow
        breaker.record_failure(0.0)
        assert breaker.slow
        assert breaker.priority_factor == breaker.policy.slow_priority_factor

    def test_success_forgives_failures(self) -> None:
        breaker = make()
        breaker.record_failure(0.0)
        breaker.record_success(1.0)
        assert not breaker.slow
        assert breaker.priority_factor == 1.0

    def test_slow_host_gets_cooldown(self) -> None:
        breaker = make()
        breaker.record_failure(0.0)
        breaker.note_fetch_end(10.0)
        verdict, ready_at = breaker.admit(12.0)
        assert verdict == DEFER_SLOW
        assert ready_at == 10.0 + breaker.policy.slow_cooldown
        verdict, _ = breaker.admit(15.0)
        assert verdict == ALLOW

    def test_healthy_host_has_no_cooldown(self) -> None:
        breaker = make()
        breaker.note_fetch_end(10.0)
        assert breaker.admit(10.1) == (ALLOW, 10.1)


class TestQuarantine:
    def tripped(self) -> HostBreaker:
        breaker = make()
        for t in range(3):
            breaker.record_failure(float(t))
        return breaker

    def test_opens_after_consecutive_failures(self) -> None:
        breaker = make()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        assert breaker.state == CLOSED, "two of three failures"
        breaker.record_failure(2.0)
        assert breaker.state == OPEN
        assert breaker.bad
        assert breaker.trips == 1
        assert breaker.probe_at == 2.0 + 100.0

    def test_success_breaks_the_streak(self) -> None:
        breaker = make()
        breaker.record_failure(0.0)
        breaker.record_failure(1.0)
        breaker.record_success(2.0)
        breaker.record_failure(3.0)
        breaker.record_failure(4.0)
        assert breaker.state == CLOSED

    def test_quarantined_host_defers_until_probe_at(self) -> None:
        breaker = self.tripped()
        verdict, ready_at = breaker.admit(50.0)
        assert verdict == DEFER_QUARANTINE
        assert ready_at == breaker.probe_at

    def test_exactly_one_probe_admitted(self) -> None:
        breaker = self.tripped()
        verdict, _ = breaker.admit(breaker.probe_at)
        assert verdict == PROBE
        assert breaker.state == HALF_OPEN
        assert breaker.probes == 1
        # a second entry arriving while the probe is in flight waits
        verdict, _ = breaker.admit(breaker.probe_at + 0.1)
        assert verdict == DEFER_QUARANTINE

    def test_probe_success_closes_and_resets(self) -> None:
        breaker = self.tripped()
        breaker.admit(breaker.probe_at)
        breaker.record_success(breaker.probe_at + 1.0)
        assert breaker.state == CLOSED
        assert not breaker.bad and not breaker.slow
        assert breaker.admit(breaker.probe_at + 2.0)[0] == ALLOW

    def test_probe_failure_doubles_quarantine(self) -> None:
        breaker = self.tripped()
        first_probe = breaker.probe_at
        breaker.admit(first_probe)
        breaker.record_failure(first_probe)
        assert breaker.state == OPEN
        assert breaker.current_quarantine == 200.0
        assert breaker.probe_at == first_probe + 200.0
        assert breaker.trips == 2

    def test_quarantine_growth_capped(self) -> None:
        breaker = self.tripped()
        for _round in range(5):
            breaker.admit(breaker.probe_at)
            breaker.record_failure(breaker.probe_at)
        assert breaker.current_quarantine == breaker.policy.max_quarantine


class TestSerialization:
    def test_round_trip(self) -> None:
        breaker = make()
        for t in range(3):
            breaker.record_failure(float(t))
        breaker.busy_until.append(9.5)
        clone = HostBreaker.from_dict(breaker.to_dict(), breaker.policy)
        assert clone.to_dict() == breaker.to_dict()
        assert clone.state == OPEN


class TestBreakerBoard:
    def test_get_creates_once(self) -> None:
        board = BreakerBoard()
        a = board.get("h1")
        assert board.get("h1") is a
        assert "h1" in board and len(board) == 1

    def test_priority_factor_does_not_create(self) -> None:
        board = BreakerBoard(BreakerPolicy(slow_priority_factor=0.25))
        assert board.priority_factor("unknown") == 1.0
        assert len(board) == 0
        board.get("h1").record_failure(0.0)
        assert board.priority_factor("h1") == 0.25

    def test_quarantined_and_slow_listings(self) -> None:
        board = BreakerBoard(BreakerPolicy(open_after=1))
        board.get("ok")
        board.get("down").record_failure(0.0)
        assert board.stats()["hosts_quarantined"] == 1.0
        assert board.stats()["hosts_slow"] == 1.0
        assert board.get("down").bad and board.get("down").slow
        assert not board.get("ok").bad and not board.get("ok").slow

    def test_restore_round_trip(self) -> None:
        board = BreakerBoard()
        board.get("h1").record_failure(0.0)
        board.get("h2")
        restored = BreakerBoard(board.policy)
        restored.restore(board.to_dict())
        assert restored.to_dict() == board.to_dict()

    def test_invalid_policy_rejected(self) -> None:
        with pytest.raises(ValueError):
            BreakerBoard(BreakerPolicy(open_after=0))
