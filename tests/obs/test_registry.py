"""Metrics registry: a read-only directory of sources, deterministic."""

from __future__ import annotations

import pytest

from repro.obs import MetricsRegistry
from repro.obs.registry import format_float


class TestSources:
    def test_names_must_be_snake_case(self) -> None:
        registry = MetricsRegistry()
        for bad in ("CamelCase", "has-dash", "9leading", "sp ace"):
            with pytest.raises(ValueError):
                registry.register_source(bad, lambda: {})

    def test_a_source_is_read_at_snapshot_time_not_copied(self) -> None:
        class Owner:
            hits = 0

            def stats(self) -> dict[str, float]:
                return {"hits": float(self.hits)}

        owner = Owner()
        registry = MetricsRegistry()
        registry.register_source("owner", owner)
        owner.hits = 3
        assert registry.snapshot()["sources"]["owner"] == {"hits": 3.0}
        owner.hits = 5
        assert registry.snapshot()["sources"]["owner"] == {"hits": 5.0}

    def test_a_name_is_registered_once(self) -> None:
        """A second source under a name would replace the first and
        drop its counters from every export: it is refused."""
        registry = MetricsRegistry()
        registry.register_source("search", lambda: {"queries": 1.0})
        with pytest.raises(ValueError, match="already registered"):
            registry.register_source("search", lambda: {"served": 2.0})
        assert registry.snapshot()["sources"] == {"search": {"queries": 1.0}}

    def test_a_source_must_have_stats_or_be_callable(self) -> None:
        with pytest.raises(TypeError):
            MetricsRegistry().register_source("nothing", object())

    def test_the_registry_has_no_write_side(self) -> None:
        """A count lives on its owner; nothing can be incremented here."""
        registry = MetricsRegistry()
        for name in ("counter", "gauge", "histogram", "value", "enabled"):
            assert not hasattr(registry, name)
        assert set(registry.snapshot()) == {"at", "sources"}


class TestDeterminism:
    def run_workload(self) -> dict:
        """The same fixed-clock workload, reproduced exactly."""
        tick = iter(range(1000))
        registry = MetricsRegistry(clock=lambda: float(next(tick)))
        registry.register_source(
            "robust", lambda: {"hosts_tracked": 7.0, "breaker_trips": 2.0}
        )
        registry.register_source("frontier", lambda: {"frontier_size": 42})
        return registry.snapshot()

    def test_identical_runs_snapshot_identically(self) -> None:
        assert self.run_workload() == self.run_workload()

    def test_snapshot_timestamp_comes_from_the_clock(self) -> None:
        registry = MetricsRegistry(clock=lambda: 123.5)
        assert registry.snapshot()["at"] == 123.5

    def test_source_keys_are_validated_snake_case(self) -> None:
        registry = MetricsRegistry()
        registry.register_source("bad", lambda: {"Not-Snake": 1.0})
        with pytest.raises(ValueError):
            registry.snapshot()


class TestFormatFloat:
    def test_integers_render_without_decimal_point(self) -> None:
        assert format_float(3.0) == "3"
        assert format_float(0.0) == "0"

    def test_fractions_round_trip(self) -> None:
        assert float(format_float(2.5)) == 2.5
