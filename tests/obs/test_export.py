"""Exporters: golden Prometheus text, JSON round-trip, progress lines."""

from __future__ import annotations

import io

from repro.obs import (
    MetricsRegistry,
    ProgressReporter,
    from_json,
    parse_prometheus,
    to_json,
    to_prometheus,
)
from repro.obs.api import StageEvent
from repro.obs.export import flatten_snapshot


def build_registry() -> MetricsRegistry:
    registry = MetricsRegistry(clock=lambda: 12.0)
    registry.register_source(
        "robust", lambda: {"hosts_tracked": 5.0, "breaker_trips": 1.0}
    )
    registry.register_source(
        "pipeline", lambda: {"fetch_batches": 3, "docs_accepted": 2.5}
    )
    return registry


GOLDEN_PROMETHEUS = """\
# TYPE pipeline_docs_accepted gauge
pipeline_docs_accepted 2.5
# TYPE pipeline_fetch_batches gauge
pipeline_fetch_batches 3
# TYPE robust_breaker_trips gauge
robust_breaker_trips 1
# TYPE robust_hosts_tracked gauge
robust_hosts_tracked 5
"""


class TestPrometheusText:
    def test_golden_text_snapshot(self) -> None:
        assert to_prometheus(build_registry()) == GOLDEN_PROMETHEUS

    def test_text_round_trips_through_the_parser(self) -> None:
        registry = build_registry()
        parsed = parse_prometheus(to_prometheus(registry))
        assert parsed == flatten_snapshot(registry.snapshot())
        assert parsed["pipeline_fetch_batches"] == 3.0
        assert parsed["robust_hosts_tracked"] == 5.0


class TestJson:
    def test_json_round_trips_to_the_same_snapshot(self) -> None:
        registry = build_registry()
        assert from_json(to_json(registry)) == registry.snapshot()

    def test_json_is_canonical(self) -> None:
        registry = build_registry()
        assert to_json(registry) == to_json(registry)
        assert '"at": 12.0' in to_json(registry)


class TestProgressReporter:
    def test_prints_every_nth_round_from_the_events(self) -> None:
        stream = io.StringIO()
        reporter = ProgressReporter(stream=stream, every=2)
        for index in range(4):
            for stage, in_size, out_size, extras in (
                ("convert", 10, 9, {}),
                ("classify", 9, 9, {"accepted": 6}),
                ("persist", 9, 7, {}),
                ("expand", 7, 7, {}),
            ):
                reporter(StageEvent(
                    stage=stage, batch_index=index, in_size=in_size,
                    out_size=out_size, extras=extras,
                ))
        assert reporter.lines == 2
        assert stream.getvalue().splitlines() == [
            "[obs] round=1 fetched=20 stored=14 accepted=12",
            "[obs] round=3 fetched=40 stored=28 accepted=24",
        ]
