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
    batches = registry.counter("pipeline_stage_batches_total")
    batches.labels(stage="fetch").inc(3)
    batches.labels(stage="classify").inc(2)
    registry.gauge("frontier_depth").set(17)
    histogram = registry.histogram(
        "pipeline_commit_batch_docs", buckets=(1.0, 4.0, 16.0)
    )
    for size in (1, 3, 8, 20):
        histogram.observe(size)
    registry.register_source(
        "robust", lambda: {"hosts_tracked": 5.0, "breaker_trips": 1.0}
    )
    return registry


GOLDEN_PROMETHEUS = """\
# TYPE pipeline_stage_batches_total counter
pipeline_stage_batches_total{stage="classify"} 2
pipeline_stage_batches_total{stage="fetch"} 3
# TYPE frontier_depth gauge
frontier_depth 17
# TYPE pipeline_commit_batch_docs histogram
pipeline_commit_batch_docs_bucket{le="1"} 1
pipeline_commit_batch_docs_bucket{le="4"} 2
pipeline_commit_batch_docs_bucket{le="16"} 3
pipeline_commit_batch_docs_bucket{le="+Inf"} 4
pipeline_commit_batch_docs_sum 32
pipeline_commit_batch_docs_count 4
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
        assert parsed['pipeline_stage_batches_total{stage="fetch"}'] == 3.0
        assert parsed['pipeline_commit_batch_docs_bucket{le="+Inf"}'] == 4.0


class TestJson:
    def test_json_round_trips_to_the_same_snapshot(self) -> None:
        registry = build_registry()
        assert from_json(to_json(registry)) == registry.snapshot()

    def test_json_is_canonical(self) -> None:
        registry = build_registry()
        assert to_json(registry) == to_json(registry)
        assert '"at": 12.0' in to_json(registry)


class TestProgressReporter:
    def expand_event(self, index: int) -> StageEvent:
        return StageEvent(
            stage="expand", batch_index=index, in_size=1, out_size=1,
        )

    def test_prints_every_nth_round_from_the_registry(self) -> None:
        registry = MetricsRegistry()
        registry.counter("pipeline_stage_docs_in_total").labels(
            stage="convert"
        ).inc(40)
        registry.counter("pipeline_stage_docs_out_total").labels(
            stage="persist"
        ).inc(30)
        registry.counter("pipeline_docs_accepted_total").inc(25)
        stream = io.StringIO()
        reporter = ProgressReporter(registry, stream=stream, every=2)
        for index in range(4):
            reporter(self.expand_event(index))
            reporter(StageEvent(
                stage="classify", batch_index=index, in_size=1,
                out_size=1,
            ))
        lines = stream.getvalue().splitlines()
        assert reporter.lines == 2
        assert lines == [
            "[obs] round=1 fetched=40 stored=30 accepted=25 hook_errors=0",
            "[obs] round=3 fetched=40 stored=30 accepted=25 hook_errors=0",
        ]
