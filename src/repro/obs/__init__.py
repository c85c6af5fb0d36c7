"""Unified observability layer for the crawl runtime (``repro.obs``).

BINGO!'s evaluation is entirely driven by runtime counters -- fetched /
positive / stored documents per phase, host errors, retrain events --
and a production crawler (BUbiNG et al.) lives or dies by a first-class
metrics layer.  This package is that one shared instrumentation
surface:

* :mod:`repro.obs.api` -- the stable contract: the typed
  :class:`~repro.obs.api.StageEvent` pipeline hooks receive, the
  :class:`~repro.obs.api.Instrumented` ``stats() -> dict[str, float]``
  protocol every subsystem's counters hide behind;
* :mod:`repro.obs.registry` -- a deterministic
  :class:`~repro.obs.registry.MetricsRegistry` (counters / gauges /
  fixed-bucket histograms, timestamps from the simulated clock, never
  wall time) with pull-through stats sources;
* :mod:`repro.obs.tracing` -- a :class:`~repro.obs.tracing.Tracer`
  turning pipeline micro-batches into nested spans (crawl ->
  micro-batch -> stage -> per-doc decision) with bounded ring-buffer
  retention;
* :mod:`repro.obs.export` -- Prometheus text, JSON snapshot and
  periodic progress-line exporters over the same snapshot.

One :class:`Obs` bundle (registry + tracer bound to one clock) lives on
every :class:`~repro.pipeline.context.CrawlContext`; the pipeline
driver, the robustness layer, the bulk loader, the perf kernels and the
search engine all report into it.  Instrumentation never mutates crawl
state: a run with ``BingoConfig.instrumentation`` off is bit-identical
on every Table-1 counter to the same run with it on.  Everything here
is simulated time and counts, so a snapshot is byte-identical across
runs with one seed; wall seconds are measured from outside, by
``benchmarks/e2e/trace.py``.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.obs.api import (
    Hook,
    Instrumented,
    StageEvent,
)
from repro.obs.export import (
    ProgressReporter,
    from_json,
    parse_prometheus,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.tracing import Span, Tracer

__all__ = [
    "StageEvent",
    "Hook",
    "Instrumented",
    "MetricsRegistry",
    "Tracer",
    "Span",
    "Obs",
    "ProgressReporter",
    "to_prometheus",
    "parse_prometheus",
    "to_json",
    "from_json",
    "write_metrics",
]


class Obs:
    """One crawl's observability bundle: registry + tracer on one clock.

    The convenience recorders below are the only places the runtime
    writes pipeline- and robustness-level metrics, so metric names stay
    consistent across subsystems.
    """

    def __init__(
        self,
        clock: Callable[[], float] | None = None,
        enabled: bool = True,
        trace_ring: int = 256,
    ) -> None:
        self.enabled = enabled
        self.registry = MetricsRegistry(clock=clock, enabled=enabled)
        self.tracer = Tracer(clock=clock, maxlen=trace_ring, enabled=enabled)

    def register_source(
        self,
        name: str,
        source: Instrumented | Callable[[], Mapping[str, float]],
    ) -> None:
        self.registry.register_source(name, source)

    # -- pipeline --------------------------------------------------------

    def record_stage_event(self, event: StageEvent) -> None:
        """Charge one stage invocation's counters to the registry."""
        if not self.enabled:
            return
        registry = self.registry
        registry.counter("pipeline_stage_batches_total").labels(
            stage=event.stage
        ).inc()
        registry.counter("pipeline_stage_docs_in_total").labels(
            stage=event.stage
        ).inc(event.in_size)
        registry.counter("pipeline_stage_docs_out_total").labels(
            stage=event.stage
        ).inc(event.out_size)
        if event.stage == "classify":
            registry.histogram("pipeline_commit_batch_docs").observe(
                event.in_size
            )
            accepted = event.extras.get("accepted")
            if accepted:
                registry.counter("pipeline_docs_accepted_total").inc(accepted)

    def count_hook_error(self) -> None:
        self.registry.counter("pipeline_hook_errors_total").inc()

    # -- robustness ------------------------------------------------------

    def breaker_transition(self, old_state: str, new_state: str) -> None:
        """Charged by every host circuit-breaker state change."""
        self.registry.counter("robust_breaker_transitions_total").labels(
            change=f"{old_state}->{new_state}"
        ).inc()
