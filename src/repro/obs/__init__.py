"""Unified observability layer for the crawl runtime (``repro.obs``).

BINGO!'s evaluation is entirely driven by runtime counters -- fetched /
positive / stored documents per phase, host errors, retrain events --
and a production crawler (BUbiNG et al.) lives or dies by a first-class
metrics layer.  Here a count is kept once, by the object that owns the
state, and this package is the one way to read them all:

* :mod:`repro.obs.api` -- the stable contract: the typed
  :class:`~repro.obs.api.StageEvent` pipeline hooks receive, the
  :class:`~repro.obs.api.Instrumented` ``stats() -> dict[str, float]``
  protocol every subsystem's counters hide behind;
* :mod:`repro.obs.registry` -- a deterministic
  :class:`~repro.obs.registry.MetricsRegistry`: a read-only directory
  of named ``stats()`` sources, read at snapshot time and stamped by
  the simulated clock, never wall time;
* :mod:`repro.obs.tracing` -- a :class:`~repro.obs.tracing.Tracer`
  turning pipeline micro-batches into nested spans (crawl ->
  micro-batch -> stage -> per-doc decision) with bounded ring-buffer
  retention;
* :mod:`repro.obs.export` -- Prometheus text, JSON snapshot and
  periodic progress-line exporters over the same snapshot.

One :class:`Obs` bundle (registry + tracer bound to one clock) lives on
every :class:`~repro.pipeline.context.CrawlContext`.  Whoever builds an
object registers it as a source; the objects themselves never see the
bundle, and the registry has no write side, so the metrics path cannot
change a crawl.  Everything here is simulated time and counts, so a
snapshot is byte-identical across runs with one seed; wall seconds are
measured from outside, by ``benchmarks/e2e/trace.py``.
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
    """One crawl's observability bundle: registry + tracer on one clock."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self.registry = MetricsRegistry(clock=clock)
        self.tracer = Tracer(clock=clock)

    def register_source(
        self,
        name: str,
        source: Instrumented | Callable[[], Mapping[str, float]],
    ) -> None:
        self.registry.register_source(name, source)
