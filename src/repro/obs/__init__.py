"""Unified observability layer for the crawl runtime (``repro.obs``).

BINGO!'s evaluation is entirely driven by runtime counters -- fetched /
positive / stored documents per phase, host errors, retrain events --
and a production crawler (BUbiNG et al.) lives or dies by a first-class
metrics layer.  Here a count is kept once, by the object that owns the
state, and this package is the one way to read them all:

* :mod:`repro.obs.api` -- the stable contract: the typed
  :class:`~repro.obs.api.StageEvent` pipeline hooks receive (one per
  stage run, the only record of it), the
  :class:`~repro.obs.api.Instrumented` ``stats() -> dict[str, float]``
  protocol every subsystem's counters hide behind;
* :mod:`repro.obs.registry` -- a deterministic
  :class:`~repro.obs.registry.MetricsRegistry`: a read-only directory
  of named ``stats()`` sources, read at snapshot time and stamped by
  the simulated clock, never wall time;
* :mod:`repro.obs.export` -- Prometheus text and JSON snapshot
  exporters over the same snapshot (``--metrics-out``).

Every :class:`~repro.pipeline.context.CrawlContext` owns one registry
as ``ctx.obs``.  Whoever builds an object registers it as a source;
the objects themselves never see the registry, and the registry has no
write side, so the metrics path cannot change a crawl.  Everything
here is simulated time and counts, so a snapshot is byte-identical
across runs with one seed; wall seconds are measured from outside, by
``benchmarks/e2e/trace.py``.
"""

from __future__ import annotations

from repro.obs.api import (
    Hook,
    Instrumented,
    StageEvent,
)
from repro.obs.export import (
    parse_prometheus,
    to_json,
    to_prometheus,
    write_metrics,
)
from repro.obs.registry import MetricsRegistry

__all__ = [
    "StageEvent",
    "Hook",
    "Instrumented",
    "MetricsRegistry",
    "to_prometheus",
    "parse_prometheus",
    "to_json",
    "write_metrics",
]
