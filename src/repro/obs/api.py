"""The stable instrumentation contract of the observability layer.

Two small protocols decouple every subsystem from the concrete
registry/tracer implementation:

* :class:`Instrumented` -- anything exposing ``stats() -> dict[str,
  float]`` with snake_case keys.  The breaker board, the bulk loader,
  the vector cache, the compiled kernels, the crawl stats and the
  search engine all implement it, and
  :meth:`~repro.obs.registry.MetricsRegistry.register_source` merges
  them into one snapshot.
* :class:`Hook` -- a callable receiving one typed :class:`StageEvent`
  per pipeline stage invocation.  ``hook(event)`` is the *only*
  supported signature: the historical positional ``hook(stage_name,
  in_size, out_size, elapsed)`` form and its deprecation-period adapter
  were removed after their one-release grace window.

Nothing here is wall-clock time: a :class:`StageEvent` carries counts,
and everything a metrics snapshot reads is deterministic and
timestamped by the simulated clock.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Protocol, runtime_checkable

__all__ = [
    "METRIC_NAME_RE",
    "StageEvent",
    "Hook",
    "Instrumented",
]

#: metric and stats keys must be snake_case prometheus-safe identifiers
METRIC_NAME_RE = re.compile(r"^[a-z][a-z0-9_]*$")


@dataclass(frozen=True)
class StageEvent:
    """One pipeline stage invocation, as seen by observability hooks."""

    stage: str
    """Stage name (one of :data:`repro.pipeline.stages.STAGE_NAMES`)."""
    batch_index: int
    """Index of the micro-batch round this invocation belongs to."""
    in_size: int
    out_size: int
    extras: Mapping[str, float] = field(default_factory=dict)
    """Stage-specific detail (e.g. ``accepted`` on classify)."""


@runtime_checkable
class Hook(Protocol):
    """A typed pipeline observability hook."""

    def __call__(self, event: StageEvent) -> None: ...


@runtime_checkable
class Instrumented(Protocol):
    """Anything that can report its counters into a metrics snapshot."""

    def stats(self) -> dict[str, float]:
        """Current counter values, snake_case keys, float values."""
        ...
