"""A deterministic, read-only directory of named metric sources.

A count lives in exactly one place: an attribute of the object that
owns the state, reported by that object's ``stats()``
(:class:`~repro.obs.api.Instrumented`).  The registry keeps no numbers
of its own -- there is nothing to increment, so nothing in the crawl
runtime can write to it.  Whoever builds an object registers it (or a
callable reading it) under a source name, and a snapshot calls every
source:

* **deterministic time** -- the registry never reads wall time; its
  snapshot timestamp comes from the clock callable it was constructed
  with (the crawl wires the simulated :class:`~repro.web.clock.
  SimulatedClock`), so two identical crawls produce bit-identical
  snapshots;
* **read at snapshot time** -- a source is read when the snapshot is
  taken, never copied, so the exported figure *is* the figure the
  benchmark and the tests read from the same ``stats()``.
"""

from __future__ import annotations

from typing import Callable, Mapping

from repro.obs.api import METRIC_NAME_RE, Instrumented

__all__ = ["MetricsRegistry"]


def _check_name(name: str) -> str:
    if not METRIC_NAME_RE.match(name):
        raise ValueError(f"metric name {name!r} is not snake_case")
    return name


def format_float(value: float) -> str:
    """Render a float the way both exporters do (ints stay ints)."""
    as_float = float(value)
    if as_float.is_integer() and abs(as_float) < 1e15:
        return str(int(as_float))
    return repr(as_float)


class MetricsRegistry:
    """Named ``stats()`` sources, read together at snapshot time."""

    def __init__(self, clock: Callable[[], float] | None = None) -> None:
        self._clock = clock if clock is not None else (lambda: 0.0)
        self._sources: dict[
            str, Instrumented | Callable[[], Mapping[str, float]]
        ] = {}

    def register_source(
        self,
        name: str,
        source: "Instrumented | Callable[[], Mapping[str, float]]",
    ) -> None:
        """Merge ``source.stats()`` (or ``source()``) into every snapshot.

        A name is registered once: a second source under it would
        silently replace the first, and its counters would leave every
        export.
        """
        _check_name(name)
        if name in self._sources:
            raise ValueError(f"metric source {name!r} is already registered")
        if not isinstance(source, Instrumented) and not callable(source):
            raise TypeError(
                f"source {name!r} must implement stats() or be callable"
            )
        self._sources[name] = source

    def source_stats(self) -> dict[str, dict[str, float]]:
        """Every registered source's stats, keys validated snake_case."""
        merged: dict[str, dict[str, float]] = {}
        for name in sorted(self._sources):
            source = self._sources[name]
            stats = (
                source.stats()
                if isinstance(source, Instrumented)
                else source()
            )
            merged[name] = {
                _check_name(key): float(value)
                for key, value in sorted(stats.items())
            }
        return merged

    def snapshot(self) -> dict:
        """Every source's figures as a JSON-safe, deterministic dict."""
        return {
            "at": float(self._clock()),
            "sources": self.source_stats(),
        }
