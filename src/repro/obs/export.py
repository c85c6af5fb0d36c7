"""Metric exporters: Prometheus text format and JSON snapshots.

Both read the same :meth:`~repro.obs.registry.MetricsRegistry.
snapshot`, so they agree by construction:

* :func:`to_prometheus` -- the Prometheus text exposition format
  (one ``# TYPE`` header and one gauge sample per source key, the
  samples of :func:`flatten_snapshot`).
* :func:`to_json` -- the snapshot as canonical (sorted-key) JSON;
  ``json.loads`` gives back the original snapshot.
"""

from __future__ import annotations

import json
import pathlib

from repro.obs.registry import MetricsRegistry, format_float

__all__ = [
    "flatten_snapshot",
    "to_prometheus",
    "to_json",
    "write_metrics",
]


def flatten_snapshot(snapshot: dict) -> dict[str, float]:
    """Every sample of a snapshot as ``{'<source>_<key>': value}`` --
    exactly the samples :func:`to_prometheus` writes."""
    return {
        f"{source}_{key}": float(value)
        for source, stats in snapshot["sources"].items()
        for key, value in stats.items()
    }


def to_prometheus(registry: MetricsRegistry) -> str:
    """The registry in the Prometheus text exposition format (every
    source key is a ``<source>_<key>`` gauge)."""
    lines: list[str] = []
    for name, value in flatten_snapshot(registry.snapshot()).items():
        lines.append(f"# TYPE {name} gauge")
        lines.append(f"{name} {format_float(value)}")
    return "\n".join(lines) + "\n"


def to_json(registry: MetricsRegistry, indent: int | None = None) -> str:
    """The registry snapshot as canonical (sorted-key) JSON."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=indent)


def write_metrics(registry: MetricsRegistry, path) -> pathlib.Path:
    """Write a snapshot to ``path``: Prometheus text for ``.prom`` /
    ``.txt``, JSON otherwise."""
    path = pathlib.Path(path)
    if path.parent != pathlib.Path("."):
        path.parent.mkdir(parents=True, exist_ok=True)
    if path.suffix in (".prom", ".txt"):
        path.write_text(to_prometheus(registry))
    else:
        path.write_text(to_json(registry, indent=2) + "\n")
    return path

