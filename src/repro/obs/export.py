"""Metric exporters: Prometheus text format, JSON snapshots, progress lines.

All three read the same :meth:`~repro.obs.registry.MetricsRegistry.
snapshot`, so they agree by construction:

* :func:`to_prometheus` -- the Prometheus text exposition format
  (one ``# TYPE`` header and one gauge sample per source key).
  :func:`parse_prometheus` reads it back into the flat sample dict of
  :func:`flatten_snapshot` for round-trip checks.
* :func:`to_json` / :func:`from_json` -- the snapshot as canonical
  (sorted-key) JSON; loads back equal to the original snapshot.
* :class:`ProgressReporter` -- a pipeline :class:`~repro.obs.api.Hook`
  printing a one-line crawl summary every N micro-batch rounds.
"""

from __future__ import annotations

import json
import pathlib
from typing import TextIO

from repro.obs.api import StageEvent
from repro.obs.registry import MetricsRegistry, format_float

__all__ = [
    "flatten_snapshot",
    "to_prometheus",
    "parse_prometheus",
    "to_json",
    "from_json",
    "write_metrics",
    "ProgressReporter",
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


def parse_prometheus(text: str) -> dict[str, float]:
    """Parse Prometheus text back into the :func:`flatten_snapshot` dict."""
    samples: dict[str, float] = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.rpartition(" ")
        samples[key] = float(value)
    return samples


def to_json(registry: MetricsRegistry, indent: int | None = None) -> str:
    """The registry snapshot as canonical (sorted-key) JSON."""
    return json.dumps(registry.snapshot(), sort_keys=True, indent=indent)


def from_json(text: str) -> dict:
    """Load a JSON snapshot back into its dict form."""
    return json.loads(text)


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


class ProgressReporter:
    """A typed pipeline hook printing periodic one-line progress reports.

    Fires once every ``every`` micro-batch rounds (detected on the
    ``expand`` stage, which runs exactly once per committed round) and
    prints the sums of the events it was delivered.
    """

    def __init__(self, stream: TextIO | None = None, every: int = 25) -> None:
        if every < 1:
            raise ValueError(f"progress interval must be >= 1, got {every}")
        self.stream = stream
        self.every = every
        self.lines = 0
        self._rounds = 0
        self._fetched = 0
        self._stored = 0
        self._accepted = 0

    def __call__(self, event: StageEvent) -> None:
        if event.stage == "convert":
            self._fetched += event.in_size
        elif event.stage == "classify":
            self._accepted += int(event.extras.get("accepted", 0))
        elif event.stage == "persist":
            self._stored += event.out_size
        elif event.stage == "expand":
            self._rounds += 1
            if self._rounds % self.every == 0:
                print(
                    f"[obs] round={event.batch_index}"
                    f" fetched={self._fetched} stored={self._stored}"
                    f" accepted={self._accepted}",
                    file=self.stream,
                )
                self.lines += 1
