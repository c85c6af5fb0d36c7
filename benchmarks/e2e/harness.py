"""Timing, checking and metric assembly for one workload run.

How a run is timed
------------------
A run is set-up (untimed, several times for a median ``setup_s``), one
discarded warm-up repeat, then R timed repeats of the *same*
deterministic operation sequence (asserted via fingerprints).  The box
is a few vCPUs of a shared host whose speed drifts by tens of percent
for minutes at a time, so wall seconds are not reported as they are:
:mod:`benchmarks.e2e.calibrate` interleaves a fixed kernel with the
work every 20 ms, and every duration an end-to-end metric is made of is
its work seconds (ticks taken out) divided by the machine's speed in
that window -- *reference seconds*.  ``ops_per_s`` is the operations of
one repeat over the median repeat's reference seconds, ``setup_s`` the
imports' plus the median set-up's.

Repeats also drop marks at operation boundaries; request latencies are
the per-request minima over the repeats (segment ``k`` is the same work
in every repeat), percentiles are taken over those.

After set-up the harness calls ``gc.collect(); gc.freeze()`` so the
synthetic web (a 53k-page object graph that stands in for the real Web)
is never traversed by the collector; GC stays enabled inside timed
regions and ``gc.collect()`` runs between repeats.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from benchmarks.e2e.calibrate import Calibrator, WorkClock
from benchmarks.e2e.trace import Tracer, totals
from benchmarks.e2e.workloads import OUT_DIR, Repeat

__all__ = [
    "GOLDEN_SEED", "SPEC_PATH", "Result", "best_segments", "load_spec",
    "percentile", "run_workload",
]

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"
GOLDEN_SEED = 7

SETUPS = 3
"""Set-ups per end-to-end run; ``setup_s`` is their median."""
TRACED_REPEATS = 2
MIN_BEYOND = 10
"""Samples a percentile must leave beyond itself to be reported."""
SUM_TOLERANCE = 0.02

#: per-layer counts that are the call count of a span
_CALL_COUNTS = {
    "pipeline.batches": "pipeline.convert",
    "pipeline.items": "pipeline.admit",
    "text.scan.docs": "text.scan",
    "core.classifier.trains": "core.classifier.train",
    "ml.svm.fits": "ml.svm.fit",
}
#: the one span that only ever runs during set-up (it moves ``setup_s``)
_SETUP_BUSY = "portal.prime.busy_s"


def load_spec() -> dict[str, Any]:
    """``BENCHMARK.json``: the one list of metric names, units, bounds."""
    return json.loads(SPEC_PATH.read_text())


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; refuses one with fewer than
    :data:`MIN_BEYOND` samples beyond it."""
    ordered = sorted(values)
    index = max(math.ceil(q * len(ordered)) - 1, 0)
    beyond = len(ordered) - 1 - index
    if beyond < MIN_BEYOND:
        raise ValueError(
            f"p{q * 100:g} of {len(ordered)} samples leaves {beyond} "
            f"beyond it; need {MIN_BEYOND}"
        )
    return ordered[index]


def best_segments(marks_by_repeat: list[list[float]]) -> list[float]:
    """Per segment, the fastest repeat's duration (request latencies)."""
    durations = [
        [later - earlier for earlier, later in zip(marks, marks[1:])]
        for marks in marks_by_repeat
    ]
    return [min(segment) for segment in zip(*durations)]


@dataclass
class Result:
    """Everything one run reports; ``line()`` is the driver's contract."""

    workload: str
    seed: int
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, dict[str, Any]]
    problems: list[str] = field(default_factory=list)
    details: dict[str, Any] = field(default_factory=dict)

    def line(self) -> str:
        return json.dumps({
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": self.metrics,
        })


def _normal(fingerprint: dict[str, Any]) -> Any:
    """The fingerprint as it reads back from a golden file."""
    return json.loads(json.dumps(fingerprint, sort_keys=True))


def _rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        resident_pages = int(handle.read().split()[1])
    return resident_pages * resource.getpagesize() / 2**20


def _wall(repeat: Repeat) -> float:
    return repeat.marks[-1] - repeat.marks[0]


class _Run:
    """One workload run: owns the state, the repeats and the tracer."""

    def __init__(self, workload: Any, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.state: Any = None
        self.setups: list[tuple[float, float]] = []
        """``perf_counter`` window of every set-up."""
        self.fixture_rss_mb = 0.0
        self.repeats: list[Repeat] = []
        """Every repeat run, warm-up and traced ones included."""
        self.tracer = Tracer()

    def set_up(self) -> None:
        """Build fresh inputs; the previous ones are dropped first so
        peak memory never holds two webs."""
        gc.unfreeze()
        self.state = None
        gc.collect()
        self.tracer.label = f"setup-{len(self.repeats)}"
        started = time.perf_counter()
        self.state = self.workload.setup(self.seed)
        self.setups.append((started, time.perf_counter()))
        gc.collect()
        gc.freeze()
        self.fixture_rss_mb = _rss_mb()

    def repeat(self) -> Repeat:
        if self.workload.rebuild_per_repeat:
            self.set_up()
        gc.collect()
        self.tracer.counts.clear()
        self.tracer.label = f"repeat-{len(self.repeats)}"
        repeat = self.workload.repeat(self.state)
        # counts the wrappers' observe hooks took during this repeat
        repeat.layer.update(
            (name, float(count)) for name, count in self.tracer.counts.items()
        )
        self.repeats.append(repeat)
        return repeat

    def repeat_for(self, seconds: float, minimum: int) -> list[Repeat]:
        """At least ``minimum`` repeats, then more while another one
        still fits into ``seconds``."""
        begun = time.perf_counter()
        longest = 0.0
        done: list[Repeat] = []
        while len(done) < minimum or (
            time.perf_counter() - begun + longest <= seconds
        ):
            started = time.perf_counter()
            done.append(self.repeat())
            longest = max(longest, time.perf_counter() - started)
        return done


def run_workload(
    workload: Any,
    seed: int,
    *,
    seconds: float,
    repeats: int,
    trace: bool,
    started: float | None = None,
    golden: dict[str, Any] | None = None,
    calibrator: Calibrator | None = None,
) -> Result:
    """Run ``workload`` and assemble its metrics.

    ``started`` is the process's first ``perf_counter`` reading, so that
    imports count into ``setup_s``.  With ``trace`` the metrics are the
    per-layer ones, otherwise the end-to-end ones.  ``golden`` is the
    committed fingerprint to compare with, when one applies.
    ``calibrator`` is the running speed reference; without one, times
    are plain wall seconds.
    """
    spec = load_spec()
    imported = time.perf_counter()
    run = _Run(workload, seed)
    problems: list[str] = []

    if not workload.rebuild_per_repeat:
        # several set-ups for a median; the last one is kept
        for _ in range(1 if trace else SETUPS):
            run.set_up()
        run.repeat()  # warm-up, discarded (its fingerprint still counts)
    if trace:
        # untraced repeats only feed the overhead ratio and the latency
        # percentiles here; the traced ones take the rest of the time
        timed = run.repeat_for(seconds / 2, min(repeats, 2))
    else:
        timed = run.repeat_for(seconds, repeats)
    if calibrator is not None:
        calibrator.stop()
    clock = calibrator.clock() if calibrator is not None else WorkClock([], [])
    problems.extend(workload.verify(run.state))

    traced: list[int] = []
    if trace:
        run.tracer.install()
        try:
            for _ in range(TRACED_REPEATS):
                traced.append(len(run.repeats))
                run.repeat()
        finally:
            run.tracer.uninstall()
        run.tracer.write(
            OUT_DIR / f"trace-{workload.name}.json",
            windows={
                f"repeat-{index}": (
                    run.repeats[index].marks[0], run.repeats[index].marks[-1]
                )
                for index in traced
            },
            workload=workload.name, seed=seed,
        )

    # -- output checks -------------------------------------------------------
    reference = _normal(run.repeats[0].fingerprint)
    same_marks = True
    for index, repeat in enumerate(run.repeats):
        problems.extend(f"repeat {index}: {p}" for p in repeat.problems)
        if _normal(repeat.fingerprint) != reference:
            problems.append(f"repeat {index} fingerprint differs from 0")
        if len(repeat.marks) != len(run.repeats[0].marks):
            same_marks = False
            problems.append(f"repeat {index} dropped a different mark count")
    if golden is not None and reference != golden:
        problems.append("fingerprint differs from the committed golden")

    # -- timing --------------------------------------------------------------
    walls = [_wall(repeat) for repeat in timed]
    repeat_s = [
        clock.reference_seconds(repeat.marks[0], repeat.marks[-1])
        for repeat in timed
    ]
    setup_s = [clock.reference_seconds(*window) for window in run.setups]
    import_s = (
        clock.reference_seconds(started, imported)
        if started is not None else 0.0
    )
    ops = timed[0].ops
    latencies: list[float] = []
    if same_marks and timed[0].request_marks:
        # per request, the fastest repeat (ticks taken out of each)
        segments = best_segments([
            [clock.work(mark) for mark in repeat.marks] for repeat in timed
        ])
        latencies = [segments[index - 1] for index in timed[0].request_marks]

    details: dict[str, Any] = {
        "ops": ops,
        "wall_s": walls,
        "repeat_s": repeat_s,
        "speed": [
            clock.speed(repeat.marks[0], repeat.marks[-1]) for repeat in timed
        ],
        "ticks": len(clock.starts),
        "segments": len(timed[0].marks) - 1,
        "setup_samples_s": setup_s,
        "import_s": import_s,
        "latency_samples": len(latencies),
        "fingerprint": reference,
    }
    values: dict[str, float] = {}
    if trace:
        family = spec["per_layer"]
        if latencies:
            values["query_p50_ms"] = percentile(latencies, 0.5) * 1e3
            values["query_p99_ms"] = percentile(latencies, 0.99) * 1e3
        values["web.fixture_rss_mb"] = run.fixture_rss_mb
        index = min(traced, key=lambda i: _wall(run.repeats[i]))
        traced_s = _layer_values(
            run, index, [metric["name"] for metric in family], values,
            details,
        )
        values["trace.overhead_ratio"] = traced_s / min(walls)
        busy = sum(
            values.get(metric["name"], 0.0) for metric in family
            if metric["name"].endswith(".busy_s")
            and metric["name"] != _SETUP_BUSY
        )
        if abs(busy - traced_s) > SUM_TOLERANCE * traced_s:
            problems.append(
                f"reported busy_s sum to {busy:.4f}s, the traced repeat "
                f"took {traced_s:.4f}s"
            )
    else:
        family = spec["end_to_end"]
        values["setup_s"] = import_s + statistics.median(setup_s)
        values["ops_per_s"] = ops / statistics.median(repeat_s)
        values["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
    unknown = sorted(set(values) - {metric["name"] for metric in family})
    if unknown:
        problems.append(f"values BENCHMARK.json does not list: {unknown}")

    counted = timed + [run.repeats[index] for index in traced]
    return Result(
        workload=workload.name,
        seed=seed,
        correct=not problems,
        attempted=sum(repeat.ops for repeat in counted),
        failed=sum(repeat.failed for repeat in counted),
        metrics={
            metric["name"]: {
                "value": float(values.get(metric["name"], 0.0)),
                "unit": metric["unit"],
            }
            for metric in family
        },
        problems=problems,
        details=details,
    )


def _layer_values(
    run: _Run, index: int, names: list[str], values: dict[str, float],
    details: dict[str, Any],
) -> float:
    """Fill ``values`` from traced repeat ``index``; returns the wall
    seconds of its timed region."""
    repeat = run.repeats[index]
    window = (repeat.marks[0], repeat.marks[-1])
    timed = totals(run.tracer.spans, f"repeat-{index}", window)
    for span, seconds in timed.self_s.items():
        values[f"{span}.busy_s"] = seconds
    values["bench.untraced.busy_s"] = timed.untraced_s
    for name in names:
        if name.endswith(".calls"):
            values[name] = float(
                timed.calls.get(name.removesuffix(".calls"), 0)
            )
    for name, span in _CALL_COUNTS.items():
        values[name] = float(timed.calls.get(span, 0))
    values.update(repeat.layer)
    set_up = totals(run.tracer.spans, f"setup-{index}")
    values[_SETUP_BUSY] = set_up.self_s.get("portal.prime", 0.0)
    details["traced_repeat_s"] = window[1] - window[0]
    details["inclusive_s"] = timed.inclusive_s
    return window[1] - window[0]
