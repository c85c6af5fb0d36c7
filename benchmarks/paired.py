"""Alternating parent/change pairs of ``benchmarks/e2e`` workloads.

Machine load drifts over minutes, so only runs taken in alternation in
one session compare (ROADMAP, "Measurement").  This exports ``--parent``
with ``git archive`` into a temporary directory (nothing is left in
``.git``), then runs::

    python3 benchmarks/e2e/run.py --workload W --seed S --seconds T --trace 0

in that tree and in this one, ``--pairs`` times (default 10), swapping
which side goes first each pair.  Several workloads run in one session,
interleaved pair by pair.  For each workload it prints, per end-to-end
metric of ``BENCHMARK.json``, both medians, quartiles and ranges, how
often the change won (ties count for neither) and a verdict line; then
``correct`` / ``ops_failed`` of every run made.  The verdict is the rule of the
``choosing-metrics`` guide: ``gain`` (``loss``) when the change won
(lost) at least nine tenths of the untied pairs *and* the medians differ
by more than the distance between the parent's quartiles; otherwise
``unresolved`` -- which is not "unchanged"::

    python3 benchmarks/paired.py --parent HEAD --workload living-portal
    python3 benchmarks/paired.py --parent HEAD --workload crawl-n1 \\
        crawl-n4-faults serve-cold living-portal

The change is the working tree as it stands, committed or not.
"""

from __future__ import annotations

import argparse
import io
import json
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[1]


def export(revision: str, target: Path) -> None:
    """``git archive revision`` unpacked into ``target``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", revision],
        cwd=ROOT, check=True, capture_output=True,
    ).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(target, filter="data")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One untraced run in ``tree``; its last stdout line is the report."""
    result = subprocess.run(
        [
            sys.executable, "benchmarks/e2e/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
        ],
        cwd=tree, capture_output=True, text=True,
    )
    lines = result.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(
            f"{tree}: run.py exited {result.returncode} without a report\n"
            f"{result.stdout}{result.stderr}"
        )
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> tuple[float, float]:
    """Lower and upper quartile (inclusive method; one run is its own)."""
    if len(values) < 2:
        return values[0], values[0]
    low, _, high = quantiles(values, n=4, method="inclusive")
    return low, high


def tally(
    metric: dict, parent: list[float], change: list[float]
) -> tuple[int, int]:
    """Pairs the change won and pairs it lost; ties count for neither."""
    sign = 1.0 if metric["better"] == "higher" else -1.0
    gaps = [sign * (c - p) for p, c in zip(parent, change)]
    return sum(gap > 0 for gap in gaps), sum(gap < 0 for gap in gaps)


def verdict(metric: dict, parent: list[float], change: list[float]) -> str:
    """``gain`` / ``loss`` / ``unresolved`` for one metric's paired runs."""
    wins, losses = tally(metric, parent, change)
    low, high = quartiles(parent)
    shift = median(change) - median(parent)
    if abs(shift) <= high - low:
        return "unresolved"
    improved = (shift > 0) == (metric["better"] == "higher")
    if (wins if improved else losses) < 0.9 * (wins + losses):
        return "unresolved"
    return "gain" if improved else "loss"


def summarize(metric: dict, parent: list[float], change: list[float]) -> str:
    wins, losses = tally(metric, parent, change)
    base = median(parent)

    def side(name: str, values: list[float]) -> str:
        low, high = quartiles(values)
        return (
            f"{name} {median(values):10.4g} q[{low:.4g} .. {high:.4g}] "
            f"[{min(values):.4g} .. {max(values):.4g}]"
        )

    low, high = quartiles(parent)
    return (
        f"  {metric['name']:12s} {side('parent', parent)}   "
        f"{side('change', change)}   "
        f"{(median(change) - base) / base:+7.1%} ({metric['better']} is "
        f"better)   change won {wins} of {wins + losses}\n"
        f"  {'':12s} verdict: {verdict(metric, parent, change)} "
        f"(median gap {abs(median(change) - base):.4g} against the parent's "
        f"inter-quartile distance {high - low:.4g})"
    )


def arguments(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="revision to export")
    parser.add_argument(
        "--workload", required=True, nargs="+",
        help="one or more workloads, measured in one alternating session",
    )
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--pairs", type=int, default=10)
    return parser.parse_args(argv)


def schedule(workloads: list[str], pairs: int) -> list[tuple[int, str, str]]:
    """``(pair, workload, side)`` in run order: a pair runs every
    workload once on each side, and which side goes first alternates
    from pair to pair."""
    return [
        (pair, workload, side)
        for pair in range(pairs)
        for workload in workloads
        for side in (
            ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        )
    ]


def main() -> int:
    args = arguments()
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    runs: dict[str, dict[str, list[dict]]] = {
        workload: {"parent": [], "change": []} for workload in args.workload
    }
    with tempfile.TemporaryDirectory(prefix="paired-parent-") as scratch:
        export(args.parent, Path(scratch))
        trees = {"parent": Path(scratch), "change": ROOT}
        for pair, workload, side in schedule(args.workload, args.pairs):
            report = run_once(trees[side], workload, args.seed, args.seconds)
            runs[workload][side].append(report)
            print(
                f"pair {pair + 1} {workload} {side:6s} "
                f"correct={report['correct']} "
                f"ops_failed={report['failed']} " + " ".join(
                    f"{m['name']}={report['metrics'][m['name']]['value']:.4g}"
                    for m in metrics
                ),
                flush=True,
            )
    for workload, sides in runs.items():
        print(f"== {workload} seed {args.seed}, {args.seconds:g} s, "
              f"{args.pairs} alternating pairs, parent {args.parent} ==")
        for metric in metrics:
            values = {
                side: [r["metrics"][metric["name"]]["value"] for r in reports]
                for side, reports in sides.items()
            }
            print(summarize(metric, values["parent"], values["change"]))
    sound = all(
        r["correct"] and r["failed"] == 0
        for sides in runs.values() for rs in sides.values() for r in rs
    )
    print(f"  every run correct with ops_failed 0: {sound}")
    return 0 if sound else 1


if __name__ == "__main__":
    sys.exit(main())
