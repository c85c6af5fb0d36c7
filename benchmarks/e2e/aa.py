"""A/A check: two sets of runs of the same code must agree.

    PYTHONPATH=src:. python -m benchmarks.e2e.aa [--sets 2 --runs 3]

Runs the benchmark as ``--sets`` sets of ``--runs`` end-to-end runs per
workload (run ``r`` of every set uses seed ``--seed + r``, as the driver
does), prints per (workload, metric) the set medians, the relative
difference between the first two sets in the metric's *worse* direction
and the widest within-set quartile distance, and exits non-zero if a
difference or a spread exceeds the metric's bound in ``BENCHMARK.json``.
Each set also makes one traced run per workload at ``--seed``; every
exact per-layer value (anything not a time or a memory size) must be
identical across sets.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any

from benchmarks.e2e import run
from benchmarks.e2e.harness import load_spec

_WALL_UNITS = {"s", "ms", "MB"}
"""Units of per-layer metrics that are measured, not counted; the
overhead ratio is a quotient of two times."""
_MEASURED = {"trace.overhead_ratio"}


def _spread(values: list[float]) -> float:
    """Quartile distance as a share of the median (needs two values)."""
    if len(values) < 2:
        return 0.0
    first, _median, third = statistics.quantiles(values, n=4)
    return (third - first) / statistics.median(values)


def _worse_by(first: float, second: float, better: str) -> float:
    """How much worse ``second`` is than ``first``, as a share of it."""
    change = (second - first) / first
    return change if better == "lower" else -change


def compare(spec: dict[str, Any], sets: list[dict[str, dict[str, list]]],
            ) -> list[dict[str, Any]]:
    """One row per (workload, end-to-end metric)."""
    rows = []
    for workload in (w["name"] for w in spec["workloads"]):
        for metric in spec["end_to_end"]:
            samples = [s[workload][metric["name"]] for s in sets]
            medians = [statistics.median(values) for values in samples]
            difference = (
                _worse_by(medians[0], medians[1], metric["better"])
                if len(medians) > 1 else 0.0
            )
            spread = max(_spread(values) for values in samples)
            rows.append({
                "workload": workload,
                "metric": metric["name"],
                "unit": metric["unit"],
                "medians": medians,
                "worse_by": difference,
                "spread": spread,
                "bound": metric["bound"],
                # the driver exempts setup_s from the spread rule only
                "ok": difference <= metric["bound"] and (
                    metric["name"] == "setup_s" or spread <= metric["bound"]
                ),
            })
    return rows


def count_mismatches(spec: dict[str, Any],
                     traced: list[dict[str, dict[str, float]]]) -> list[str]:
    """Exact per-layer values that differ between the sets' traced runs."""
    exact = [
        metric["name"] for metric in spec["per_layer"]
        if metric["unit"] not in _WALL_UNITS
        and metric["name"] not in _MEASURED
    ]
    mismatches = []
    for workload, reference in traced[0].items():
        for other in traced[1:]:
            mismatches.extend(
                f"{workload} {name}: {reference[name]} != "
                f"{other[workload][name]}"
                for name in exact
                if reference[name] != other[workload][name]
            )
    return mismatches


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=3)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--out", default=str(Path(__file__).parent / "out" / "aa.json")
    )
    args = parser.parse_args()
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]

    sets: list[dict[str, dict[str, list]]] = []
    traced: list[dict[str, dict[str, float]]] = []
    correct = True
    for number in range(args.sets):
        samples: dict[str, dict[str, list]] = {
            name: {m["name"]: [] for m in spec["end_to_end"]}
            for name in names
        }
        for offset in range(args.runs):
            for name in names:
                report = run.run_child(name, 0, args.seed + offset)
                print(f"set {number} run {offset} {name}: "
                      f"{report['metrics']['ops_per_s']['value']:.1f} ops/s",
                      file=sys.stderr)
                correct = correct and report["correct"]
                for metric, entry in report["metrics"].items():
                    samples[name][metric].append(entry["value"])
        sets.append(samples)
        layer = {}
        for name in names:
            report = run.run_child(name, 1, args.seed)
            correct = correct and report["correct"]
            layer[name] = {
                metric: entry["value"]
                for metric, entry in report["metrics"].items()
            }
        traced.append(layer)

    rows = compare(spec, sets)
    mismatches = count_mismatches(spec, traced)
    print(f"{'workload':16s} {'metric':12s} {'medians':>25s} "
          f"{'worse by':>9s} {'spread':>7s} {'bound':>6s}")
    for row in rows:
        medians = " ".join(f"{median:.5g}" for median in row["medians"])
        print(f"{row['workload']:16s} {row['metric']:12s} {medians:>25s} "
              f"{row['worse_by']:+9.3f} {row['spread']:7.3f} "
              f"{row['bound']:6.2f}{'' if row['ok'] else '  EXCEEDED'}")
    for mismatch in mismatches:
        print(f"COUNT MISMATCH: {mismatch}")
    Path(args.out).write_text(json.dumps({
        "sets": args.sets, "runs": args.runs, "seed": args.seed,
        "rows": rows, "samples": sets, "count_mismatches": mismatches,
        "all_runs_correct": correct,
    }, indent=1) + "\n")
    ok = correct and not mismatches and all(row["ok"] for row in rows)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
