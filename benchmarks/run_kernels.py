"""Standalone kernel benchmark runner (used by the CI smoke job).

Writes ``benchmarks/results/BENCH_kernels.json`` and, with ``--check``,
compares the measured *speedup ratios* against a committed baseline:

    PYTHONPATH=src:. python benchmarks/run_kernels.py \
        --check benchmarks/results/BENCH_kernels.json --max-regression 0.30

Speedup ratios (reference time / kernel time on the same machine) are
compared instead of absolute docs/sec so the check is machine-
independent; a run regresses when any ratio falls more than
``--max-regression`` below the baseline ratio.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys

if __package__ in (None, ""):  # allow `python benchmarks/run_kernels.py`
    sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent))

from benchmarks.kernel_runner import run_all

DEFAULT_OUT = pathlib.Path(__file__).parent / "results" / "BENCH_kernels.json"

#: (json section, human name) pairs whose ``speedup`` field is checked
CHECKED_SECTIONS = [
    ("classification", "batch classification"),
    ("hits", "CSR HITS"),
]


def check_regression(
    current: dict, baseline: dict, max_regression: float
) -> list[str]:
    """Human-readable failure lines (empty list = no regression)."""
    failures = []
    for section, label in CHECKED_SECTIONS:
        if section not in baseline:
            continue
        old = baseline[section]["speedup"]
        new = current.get(section, {}).get("speedup", 0.0)
        floor = old * (1.0 - max_regression)
        if new < floor:
            failures.append(
                f"{label}: speedup {new:.2f}x fell below {floor:.2f}x "
                f"(baseline {old:.2f}x - {max_regression:.0%} tolerance)"
            )
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--out", type=pathlib.Path, default=DEFAULT_OUT,
        help="where to write the results JSON",
    )
    parser.add_argument(
        "--check", type=pathlib.Path, default=None, metavar="BASELINE",
        help="baseline JSON to compare speedup ratios against",
    )
    parser.add_argument(
        "--max-regression", type=float, default=0.30,
        help="allowed fractional drop of each speedup ratio (default 0.30)",
    )
    args = parser.parse_args(argv)

    baseline = None
    if args.check is not None:
        if not args.check.is_file():
            print(f"baseline not found: {args.check}", file=sys.stderr)
            return 2
        baseline = json.loads(args.check.read_text())

    results = run_all()
    print(json.dumps(results, indent=2))

    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(results, indent=2) + "\n")
    print(f"\nwrote {args.out}")

    if baseline is not None:
        failures = check_regression(results, baseline, args.max_regression)
        if failures:
            print("\nREGRESSION:", file=sys.stderr)
            for line in failures:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("regression check passed against", args.check)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
