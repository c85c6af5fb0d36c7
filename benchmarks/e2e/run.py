"""The one benchmark command.

Driver form (one workload, one metric family, one JSON line last)::

    python3 benchmarks/e2e/run.py --workload NAME --seed N --seconds S --trace 0|1

Human form -- every workload, end-to-end run then traced run, each in
its own fresh single-threaded subprocess::

    PYTHONPATH=src:. python -m benchmarks.e2e.run [--workload NAME]
        [--seed N] [--seconds S] [--repeats R] [--trace 0|1] [--out PATH]

Exits non-zero on any fingerprint, golden or oracle mismatch.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

_STARTED = time.perf_counter()
_HERE = Path(__file__).resolve().parent
_ROOT = _HERE.parents[1]
GOLDEN_DIR = _HERE / "golden"

#: str hashes feed set iteration order and dict collision chains; pin
#: them so two runs of one commit execute the same instruction stream
_HASH_SEED = "0"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="default: all four")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument(
        "--seconds", type=float,
        help="measuring time per run (default: BENCHMARK.json run_seconds)",
    )
    parser.add_argument(
        "--repeats", type=int, default=3,
        help="timed repeats at least (more run while they fit --seconds)",
    )
    parser.add_argument(
        "--trace", type=int, choices=(0, 1),
        help="0: end-to-end metrics, 1: per-layer metrics (default: both)",
    )
    parser.add_argument("--out", help="write every run's report here (JSON)")
    parser.add_argument(
        "--update-golden", action="store_true",
        help="rewrite golden/<workload>.json from this run (seed 7 only)",
    )
    return parser


def _environment() -> dict[str, str]:
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = _HASH_SEED
    return environment


def _print_report(report: dict[str, Any]) -> None:
    details = report["details"]
    print(f"== {report['workload']} (seed {report['seed']}, "
          f"{'per-layer' if report['trace'] else 'end-to-end'}) ==")
    print(f"  ops/repeat {details['ops']}  attempted {report['attempted']}"
          f"  ops_failed {report['failed']}  segments {details['segments']}"
          f"  latency samples {details['latency_samples']}")
    for name in ("repeat_s", "wall_s", "speed"):
        print(f"  {name} " + " ".join(f"{s:.3f}" for s in details[name]))
    print("  setup_s samples "
          + " ".join(f"{s:.3f}" for s in details["setup_samples_s"])
          + f"  import_s {details['import_s']:.3f}"
          + f"  ticks {details['ticks']}")
    for name, metric in report["metrics"].items():
        print(f"  {name:42s} {metric['value']:14.6g} {metric['unit']}")
    for problem in report["problems"]:
        print(f"  MISMATCH: {problem}")


def run_leaf(args: argparse.Namespace) -> int:
    """One (workload, family) run in this process."""
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]
    from benchmarks.e2e.calibrate import Calibrator

    # per-layer self times must sum to the traced repeat: no ticks there
    calibrator = None if args.trace else Calibrator()
    if calibrator is not None:
        calibrator.start()  # before the imports, they count into setup_s
    try:
        from benchmarks.e2e import harness, workloads

        workload = workloads.build(args.workload)
        golden_path = GOLDEN_DIR / f"{workload.name}.json"
        golden = None
        if args.seed == harness.GOLDEN_SEED and not args.update_golden:
            golden = json.loads(golden_path.read_text())["fingerprint"]
        seconds = args.seconds
        if seconds is None:
            seconds = harness.load_spec()["run_seconds"]
        result = harness.run_workload(
            workload, args.seed, seconds=seconds, repeats=args.repeats,
            trace=bool(args.trace), started=_STARTED, golden=golden,
            calibrator=calibrator,
        )
    finally:
        if calibrator is not None:
            calibrator.stop()  # an armed timer would kill a failing run
    if args.update_golden and args.seed == harness.GOLDEN_SEED:
        golden_path.parent.mkdir(exist_ok=True)
        golden_path.write_text(json.dumps({
            "seed": args.seed,
            "sizes": workloads.SIZES["full"][workload.name],
            "fingerprint": result.details["fingerprint"],
        }, indent=2, sort_keys=True) + "\n")
    report = {**dataclasses.asdict(result), "trace": args.trace}
    _print_report(report)
    if args.out:
        Path(args.out).write_text(json.dumps(report))
    print(result.line())
    return 0 if result.correct else 1


def run_child(workload: str, trace: int, seed: int,
              seconds: float | None = None, repeats: int = 3,
              ) -> dict[str, Any]:
    """One leaf run in a fresh subprocess; returns its report."""
    report_path = _HERE / "out" / f"report-{os.getpid()}.json"
    report_path.parent.mkdir(exist_ok=True)
    command = [
        sys.executable, str(_HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--repeats", str(repeats),
        "--trace", str(trace), "--out", str(report_path),
    ]
    if seconds is not None:
        command += ["--seconds", str(seconds)]
    try:
        completed = subprocess.run(
            command, env=_environment(), stdout=subprocess.PIPE, text=True,
        )
        if not report_path.exists():
            sys.stdout.write(completed.stdout)
            raise SystemExit(
                f"{workload} --trace {trace} exited "
                f"{completed.returncode} without a report"
            )
        return json.loads(report_path.read_text())
    finally:
        report_path.unlink(missing_ok=True)


def main() -> int:
    parser = _parser()
    args = parser.parse_args()
    leaf = args.workload is not None and args.trace is not None
    if args.update_golden and not leaf:
        parser.error("--update-golden needs --workload and --trace")
    if leaf:
        if os.environ.get("PYTHONHASHSEED") != _HASH_SEED:
            os.execve(
                sys.executable,
                [sys.executable, str(_HERE / "run.py"), *sys.argv[1:]],
                _environment(),
            )
        return run_leaf(args)
    names = (
        [args.workload] if args.workload is not None
        else [w["name"] for w in
              json.loads((_ROOT / "BENCHMARK.json").read_text())["workloads"]]
    )
    families = [args.trace] if args.trace is not None else [0, 1]
    reports = []
    for name in names:
        for family in families:
            report = run_child(
                name, family, args.seed, args.seconds, args.repeats
            )
            _print_report(report)
            reports.append(report)
    if args.out:
        Path(args.out).write_text(json.dumps(reports, indent=1))
    return 0 if all(report["correct"] for report in reports) else 1


if __name__ == "__main__":
    sys.exit(main())
