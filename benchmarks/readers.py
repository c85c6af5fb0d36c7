"""Which ``src/repro`` code each reader of the program reaches.

A *reader* runs the program for a reason of its own, not to test one
unit: a ``bench_paper.py`` claim, the other two bench files, a short
leaf of each ``benchmarks/e2e`` workload, a CI smoke or CLI command,
an example, and the linter.  Code that no reader reaches is carried
only by its own unit tests -- a candidate for deletion.

Each reader runs in its own subprocess under ``PYTHONHASHSEED=0`` (so
the e2e leaf does not re-exec) with ``sys.setprofile`` and
``threading.setprofile`` installed, and records every function of
``src/repro`` that is called.  Module and class bodies run at import
and do not count; neither do lambdas and comprehensions, which belong
to the function around them.  A bench test is called directly with a
stand-in ``benchmark`` fixture that calls straight through (a pytest
run leaves the profile nothing past import), and what it reaches counts
whether or not its assertions hold.  The table -- module -> readers,
then the functions no reader reaches -- is deterministic for one Python
version (it was made with 3.11; another version's stdlib may call a
different set)::

    python3 benchmarks/readers.py     # every reader, ~5-7 min; rewrites
                                      # benchmarks/results/readers.txt
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import runpy
import subprocess
import sys
import tempfile
import textwrap
import threading
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
TABLE = Path(__file__).resolve().parent / "results" / "readers.txt"


@dataclass(frozen=True)
class Reader:
    name: str
    command: tuple[str, ...]
    """What ``python`` is given: ``-m MODULE ARGS``, ``SCRIPT ARGS``, a
    bench file (every test in it, in order) or ``BENCH::TEST``.
    ``{tmp}`` stands for a fresh temporary directory."""
    loads: str | None = None
    """A ``--dump-db`` directory to read back with ``load_database``."""


def readers() -> list[Reader]:
    """Every reader, in table order; the claims are ``bench_paper.py``'s
    ``test_*`` functions, in file order."""
    source = (ROOT / "benchmarks" / "bench_paper.py").read_text()
    claims = [
        line[len("def "):].split("(")[0]
        for line in source.splitlines()
        if line.startswith("def test_")
    ]
    cli = ("-m", "repro.cli")
    workloads = ("crawl-n1", "crawl-n4-faults", "serve-cold", "living-portal")
    return [
        *(
            Reader(f"paper:{claim[len('test_'):]}",
                   (f"benchmarks/bench_paper.py::{claim}",))
            for claim in claims
        ),
        Reader("bench:crawl_management",
               ("benchmarks/bench_crawl_management.py",)),
        Reader("bench:storage_throughput",
               ("benchmarks/bench_storage_throughput.py",)),
        *(
            Reader(f"e2e:{workload}", (
                "benchmarks/e2e/run.py", "--workload", workload,
                "--seed", "7", "--seconds", "0.1", "--repeats", "1",
                "--trace", "0",
            ))
            for workload in workloads
        ),
        Reader("cli:portal-tables", (*cli, "portal", "tables", "--seed",
                                     "17", "--short", "200", "--long", "400")),
        *(
            Reader(f"cli:portal-crawl-w{workers}", (
                *cli, "portal", "crawl", "--seed", "7", "--budget", "200",
                "--workers", workers, "--dump-db", "{tmp}/db",
                "--export-portal", "{tmp}/portal",
            ), loads="{tmp}/db")
            for workers in ("1", "3")
        ),
        Reader("cli:portal-queryload", (
            *cli, "portal", "queryload", "--seed", "7", "--budget", "300",
            "--requests", "400", "--metrics-out", "{tmp}/queryload.json",
        )),
        Reader("cli:portal-evolve", (
            *cli, "portal", "evolve", "--seed", "7", "--budget", "200",
            "--seconds", "1800", "--metrics-out", "{tmp}/evolve.prom",
        )),
        *(
            Reader(f"cli:portal-recrawl{suffix}", (
                *cli, "portal", "recrawl", "--seed", "7", "--budget", "300",
                "--cycles", "2", "--seconds", "1800", "--recrawl-budget", "30",
                *options,
            ))
            for suffix, options in (("", ()), ("-w3", ("--workers", "3")))
        ),
        Reader("cli:expert", (*cli, "expert", "--seed", "7",
                              "--budget", "200")),
        Reader("cli:ablate", (*cli, "ablate")),
        Reader("ci:golden-corpus", ("tests/text/make_golden_fixture.py",)),
        Reader("example:quickstart", ("examples/quickstart.py",)),
        Reader("example:ablation_tour", ("examples/ablation_tour.py",)),
        Reader("example:expert_search", ("examples/expert_search.py",)),
        Reader("example:portal_generation",
               ("examples/portal_generation.py",)),
        Reader("example:fault_tolerance", (
            "examples/fault_tolerance.py", "--metrics-out",
            "{tmp}/fault.json",
        )),
        Reader("lint", ("-m", "repro.lint", "src", "tests", "benchmarks",
                        "examples")),
    ]


# ---------------------------------------------------------------------------
# child: run one reader under the profiler
# ---------------------------------------------------------------------------


class _Benchmark:
    """pytest-benchmark's fixture, reduced to one call of the target."""

    def __init__(self) -> None:
        self.stats: dict[str, float] = {}

    def __call__(self, target, *args, **kwargs):
        started = time.perf_counter()
        result = target(*args, **kwargs)
        self.stats = {"mean": time.perf_counter() - started}
        return result

    def pedantic(self, target, args=(), kwargs=None, **_rounds):
        return self(target, *args, **(kwargs or {}))


def _run_tests(path: str, names: list[str] | None, tmp: str) -> list[str]:
    """Call bench tests with the stand-in fixture; returns the ones
    whose assertions failed."""
    import benchmarks.conftest

    benchmarks.conftest._RESULTS_DIR = Path(tmp)  # keep results/ as it is
    module = runpy.run_path(str(ROOT / path), run_name="bench")
    if names is None:
        names = [name for name in module if name.startswith("test_")]
    failed = []
    for name in names:
        try:
            module[name](_Benchmark())
        except AssertionError:
            failed.append(name)
    return failed


def _execute(argv: list[str], tmp: str) -> str:
    """Run one command line in this process; returns its outcome."""
    path, _, test = argv[0].partition("::")
    if Path(path).name.startswith("bench_"):
        failed = _run_tests(path, [test] if test else None, tmp)
        return "red: " + ", ".join(failed) if failed else "ok"
    saved = sys.argv
    try:
        if argv[0] == "-m":
            sys.argv = [argv[1], *argv[2:]]
            runpy.run_module(argv[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(argv)
            runpy.run_path(str(ROOT / argv[0]), run_name="__main__")
    except SystemExit as stop:
        if stop.code not in (0, None):
            raise RuntimeError(f"{' '.join(argv)} exited {stop.code}")
    finally:
        sys.argv = saved
    return "ok"


def _reached_by(reader: Reader) -> tuple[set[str], str]:
    """The ``src/repro`` functions ``reader`` calls, and its outcome."""
    codes: dict = {}  # code object -> None, in first-call order
    mark = codes.__setitem__

    def profile(frame, event, _arg) -> None:
        if event == "call":
            mark(frame.f_code, None)

    with tempfile.TemporaryDirectory() as tmp:
        argv = [part.format(tmp=tmp) for part in reader.command]
        threading.setprofile(profile)
        sys.setprofile(profile)
        try:
            outcome = _execute(argv, tmp)
            if reader.loads is not None:
                from repro.storage import load_database

                load_database(reader.loads.format(tmp=tmp))
        finally:
            sys.setprofile(None)
            threading.setprofile(None)
    package = str(PACKAGE) + os.sep
    return {
        _function_id(code) for code in codes
        if code.co_filename.startswith(package) and _is_function(code)
    }, outcome


def _is_function(code) -> bool:
    """A def: not a module or class body, lambda or comprehension."""
    return bool(code.co_flags & inspect.CO_NEWLOCALS) and (
        not code.co_name.startswith("<")
    )


def _function_id(code) -> str:
    module = Path(code.co_filename).relative_to(SRC).with_suffix("")
    parts = [part for part in module.parts if part != "__init__"]
    return f"{'.'.join(parts)}:{code.co_qualname}"


def _child(name: str, out: str) -> int:
    sys.path[:0] = [str(SRC), str(ROOT)]
    reader = next(reader for reader in readers() if reader.name == name)
    reached, outcome = _reached_by(reader)
    Path(out).write_text(json.dumps(
        {"reached": sorted(reached), "outcome": outcome}
    ))
    return 0


# ---------------------------------------------------------------------------
# parent: every reader, then the table
# ---------------------------------------------------------------------------


def defined_functions() -> set[str]:
    """Every function defined under ``src/repro``, as :func:`_function_id`
    names it."""
    found = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        stack = [compile(path.read_text(), str(path), "exec")]
        while stack:
            code = stack.pop()
            if _is_function(code):
                found.add(_function_id(code))
            stack.extend(
                const for const in code.co_consts
                if inspect.iscode(const)
            )
    return found


def run_reader(reader: Reader) -> tuple[set[str], str]:
    """``reader`` in a fresh subprocess; its reached functions and
    outcome."""
    environment = dict(os.environ)
    environment["PYTHONHASHSEED"] = "0"
    environment["PYTHONPATH"] = os.pathsep.join((str(SRC), str(ROOT)))
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "reached.json"
        completed = subprocess.run(
            [sys.executable, __file__, "--child", reader.name,
             "--json", str(out)],
            cwd=ROOT, env=environment, capture_output=True, text=True,
        )
        if completed.returncode != 0:
            sys.stdout.write(completed.stdout[-4000:])
            sys.stderr.write(completed.stderr[-4000:])
            raise SystemExit(f"reader {reader.name} failed")
        report = json.loads(out.read_text())
    return set(report["reached"]), report["outcome"]


def _module(function_id: str) -> str:
    return function_id.split(":")[0]


def _wrap(words: list[str]) -> list[str]:
    return textwrap.wrap(
        " ".join(words), width=79, initial_indent="    ",
        subsequent_indent="    ", break_on_hyphens=False,
    )


def render(
    chosen: list[Reader], reached: dict[str, set[str]], defined: set[str]
) -> str:
    """The table: module -> readers, then the functions no reader
    reaches.  A module most readers reach lists the ones that miss it."""
    names = [reader.name for reader in chosen]
    by_module: dict[str, set[str]] = {}
    for function_id in defined:
        by_module.setdefault(_module(function_id), set()).add(function_id)
    reached_any = set().union(*reached.values())
    lines = [
        "# src/repro functions each reader calls "
        "(python3 benchmarks/readers.py).",
        "# Module and class bodies (import time), lambdas and "
        "comprehensions do not count.",
        "",
        f"readers ({len(names)}):",
        *(f"  {reader.name:28} {' '.join(reader.command)}"
          for reader in chosen),
        "",
        "module -> readers (functions reached / defined):",
    ]
    for module in sorted(by_module):
        functions = by_module[module]
        reading = [name for name in names if reached[name] & functions]
        lines.append(
            f"  {module}  {len(functions & reached_any)}/{len(functions)}"
        )
        if not reading:
            lines.append("    (no reader)")
        elif len(reading) * 2 > len(names):
            missing = [name for name in names if name not in reading]
            lines.extend(_wrap(
                [f"all {len(names)} but:", *missing] if missing
                else [f"all {len(names)}"]
            ))
        else:
            lines.extend(_wrap(reading))
    unread = sorted(defined - reached_any)
    lines += ["", f"functions reached by no reader ({len(unread)}):"]
    lines += [f"  {function_id}" for function_id in unread]
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--json", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        return _child(args.child, args.json)
    chosen = readers()
    reached = {}
    for reader in chosen:
        started = time.perf_counter()
        reached[reader.name], outcome = run_reader(reader)
        print(f"{reader.name:28} {len(reached[reader.name]):5} functions"
              f"  {time.perf_counter() - started:6.1f} s  {outcome}",
              flush=True)
    TABLE.write_text(render(chosen, reached, defined_functions()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
