"""Benchmark infrastructure.

Each benchmark regenerates one of the paper's tables/figures.  Rendered
experiment tables are collected here and printed in the terminal summary
(so ``pytest benchmarks/ --benchmark-only`` shows them without ``-s``),
and also written to ``benchmarks/results/`` for later inspection.
"""

from __future__ import annotations

import pathlib

_RESULTS: list[tuple[str, str]] = []
_RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def record_table(name: str, rendered: str) -> None:
    """Register a rendered experiment table for the terminal summary."""
    _RESULTS.append((name, rendered))
    _RESULTS_DIR.mkdir(exist_ok=True)
    path = _RESULTS_DIR / f"{name}.txt"
    path.write_text(rendered + "\n")


def pytest_terminal_summary(terminalreporter, exitstatus, config) -> None:
    if not _RESULTS:
        return
    terminalreporter.section("reproduced paper tables & figures")
    for name, rendered in _RESULTS:
        terminalreporter.write_line("")
        terminalreporter.write_line(f"=== {name} ===")
        for line in rendered.splitlines():
            terminalreporter.write_line(line)
