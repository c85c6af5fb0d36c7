"""Shared helpers for the bingolint test suite."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.lint.engine import LintEngine
from repro.lint.findings import Finding

FIXTURES = Path(__file__).parent / "fixtures"
REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(autouse=True)
def _run_from_repo_root(monkeypatch) -> None:
    """Resolve display paths and repo-relative paths consistently."""
    monkeypatch.chdir(REPO_ROOT)


@pytest.fixture
def lint_source(tmp_path):
    """Lint a source string through the full engine; returns findings."""

    def _lint(
        source: str, rules=None, filename: str = "sample.py"
    ) -> list[Finding]:
        target = tmp_path / filename
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(source, encoding="utf-8")
        return LintEngine(rules=rules).run([target])

    return _lint


def normalize(findings: list[Finding], root: Path) -> list[Finding]:
    """Replace machine-specific paths with the path below ``root``."""
    from dataclasses import replace

    return [
        replace(
            finding,
            path=Path(finding.path).resolve().relative_to(root).as_posix(),
        )
        for finding in findings
    ]
