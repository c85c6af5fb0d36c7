"""CLI contract: exit codes and formats."""

from __future__ import annotations

import json
from pathlib import Path

from repro.lint.cli import main
from repro.lint.registry import all_rules

from tests.lint.conftest import FIXTURES

BAD = str(FIXTURES / "no-wall-clock" / "bad.py")
CLEAN = str(FIXTURES / "no-wall-clock" / "clean.py")


class TestExitCodes:
    def test_clean_exits_zero(self, capsys) -> None:
        assert main([CLEAN]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys) -> None:
        assert main([BAD]) == 1
        assert "no-wall-clock" in capsys.readouterr().out

    def test_missing_path_is_usage_error(self, capsys) -> None:
        assert main(["does/not/exist"]) == 2
        assert "no such path" in capsys.readouterr().err

    def test_unknown_rule_is_usage_error(self, capsys) -> None:
        # every rule runs: there is no option naming rules to run or skip
        for option in ("--select", "--ignore"):
            assert main([CLEAN, option, "no-wall-clock"]) == 2

    def test_bad_flag_is_usage_error(self, capsys) -> None:
        assert main(["--format", "yaml", CLEAN]) == 2

    def test_help_exits_zero(self, capsys) -> None:
        assert main(["--help"]) == 0


class TestReportFormats:
    def test_json_format_parses_and_is_sorted(self, capsys) -> None:
        assert main([BAD, "--format", "json"]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report["summary"]["total"] == len(report["findings"]) > 0
        locations = [
            (f["path"], f["line"], f["col"]) for f in report["findings"]
        ]
        assert locations == sorted(locations)

    def test_text_format_lines_are_clickable(self, capsys) -> None:
        main([BAD])
        first = capsys.readouterr().out.splitlines()[0]
        path, line, col, _rest = first.split(":", 3)
        assert path.endswith("bad.py")
        assert line.isdigit() and col.isdigit()

    def test_list_rules(self, capsys) -> None:
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.id in out


class TestDeterminism:
    """Byte-identical reports across repeated runs."""

    def test_json_report_is_byte_identical(self, capsys) -> None:
        main([BAD, "--format", "json"])
        first = capsys.readouterr().out
        main([BAD, "--format", "json"])
        second = capsys.readouterr().out
        assert first == second


class TestRepositoryIsClean:
    """The acceptance criterion, as a test: the tree lints clean."""

    def test_src_lints_clean(self) -> None:
        assert main(["src"]) == 0

    def test_tests_and_examples_lint_clean(self) -> None:
        assert main(["tests", "examples", "benchmarks"]) == 0

    def test_no_suppressions_in_contract_packages(self) -> None:
        from repro.lint.engine import _collect_suppressions

        # the determinism contract's own packages may not opt out of it
        for package in ("lint", "obs", "pipeline", "robust"):
            for path in Path("src/repro", package).rglob("*.py"):
                assert _collect_suppressions(path.read_text()) == {}, path
