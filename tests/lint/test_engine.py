"""Engine behaviour: suppressions, exemptions, discovery, determinism."""

from __future__ import annotations

import random

from repro.lint.engine import LintEngine, module_name_for
from repro.lint.reporters import render_json, render_text

WALL_CLOCK_SOURCE = (
    "import time\n"
    "\n"
    "\n"
    "def stamp():\n"
    "    return time.time()\n"
)


class TestSuppressions:
    def test_disable_comment_silences_one_rule(self, lint_source) -> None:
        silenced = WALL_CLOCK_SOURCE.replace(
            "time.time()",
            "time.time()  # bingolint: disable=no-wall-clock",
        )
        assert lint_source(WALL_CLOCK_SOURCE)
        assert lint_source(silenced) == []

    def test_disable_is_per_rule(self, lint_source) -> None:
        silenced = WALL_CLOCK_SOURCE.replace(
            "time.time()",
            "time.time()  # bingolint: disable=no-bare-except",
        )
        findings = lint_source(silenced)
        assert [finding.rule for finding in findings] == ["no-wall-clock"]

    def test_disable_all_wildcard(self, lint_source) -> None:
        silenced = WALL_CLOCK_SOURCE.replace(
            "time.time()", "time.time()  # bingolint: disable=all"
        )
        assert lint_source(silenced) == []

    def test_disable_only_applies_to_its_line(self, lint_source) -> None:
        source = (
            "import time\n"
            "\n"
            "\n"
            "def stamp():\n"
            "    a = time.time()  # bingolint: disable=no-wall-clock\n"
            "    b = time.time()\n"
            "    return a, b\n"
        )
        findings = lint_source(source)
        assert [finding.line for finding in findings] == [6]

    def test_comma_separated_rules(self, lint_source) -> None:
        source = (
            "import time\n"
            "\n"
            "\n"
            "def f(xs=[]):  # bingolint: disable=no-mutable-default\n"
            "    return time.time()  "
            "# bingolint: disable=no-wall-clock,no-bare-except\n"
        )
        assert lint_source(source) == []


class TestModuleExemptions:
    def test_simulated_clock_module_may_read_time(self, tmp_path) -> None:
        package = tmp_path / "repro" / "web"
        package.mkdir(parents=True)
        (tmp_path / "repro" / "__init__.py").write_text("")
        (package / "__init__.py").write_text("")
        (package / "clock.py").write_text(WALL_CLOCK_SOURCE)
        (package / "other.py").write_text(WALL_CLOCK_SOURCE)
        assert module_name_for(package / "clock.py") == "repro.web.clock"
        findings = LintEngine().run([tmp_path])
        assert [f.path.rsplit("/", 1)[-1] for f in findings] == ["other.py"]


class TestDiscovery:
    def test_fixture_directories_are_skipped(self, tmp_path) -> None:
        nested = tmp_path / "fixtures"
        nested.mkdir()
        (nested / "bad.py").write_text(WALL_CLOCK_SOURCE)
        (tmp_path / "real.py").write_text(WALL_CLOCK_SOURCE)
        findings = LintEngine().run([tmp_path])
        assert len(findings) == 1
        assert findings[0].path.endswith("real.py")

    def test_explicit_file_in_fixtures_is_still_linted(
        self, tmp_path
    ) -> None:
        nested = tmp_path / "fixtures"
        nested.mkdir()
        (nested / "bad.py").write_text(WALL_CLOCK_SOURCE)
        assert LintEngine().run([nested / "bad.py"])

    def test_duplicate_paths_are_linted_once(self, tmp_path) -> None:
        (tmp_path / "one.py").write_text(WALL_CLOCK_SOURCE)
        findings = LintEngine().run([tmp_path, tmp_path / "one.py"])
        assert len(findings) == 1


class TestParseErrors:
    def test_syntax_error_becomes_a_finding(self, lint_source) -> None:
        findings = lint_source("def broken(:\n")
        assert [finding.rule for finding in findings] == ["parse-error"]


class TestImportResolution:
    def test_aliased_numpy_import_resolves(self, lint_source) -> None:
        source = (
            "import numpy as anything\n"
            "\n"
            "rng = anything.random.default_rng()\n"
        )
        findings = lint_source(source)
        assert [finding.rule for finding in findings] == [
            "no-unseeded-random"
        ]

    def test_unimported_names_are_not_guessed(self, lint_source) -> None:
        # a local object that happens to be called `random` is not the
        # stdlib module; without an import the rule stays quiet
        source = "def f(random):\n    return random.choice([1])\n"
        assert lint_source(source) == []


class TestDeterministicOutput:
    def test_reports_are_stable_across_input_order(self, tmp_path) -> None:
        for name in ("b.py", "a.py", "c.py"):
            (tmp_path / name).write_text(WALL_CLOCK_SOURCE)
        first = LintEngine().run([tmp_path])
        shuffled_paths = [
            tmp_path / "c.py", tmp_path / "a.py", tmp_path / "b.py"
        ]
        second = LintEngine().run(shuffled_paths)
        assert first == second
        assert render_json(first) == render_json(second)
        assert render_text(first) == render_text(second)

    def test_json_report_has_no_timestamps(self, lint_source) -> None:
        import json

        report = json.loads(render_json(lint_source(WALL_CLOCK_SOURCE)))
        keys = set(report) | set(report["summary"])
        for finding in report["findings"]:
            keys |= set(finding)
        assert keys == {
            "version", "findings", "summary", "total", "files",
            "by_rule", "rule", "path", "line", "col", "message",
        }

    def test_sorted_even_if_rule_yields_out_of_order(self) -> None:
        shuffled = LintEngine().run(["tests/lint/fixtures/no-wall-clock"])
        assert shuffled == sorted(shuffled)

    def test_findings_sort_by_location(self) -> None:
        from repro.lint.findings import Finding

        findings = [
            Finding("b.py", 1, 0, "r", "m"),
            Finding("a.py", 9, 0, "r", "m"),
            Finding("a.py", 2, 5, "r", "m"),
            Finding("a.py", 2, 1, "r", "m"),
        ]
        random.Random(3).shuffle(findings)
        ordered = sorted(findings)
        assert [(f.path, f.line, f.col) for f in ordered] == [
            ("a.py", 2, 1), ("a.py", 2, 5), ("a.py", 9, 0), ("b.py", 1, 0)
        ]
