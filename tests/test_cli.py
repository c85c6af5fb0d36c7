"""Tests for the command-line interface."""

from __future__ import annotations

import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.cli import _open_portal, build_parser, main


class TestParser:
    def test_requires_subcommand(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_portal_defaults(self) -> None:
        args = build_parser().parse_args(["portal"])
        assert args.seed == 17
        assert args.short == 700
        assert args.long == 6000

    def test_expert_arguments(self) -> None:
        args = build_parser().parse_args(
            ["expert", "--seed", "3", "--budget", "150"]
        )
        assert args.seed == 3
        assert args.budget == 150

    def test_ablate_choices_validated(self) -> None:
        with pytest.raises(SystemExit):
            build_parser().parse_args(["ablate", "--which", "nonsense"])

    def test_crawl_export_flags(self) -> None:
        args = build_parser().parse_args(
            ["portal", "crawl", "--export-portal", "x", "--dump-db", "y"]
        )
        assert args.export_portal == "x"
        assert args.dump_db == "y"

    def test_portal_tables_subcommand_mirrors_bare_form(self) -> None:
        bare = build_parser().parse_args(["portal", "--seed", "9"])
        grouped = build_parser().parse_args(
            ["portal", "--seed", "9", "tables"]
        )
        explicit = build_parser().parse_args(
            ["portal", "tables", "--seed", "9"]
        )
        assert bare.portal_command is None
        assert grouped.portal_command == explicit.portal_command == "tables"
        for args in (bare, grouped, explicit):
            assert (args.seed, args.short, args.long) == (9, 700, 6000)

    def test_portal_group_shares_workers_and_metrics_out(self) -> None:
        for name in ("crawl", "queryload", "evolve", "recrawl"):
            args = build_parser().parse_args(
                ["portal", name, "--workers", "4", "--metrics-out", "m.json"]
            )
            assert args.portal_command == name
            assert args.workers == 4
            assert args.metrics_out == "m.json"

    def test_portal_recrawl_arguments(self) -> None:
        args = build_parser().parse_args(
            ["portal", "recrawl", "--cycles", "2",
             "--recrawl-budget", "30", "--seconds", "900"]
        )
        assert args.cycles == 2
        assert args.recrawl_budget == 30
        assert args.seconds == 900.0
        assert args.evolution_seed is None

    def test_legacy_aliases_are_gone(self) -> None:
        # the one-release top-level crawl/queryload aliases were
        # removed; only the portal group forms parse now
        for legacy in (["crawl"], ["queryload"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(legacy)


class TestCrawlCommand:
    def test_crawl_prints_and_exports(self, tmp_path, capsys) -> None:
        portal_dir = tmp_path / "portal"
        db_dir = tmp_path / "db"
        code = main([
            "portal", "crawl", "--seed", "7", "--budget", "120",
            "--export-portal", str(portal_dir),
            "--dump-db", str(db_dir),
            "--top", "3",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "visited_urls" in out
        assert "top 3 results" in out
        assert (portal_dir / "index.html").exists()
        assert (db_dir / "manifest.json").exists()

    def test_expert_command_runs(self, capsys) -> None:
        code = main(["expert", "--budget", "200"])
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out
        assert "Figure 5" in out

    def test_ablate_prints_the_chosen_ablation(self, capsys) -> None:
        assert main(["ablate", "--which", "negatives"]) == 0
        out = capsys.readouterr().out
        assert "A3: OTHERS population (section 3.1)" in out
        assert "A1:" not in out

    def test_legacy_crawl_is_a_usage_error(self, capsys) -> None:
        assert main(["crawl", "--budget", "60", "--top", "2"]) == 2
        assert main(["queryload", "--budget", "60"]) == 2

    def test_portal_crawl_runs_without_notice(self, capsys) -> None:
        code = main(["portal", "crawl", "--budget", "60", "--top", "2"])
        assert code == 0
        captured = capsys.readouterr()
        assert "deprecated" not in captured.err
        assert "visited_urls" in captured.out


class TestPortalLifecycleCommands:
    def test_portal_recrawl_runs_cycles(self, tmp_path, capsys) -> None:
        metrics = tmp_path / "metrics.json"
        code = main([
            "portal", "recrawl", "--budget", "120",
            "--cycles", "1", "--seconds", "1200",
            "--recrawl-budget", "20",
            "--metrics-out", str(metrics),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "cycle 1:" in out
        assert "serving epoch: epoch#" in out
        assert "freshness_stale" in out
        sources = json.loads(metrics.read_text())["sources"]
        assert sources["portal"]["portal_cycles_run"] == 1.0
        # the serving engine is exported beside the portal
        assert sources["search"]["documents_indexed"] > 0
        assert sources["search"]["generation"] >= 1.0

    def test_search_source_is_the_serving_engine(self) -> None:
        """The ``search`` source reads the engine the portal serves
        with, through a recrawl that folds a delta into it."""
        argv = ["portal", "recrawl", "--budget", "60"]
        engine, portal = _open_portal(build_parser().parse_args(argv))
        served = portal.search
        portal.evolve(3600.0)
        assert portal.recrawl(20).search is not None
        assert portal.search is served
        portal.search.search("database research")
        exported = engine.obs.snapshot()["sources"]["search"]
        assert exported == portal.search.stats()
        assert exported["queries"] == 1.0
        assert exported["documents_indexed"] == len(portal.search.documents)


class TestMetricsAreReproducible:
    def test_two_queryload_runs_write_identical_metrics(self, tmp_path) -> None:
        """Same seed, same hash seed: the exported snapshot holds
        simulated time and counts only, so it is byte-identical."""
        src = pathlib.Path(repro.__file__).resolve().parent.parent
        outputs = []
        for name in ("one.json", "two.json"):
            out = tmp_path / name
            subprocess.run(
                [
                    sys.executable, "-m", "repro.cli", "portal", "queryload",
                    "--seed", "7", "--budget", "60", "--requests", "40",
                    "--metrics-out", str(out),
                ],
                env={
                    **os.environ, "PYTHONPATH": str(src),
                    "PYTHONHASHSEED": "0",
                },
                check=True,
                capture_output=True,
            )
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
        # the engine and the server are two sources: neither replaces
        # the other under one name
        sources = json.loads(outputs[0])["sources"]
        assert "documents_indexed" in sources["search"]
        assert {"query_cache_hits", "replayed"} <= set(sources["serving"])


class TestExitCodeContract:
    """0 success / 1 run failure / 2 usage -- shared with repro.lint."""

    def test_usage_error_returns_two(self, capsys) -> None:
        assert main([]) == 2
        assert main(["no-such-command"]) == 2
        assert main(["portal", "crawl", "--budget", "not-a-number"]) == 2

    def test_help_returns_zero(self, capsys) -> None:
        assert main(["--help"]) == 0

    def test_repro_error_returns_one(self, capsys) -> None:
        # an unknown topic surfaces as a ReproError, not a traceback
        code = main(
            ["portal", "crawl", "--budget", "5", "--topic", "no-such-topic"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_lint_cli_shares_the_contract(self, tmp_path, capsys) -> None:
        from repro.lint.cli import main as lint_main

        clean = tmp_path / "clean.py"
        clean.write_text("VALUE = 1\n")
        assert lint_main([str(clean)]) == 0
        bad = tmp_path / "bad.py"
        bad.write_text("import time\nNOW = time.time()\n")
        assert lint_main([str(bad)]) == 1
        assert lint_main(["--format", "nope"]) == 2
        capsys.readouterr()
