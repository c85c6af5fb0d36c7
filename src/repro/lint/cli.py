"""``python -m repro.lint`` -- the bingolint command line.

Exit codes follow the repository-wide contract shared with
:mod:`repro.cli`:

* ``0`` -- clean (no findings),
* ``1`` -- findings were reported,
* ``2`` -- usage error (unknown rule, missing path, bad flags).

Examples::

    python -m repro.lint src tests
    python -m repro.lint src --format json
    python -m repro.lint src --select no-wall-clock,no-unseeded-random
    python -m repro.lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.engine import LintEngine
from repro.lint.registry import all_rules, rule_ids
from repro.lint.reporters import render_json, render_text

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description=(
            "bingolint: AST-based determinism & invariant checker for "
            "the BINGO! reproduction"
        ),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select", metavar="RULES", default=None,
        help="comma-separated rule ids to run (default: all)",
    )
    parser.add_argument(
        "--ignore", metavar="RULES", default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="list every registered rule and exit",
    )
    return parser


def _usage_error(message: str) -> int:
    print(f"repro.lint: error: {message}", file=sys.stderr)
    return 2


def _parse_rule_list(raw: str) -> list[str]:
    return [part.strip() for part in raw.split(",") if part.strip()]


def _pick_rules(args: argparse.Namespace) -> list | int:
    """The rule instances to run, or a usage-error exit code."""
    known = set(rule_ids())
    selected = _parse_rule_list(args.select) if args.select else None
    ignored = _parse_rule_list(args.ignore) if args.ignore else []
    for rule_id in (selected or []) + ignored:
        if rule_id not in known:
            return _usage_error(
                f"unknown rule {rule_id!r} (see --list-rules)"
            )
    rules = all_rules()
    if selected is not None:
        rules = [rule for rule in rules if rule.id in selected]
    if ignored:
        rules = [rule for rule in rules if rule.id not in ignored]
    return rules


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage, 0 on --help
        return 0 if exc.code in (0, None) else 2

    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.id:22} {rule.description}")
        return 0

    rules = _pick_rules(args)
    if isinstance(rules, int):
        return rules

    paths = [Path(raw) for raw in args.paths]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        return _usage_error(f"no such path: {', '.join(missing)}")

    findings = LintEngine(rules=rules).run(paths)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings), end="")
    if args.format == "text":
        print()
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
