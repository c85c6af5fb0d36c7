"""``python -m repro.lint`` -- the bingolint command line.

Exit codes follow the repository-wide contract shared with
:mod:`repro.cli`:

* ``0`` -- clean (no findings),
* ``1`` -- findings were reported,
* ``2`` -- usage error (missing path, bad flags).

Examples::

    python -m repro.lint src tests
    python -m repro.lint src --format json
    python -m repro.lint --list-rules
"""

from __future__ import annotations

import argparse
import sys
from collections.abc import Sequence
from pathlib import Path

from repro.lint.engine import LintEngine
from repro.lint.registry import all_rules
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
        "--list-rules", action="store_true",
        help="list every registered rule and exit",
    )
    return parser


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

    paths = [Path(raw) for raw in args.paths]
    missing = [str(path) for path in paths if not path.exists()]
    if missing:
        print(
            f"repro.lint: error: no such path: {', '.join(missing)}",
            file=sys.stderr,
        )
        return 2

    findings = LintEngine().run(paths)
    renderer = render_json if args.format == "json" else render_text
    print(renderer(findings), end="")
    if args.format == "text":
        print()
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
