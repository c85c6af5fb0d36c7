"""Every example and CLI command CI runs is a reader of the reach audit
(``benchmarks/readers.py``), so a new smoke cannot escape the table."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from benchmarks.readers import readers

CI = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "ci.yml"
_CLI_BY_RUNPY = re.compile(r"""run_module\(["']repro\.cli["']""")
_END = {">", ">>", "|", "&&", ";", "2>&1"}


def ci_commands() -> list[list[str]]:
    """Each ``examples/*.py`` and ``repro.cli`` command line in ci.yml,
    as ``python`` is given it (``-m repro.cli ...`` or ``SCRIPT ...``),
    up to the first redirection."""
    commands = []
    for line in CI.read_text().splitlines():
        if line.strip().startswith("#") or not (
            "examples/" in line or "repro.cli" in line
        ):
            continue
        words = shlex.split(line)
        for at, word in enumerate(words):
            if word == "-m" and words[at + 1:at + 2] == ["repro.cli"]:
                command, rest = ["-m", "repro.cli"], words[at + 2:]
            elif _CLI_BY_RUNPY.search(word):
                command, rest = ["-m", "repro.cli"], words[at + 1:]
            elif re.fullmatch(r"examples/\w+\.py", word):
                command, rest = [word], words[at + 1:]
            else:
                continue
            for token in rest:
                if token in _END:
                    break
                command.append(token)
            commands.append(command)
            break
    return commands


def command_key(argv) -> tuple[str, tuple[str, ...], set[str]]:
    """The script or module, the words before the first option (the
    subcommand), and every ``--option`` given."""
    argv = list(argv)
    target, rest = (argv[1], argv[2:]) if argv[0] == "-m" else (
        argv[0], argv[1:]
    )
    words = []
    for word in rest:
        if word.startswith("-"):
            break
        words.append(word)
    options = {word.split("=")[0] for word in rest if word.startswith("--")}
    return target, tuple(words), options


def test_the_parser_finds_ci_commands() -> None:
    targets = {command_key(command)[:2] for command in ci_commands()}
    assert ("repro.cli", ("portal", "crawl")) in targets
    assert ("repro.cli", ("portal", "recrawl")) in targets
    assert ("examples/fault_tolerance.py", ()) in targets


def test_every_ci_example_and_cli_command_is_an_audit_reader() -> None:
    """A reader covers a command when it runs the same script or
    subcommand with at least the command's options."""
    keys = [command_key(reader.command) for reader in readers()]
    uncovered = []
    for command in ci_commands():
        target, words, options = command_key(command)
        if not any(
            (theirs[0], theirs[1]) == (target, words) and options <= theirs[2]
            for theirs in keys
        ):
            uncovered.append(" ".join(command))
    assert not uncovered, (
        "add a Reader to benchmarks/readers.py that runs these with at "
        f"least their options: {uncovered}"
    )
