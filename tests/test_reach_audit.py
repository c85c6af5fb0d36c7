"""The reach audit (``benchmarks/readers.py``) is the repo's one guard
against dead code.  Every example and CLI command CI runs is one of its
readers, so a new smoke cannot escape the table, and every function no
reader reaches is on :data:`KEPT` with the reason it stays: a new unread
function fails here under its own name, and so does a stale entry."""

from __future__ import annotations

import re
import shlex
from pathlib import Path

from benchmarks.readers import TABLE, readers

DECLARATION = (
    "declaration: a Protocol or abstract member, or a dunder the "
    "language calls on the reader's behalf"
)
INPUT_BRANCH = "input branch: reached only on inputs no reader gives"
TEST_ORACLE = "test oracle: the tests check the structure's invariants with it"

#: ``module:qualname`` -> why the function stays though no reader reaches it
KEPT: dict[str, str] = {
    "repro.analysis.graph:LinkGraph.__len__": DECLARATION,
    "repro.core.ontology:TopicTree.__len__": DECLARATION,
    "repro.core.rbtree:RedBlackTree.check_invariants": TEST_ORACLE,
    "repro.core.rbtree:RedBlackTree.check_invariants.<locals>.walk":
        TEST_ORACLE,
    "repro.experiments.reporting:ExperimentTable.__str__": DECLARATION,
    # a lint rule's finding, and its rendering, only on code that breaks it
    "repro.lint.findings:Finding.render": INPUT_BRANCH,
    "repro.lint.findings:Finding.to_dict": INPUT_BRANCH,
    "repro.lint.registry:Rule.check": DECLARATION,
    "repro.lint.registry:Rule.check_project": DECLARATION,
    "repro.lint.registry:Rule.finding": INPUT_BRANCH,
    "repro.lint.reporters:render_json": INPUT_BRANCH,
    "repro.ml.common:BinaryClassifier.decision": DECLARATION,
    "repro.ml.common:BinaryClassifier.fit": DECLARATION,
    "repro.ml.common:FeatureIndexer.__len__": DECLARATION,
    "repro.obs.api:Hook.__call__": DECLARATION,
    "repro.obs.api:Instrumented.stats": DECLARATION,
    "repro.pipeline.stages:Stage.run": DECLARATION,
    "repro.portal.digests:DigestStore.__contains__": DECLARATION,
    "repro.portal.digests:DigestStore.__len__": DECLARATION,
    "repro.robust.breaker:BreakerBoard.__contains__": DECLARATION,
    "repro.robust.breaker:BreakerBoard.__len__": DECLARATION,
    # fault rates below 1 roll a die; every reader's fault window is certain
    "repro.robust.faults:_unit_roll": INPUT_BRANCH,
    "repro.search.index:InvertedIndex.__contains__": DECLARATION,
    "repro.search.index:QueryCache.__len__": DECLARATION,
    "repro.storage.bulkloader:BulkLoader.add_many": (
        "benchmark span: benchmarks/e2e/trace.py wraps it as "
        "storage.add_many, which reads 0 on every workload until ROADMAP "
        "item 1's harness PR drops the row; no src producer batches rows"
    ),
    # a value of another type than its column's: a bad row, or an int
    # in a float column
    "repro.storage.schema:Column.check": INPUT_BRANCH,
    "repro.text.features:CombinedSpace.__repr__": DECLARATION,
    "repro.text.features:FeatureSpace.__repr__": DECLARATION,
    "repro.text.features:FeatureSpace.extract": DECLARATION,
    "repro.text.features:TermPairSpace.__repr__": DECLARATION,
    "repro.text.handlers:ContentHandler.convert": DECLARATION,
    "repro.text.handlers:ContentHandler.sniff": DECLARATION,
    # words joined by an HTML entity; no synthetic page holds one
    "repro.text.scanner:scan_html.<locals>.emit": INPUT_BRANCH,
    "repro.text.scanner:vectorize_batch": (
        "benchmark span: benchmarks/e2e/trace.py wraps it (as "
        "repro.perf.text.vectorize_batch) for text.vectorize, which reads "
        "0 on every workload until ROADMAP item 1's harness PR drops the "
        "row; the classifier's kernel weights term counts, no full vector"
    ),
    "repro.web.dns:DnsZone.__len__": DECLARATION,
    "repro.web.vocab:Vocabulary.__contains__": DECLARATION,
    "repro.web.vocab:Vocabulary.__len__": DECLARATION,
}

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


def unread_functions() -> set[str]:
    """The committed table's last section: the functions no reader
    reaches."""
    lines = TABLE.read_text().splitlines()
    start = next(
        at for at, line in enumerate(lines)
        if line.startswith("functions reached by no reader")
    )
    return {line.strip() for line in lines[start + 1:] if line.strip()}


def test_every_unread_function_is_kept_with_a_reason() -> None:
    unread = unread_functions()
    assert sorted(unread - KEPT.keys()) == [], (
        "no reader reaches these: delete them, or put them on KEPT with "
        "the reason they stay"
    )
    assert sorted(KEPT.keys() - unread) == [], (
        "a reader reaches these now, or they are gone: drop them from KEPT"
    )
