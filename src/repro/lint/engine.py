"""Parsing, suppression handling and the lint driver.

The engine walks the given paths (directories recurse; directories
named ``fixtures``, ``__pycache__`` etc. are skipped so golden lint
fixtures never lint themselves), parses each ``*.py`` file once into a
:class:`ModuleUnit` -- AST, source lines, per-line suppressions and an
import-alias table shared by every rule -- and runs the rule set over
it.  Files that fail to parse produce a single ``parse-error`` finding
instead of aborting the run.

Suppressions are per line (lowercase rule ids; ``RULE`` here is a
placeholder so this very docstring does not register one)::

    t0 = time.time()  # bingolint: disable=RULE
    risky()           # bingolint: disable=RULE-A,RULE-B

``disable=all`` silences every rule on that line.  Suppressions are a
scalpel; systematic exceptions (the simulated clock itself) live in
the rules' own module exemptions.  There is no baseline of
grandfathered findings: a finding is fixed or suppressed on its line.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules

__all__ = [
    "DEFAULT_EXCLUDED_DIRS",
    "LintEngine",
    "ModuleUnit",
    "dotted_name",
    "resolve_call_target",
]

#: directory names never descended into
DEFAULT_EXCLUDED_DIRS = frozenset(
    {"fixtures", "__pycache__", ".git", ".venv", "build", "dist"}
)

_SUPPRESS_RE = re.compile(r"#\s*bingolint:\s*disable=([a-z0-9_,\- ]+)")


@dataclass
class ModuleUnit:
    """One parsed source file plus everything rules need to inspect it."""

    path: Path
    display_path: str
    module_name: str
    """Dotted import path (``repro.web.clock``) derived from enclosing
    ``__init__.py`` packages; empty for scripts outside a package."""
    tree: ast.Module
    suppressions: dict[int, set[str]] = field(default_factory=dict)
    """Line number -> rule ids silenced on that line (``all`` wildcard)."""
    imports: dict[str, str] = field(default_factory=dict)
    """Local name -> fully dotted origin (``np`` -> ``numpy``,
    ``monotonic`` -> ``time.monotonic``)."""

    def is_suppressed(self, finding: Finding) -> bool:
        silenced = self.suppressions.get(finding.line)
        if not silenced:
            return False
        return "all" in silenced or finding.rule in silenced


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a pure Name/Attribute chain; None otherwise."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    parts.append(node.id)
    return ".".join(reversed(parts))


def resolve_call_target(module: ModuleUnit, func: ast.AST) -> str | None:
    """Resolve a call's target through the module's import aliases.

    ``np.random.default_rng`` resolves to ``numpy.random.default_rng``
    under ``import numpy as np``; a bare ``monotonic()`` resolves to
    ``time.monotonic`` under ``from time import monotonic``.  Names
    whose head segment was never imported resolve to themselves, so
    builtins like ``set`` still produce a usable target.
    """
    dotted = dotted_name(func)
    if dotted is None:
        return None
    head, _, rest = dotted.partition(".")
    origin = module.imports.get(head, head)
    return f"{origin}.{rest}" if rest else origin


def _collect_imports(tree: ast.Module) -> dict[str, str]:
    imports: dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                local = alias.asname or alias.name.partition(".")[0]
                target = alias.name if alias.asname else local
                imports[local] = target
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            if node.module is None:
                continue
            for alias in node.names:
                if alias.name == "*":
                    continue
                local = alias.asname or alias.name
                imports[local] = f"{node.module}.{alias.name}"
    return imports


def _collect_suppressions(source: str) -> dict[int, set[str]]:
    suppressions: dict[int, set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = _SUPPRESS_RE.search(line)
        if match is None:
            continue
        rules = {part.strip() for part in match.group(1).split(",")}
        rules.discard("")
        if rules:
            suppressions.setdefault(lineno, set()).update(rules)
    return suppressions


def module_name_for(path: Path) -> str:
    """Dotted module path derived from enclosing package directories."""
    parts: list[str] = [] if path.stem == "__init__" else [path.stem]
    directory = path.parent
    while (directory / "__init__.py").is_file():
        parts.insert(0, directory.name)
        parent = directory.parent
        if parent == directory:
            break
        directory = parent
    return ".".join(parts)


def _display_path(path: Path) -> str:
    try:
        return path.resolve().relative_to(Path.cwd()).as_posix()
    except ValueError:
        return path.as_posix()


class LintEngine:
    """Parses files and runs the rule set over them."""

    def __init__(self, rules: Sequence[Rule] | None = None) -> None:
        self.rules: list[Rule] = (
            sorted(rules, key=lambda rule: rule.id)
            if rules is not None
            else all_rules()
        )

    # -- file discovery --------------------------------------------------

    def iter_files(self, paths: Iterable[Path | str]) -> list[Path]:
        """Every ``*.py`` file under ``paths``, sorted, deduplicated."""
        seen: set[Path] = set()
        out: list[Path] = []
        for raw in paths:
            path = Path(raw)
            if path.is_file():
                candidates = [path]
            else:
                candidates = [
                    candidate
                    for candidate in sorted(path.rglob("*.py"))
                    if not (
                        DEFAULT_EXCLUDED_DIRS
                        & set(candidate.relative_to(path).parts[:-1])
                    )
                ]
            for candidate in candidates:
                key = candidate.resolve()
                if key not in seen:
                    seen.add(key)
                    out.append(candidate)
        return sorted(out, key=lambda p: _display_path(p))

    # -- parsing ---------------------------------------------------------

    def load(self, path: Path) -> ModuleUnit | Finding:
        """Parse one file; a syntax error becomes a finding, not a crash."""
        source = path.read_text(encoding="utf-8")
        try:
            tree = ast.parse(source, filename=str(path))
        except SyntaxError as exc:
            return Finding(
                path=_display_path(path),
                line=exc.lineno or 1,
                col=(exc.offset or 1) - 1,
                rule="parse-error",
                message=f"file does not parse: {exc.msg}",
            )
        return ModuleUnit(
            path=path,
            display_path=_display_path(path),
            module_name=module_name_for(path),
            tree=tree,
            suppressions=_collect_suppressions(source),
            imports=_collect_imports(tree),
        )

    # -- the run ---------------------------------------------------------

    def run(self, paths: Iterable[Path | str]) -> list[Finding]:
        """Lint ``paths``; returns findings in canonical sorted order."""
        findings: list[Finding] = []
        for path in self.iter_files(paths):
            loaded = self.load(path)
            if isinstance(loaded, Finding):
                findings.append(loaded)
                continue
            for rule in self.rules:
                for finding in rule.check(loaded):
                    if not loaded.is_suppressed(finding):
                        findings.append(finding)
        return sorted(findings)
