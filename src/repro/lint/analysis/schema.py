"""``stats-schema``: metric source names are unique across the program.

Two ``register_source(name, ...)`` calls with the same constant name
clobber each other in the metrics registry: re-registering a name
replaces the source, so the loser's counters silently vanish from
every snapshot.  The check is registry-blind -- it treats every
production module as registering into one namespace -- because which
registry a receiver is cannot be told from the AST.

The rest of the metric schema is held at run time: a key or name that
is not snake_case raises in ``repro.obs.registry._check_name`` when a
snapshot reads it, and a ``stats()`` nothing exports is a function no
reader reaches, which the reach audit (``tests/test_reach_audit.py``)
fails on.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleUnit
from repro.lint.findings import Finding
from repro.lint.graph import ProjectIndex
from repro.lint.registry import Rule, register

__all__ = ["StatsSchema"]


def _is_test_module(unit: ModuleUnit) -> bool:
    """True for test code, which builds private registries at will;
    the namespace being protected is the production one.

    Detection is by *module name*, not file path, so lint fixtures
    (files under ``tests/`` but outside any package) still exercise
    the rule.
    """
    module = unit.module_name
    if not module:
        stem = unit.display_path.rsplit("/", 1)[-1]
        module = stem.removesuffix(".py")
    parts = module.split(".")
    return (
        parts[0] == "tests"
        or parts[-1].startswith("test_")
        or parts[-1] == "conftest"
    )


def _source_name(call: ast.Call) -> str | None:
    """The constant ``name`` argument of a ``register_source`` call."""
    name: ast.expr | None
    if call.args:
        name = call.args[0]
    else:
        name = next(
            (entry.value for entry in call.keywords if entry.arg == "name"),
            None,
        )
    if isinstance(name, ast.Constant) and isinstance(name.value, str):
        return name.value
    return None


@register
class StatsSchema(Rule):
    """Flag a metric source name registered twice."""

    id = "stats-schema"
    scope = "project"
    description = (
        "metric source names passed to register_source must be unique "
        "across production modules"
    )
    rationale = (
        "The obs registry merges pull-through sources by name at "
        "snapshot time and a second registration replaces the first, "
        "so a name collision drops one source's counters from every "
        "snapshot without an error."
    )

    def check_project(self, index: ProjectIndex) -> Iterator[Finding]:
        first_site: dict[str, str] = {}
        for qualname in sorted(index.functions):
            body = index.functions[qualname]
            if not isinstance(body.node, ast.Module) or _is_test_module(
                body.module
            ):
                continue
            calls = sorted(
                (
                    node
                    for node in ast.walk(body.node)
                    if isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "register_source"
                ),
                key=lambda call: (call.lineno, call.col_offset),
            )
            for call in calls:
                name = _source_name(call)
                if name is None:
                    continue
                where = f"{body.module.display_path}:{call.lineno}"
                if name in first_site:
                    yield self.finding_at(
                        body.module.display_path,
                        call.lineno,
                        call.col_offset,
                        f"metric source name {name!r} is already "
                        f"registered at {first_site[name]}; the second "
                        f"registration clobbers the first",
                    )
                else:
                    first_site[name] = where
