"""Protocol-conformance rules: stats(), stages, config.

These encode the contracts introduced by PRs 3-4 (the staged pipeline
and the observability layer) so a drive-by change cannot silently
break them: ``stats()`` always returns a snake_case-keyed dict,
pipeline stages carry the ``name``/``run(self, batch, ctx)`` shape the
driver dispatches on, and attribute reads against ``BingoConfig``
resolve to declared fields instead of failing at crawl time.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import (
    ModuleUnit,
    ProjectContext,
    dotted_name,
)
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register
from repro.obs.api import METRIC_NAME_RE

__all__ = [
    "StatsProtocol",
    "StageProtocol",
    "ConfigField",
]


@register
class StatsProtocol(Rule):
    """``stats()`` methods return dicts with snake_case string keys."""

    id = "stats-protocol"
    description = (
        "stats() must return a dict whose literal string keys are "
        "snake_case (the Instrumented protocol)"
    )
    rationale = (
        "MetricsRegistry merges every Instrumented source into one "
        "snapshot; a non-dict return or a non-snake_case key breaks the "
        "Prometheus exporter and the golden snapshot tests."
    )

    def check(
        self, module: ModuleUnit, project: ProjectContext
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (
                    isinstance(method, ast.FunctionDef)
                    and method.name == "stats"
                ):
                    yield from self._check_stats(module, method)

    def _check_stats(
        self, module: ModuleUnit, method: ast.FunctionDef
    ) -> Iterator[Finding]:
        for node in ast.walk(method):
            if isinstance(node, ast.Return) and isinstance(
                node.value, (ast.List, ast.Tuple, ast.Set)
            ):
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "stats() must return a dict "
                    "(Instrumented protocol), not a "
                    f"{type(node.value).__name__.lower()}",
                )
            elif isinstance(node, ast.Dict):
                for key in node.keys:
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and not METRIC_NAME_RE.match(key.value)
                    ):
                        yield self.finding(
                            module,
                            key.lineno,
                            key.col_offset,
                            f"stats() key {key.value!r} is not snake_case",
                        )
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "dict"
            ):
                for keyword in node.keywords:
                    if keyword.arg and not METRIC_NAME_RE.match(keyword.arg):
                        yield self.finding(
                            module,
                            node.lineno,
                            node.col_offset,
                            f"stats() key {keyword.arg!r} is not snake_case",
                        )


def _is_protocol_class(node: ast.ClassDef) -> bool:
    for base in node.bases:
        dotted = dotted_name(base)
        if dotted and dotted.split(".")[-1] == "Protocol":
            return True
    return False


@register
class StageProtocol(Rule):
    """``*Stage`` classes conform to the pipeline Stage protocol."""

    id = "stage-protocol"
    description = (
        "classes named *Stage need a snake_case `name` class attribute "
        "and a run(self, batch, ctx) method"
    )
    rationale = (
        "The micro-batch driver dispatches on stage.name and calls "
        "stage.run(batch, ctx); a stage missing either fails deep inside "
        "a crawl instead of at review time."
    )

    def check(
        self, module: ModuleUnit, project: ProjectContext
    ) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if (
                isinstance(node, ast.ClassDef)
                and node.name.endswith("Stage")
                and node.name != "Stage"
                and not _is_protocol_class(node)
            ):
                yield from self._check_stage(module, node)

    def _check_stage(
        self, module: ModuleUnit, node: ast.ClassDef
    ) -> Iterator[Finding]:
        name_value: str | None = None
        has_name = False
        run_def: ast.FunctionDef | None = None
        for statement in node.body:
            if isinstance(statement, ast.Assign):
                for target in statement.targets:
                    if isinstance(target, ast.Name) and target.id == "name":
                        has_name = True
                        if isinstance(
                            statement.value, ast.Constant
                        ) and isinstance(statement.value.value, str):
                            name_value = statement.value.value
            elif isinstance(statement, ast.AnnAssign):
                if (
                    isinstance(statement.target, ast.Name)
                    and statement.target.id == "name"
                ):
                    has_name = True
                    if isinstance(
                        statement.value, ast.Constant
                    ) and isinstance(statement.value.value, str):
                        name_value = statement.value.value
            elif (
                isinstance(statement, ast.FunctionDef)
                and statement.name == "run"
            ):
                run_def = statement
        if not has_name:
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"stage class {node.name} has no `name` class attribute",
            )
        elif name_value is not None and not METRIC_NAME_RE.match(name_value):
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"stage name {name_value!r} is not snake_case",
            )
        if run_def is None:
            yield self.finding(
                module,
                node.lineno,
                node.col_offset,
                f"stage class {node.name} has no run() method",
            )
        else:
            params = [arg.arg for arg in run_def.args.args]
            if params != ["self", "batch", "ctx"]:
                yield self.finding(
                    module,
                    run_def.lineno,
                    run_def.col_offset,
                    f"stage {node.name}.run must take (self, batch, ctx), "
                    f"got ({', '.join(params)})",
                )


#: attribute chains conventionally bound to BingoConfig
_CONFIG_CHAINS = frozenset({"ctx.config", "self.ctx.config"})


@register
class ConfigField(Rule):
    """Attribute reads on BingoConfig resolve to declared fields."""

    id = "config-field"
    description = (
        "attribute access on BingoConfig-typed names (and ctx.config) "
        "must hit a declared field"
    )
    rationale = (
        "BingoConfig is a plain dataclass: a typo'd field read raises "
        "AttributeError mid-crawl (or, worse, getattr defaults hide it); "
        "resolving reads statically catches it at review time."
    )

    def check(
        self, module: ModuleUnit, project: ProjectContext
    ) -> Iterator[Finding]:
        fields = project.config_fields
        if fields is None:
            return
        for scope in ast.walk(module.tree):
            if not isinstance(
                scope, (ast.FunctionDef, ast.AsyncFunctionDef)
            ):
                continue
            known = _config_names(scope)
            for node in ast.walk(scope):
                if not isinstance(node, ast.Attribute):
                    continue
                base = dotted_name(node.value)
                if base is None:
                    continue
                if base not in known and base not in _CONFIG_CHAINS:
                    continue
                if node.attr.startswith("_") or node.attr in fields:
                    continue
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"BingoConfig has no field {node.attr!r} "
                    f"(read via {base})",
                )


def _config_names(scope: ast.AST) -> set[str]:
    """Names in ``scope`` annotated as BingoConfig."""
    names: set[str] = set()
    if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef)):
        args = scope.args
        for arg in (
            list(args.posonlyargs) + list(args.args) + list(args.kwonlyargs)
        ):
            if arg.annotation is not None and _is_config_annotation(
                arg.annotation
            ):
                names.add(arg.arg)
    for node in ast.walk(scope):
        if (
            isinstance(node, ast.AnnAssign)
            and isinstance(node.target, ast.Name)
            and _is_config_annotation(node.annotation)
        ):
            names.add(node.target.id)
    return names


def _is_config_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Constant):
        return (
            isinstance(annotation.value, str)
            and annotation.value.split(".")[-1] == "BingoConfig"
        )
    dotted = dotted_name(annotation)
    return bool(dotted) and dotted.split(".")[-1] == "BingoConfig"
