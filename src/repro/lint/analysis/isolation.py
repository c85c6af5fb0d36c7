"""``shard-isolation``: a static race detector for the worker runtime.

PR 8's sharded crawl is deterministic because workers only ever touch
their own slice -- their shard's frontier partition, breaker board and
workspace -- and every cross-shard effect goes through the
:class:`~repro.shard.frontier.ShardedFrontier` routing API or a merge
barrier.  That discipline is what makes N-worker output byte-identical
to 1-worker output.

This rule checks it statically.  **Worker scope** is the call-graph
closure of (a) every method of ``WorkerSlice`` and (b) every function
taking a ``WorkerSlice``-typed parameter -- i.e. code invoked *as* a
worker, not the coordinator that owns the barrier.  Inside that
closure, mutating shared state (``WorkerSet``, ``ShardedFrontier``,
``BreakerBoardSet`` attributes) or calling their underscore-private
methods from outside the owning class is a finding; calling the
public routing/barrier API is the sanctioned path and stays legal.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.analysis.writes import iter_attr_writes
from repro.lint.engine import ProjectContext
from repro.lint.findings import Finding
from repro.lint.graph import FunctionSymbol, ProjectIndex
from repro.lint.registry import Rule, register

__all__ = ["ShardIsolation"]

#: classes holding cross-shard state: direct attribute mutation from
#: worker scope is a race (single-writer discipline broken)
GUARDED_CLASSES = frozenset(
    {"WorkerSet", "ShardedFrontier", "BreakerBoardSet"}
)

#: the class whose methods/parameters define worker scope
WORKER_CLASS = "WorkerSlice"


def _worker_roots(index: ProjectIndex) -> list[str]:
    roots: list[str] = []
    for qualname in sorted(index.functions):
        function = index.functions[qualname]
        if function.class_name is not None:
            owner = index.classes.get(function.class_name)
            if owner is not None and owner.name == WORKER_CLASS:
                roots.append(qualname)
                continue
        for name in function.params:
            param_type = function.local_types.get(name)
            if param_type is None or param_type.container:
                continue
            owner = index.classes.get(param_type.qualname)
            if owner is not None and owner.name == WORKER_CLASS:
                roots.append(qualname)
                break
    return roots


@register
class ShardIsolation(Rule):
    """Flag worker-scope mutation of cross-shard state."""

    id = "shard-isolation"
    scope = "project"
    description = (
        "code reachable from WorkerSlice scope must not mutate "
        "WorkerSet/ShardedFrontier/BreakerBoardSet state except "
        "through their public routing and barrier APIs"
    )
    rationale = (
        "Sharded crawls are byte-identical to single-worker crawls "
        "only while each worker touches nothing but its own slice; a "
        "worker writing shared frontier or breaker state directly is "
        "a data race that surfaces as run-to-run divergence, the "
        "hardest class of bug to bisect."
    )

    def check_project(
        self, index: ProjectIndex, project: ProjectContext
    ) -> Iterator[Finding]:
        roots = _worker_roots(index)
        if not roots:
            return
        for qualname in index.reachable_from(roots):
            function = index.functions.get(qualname)
            if function is None:
                continue
            yield from self._check_function(index, function)

    def _check_function(
        self, index: ProjectIndex, function: FunctionSymbol
    ) -> Iterator[Finding]:
        unit = function.module
        enclosing_names: set[str] = set()
        if function.class_name is not None:
            enclosing_names = {
                symbol.name
                for symbol in index.mro(function.class_name)
            }
        for write in iter_attr_writes(function):
            receiver = index.expr_type(
                unit, write.base, function.local_types
            )
            if receiver is None or receiver.container:
                continue
            owner = index.classes.get(receiver.qualname)
            if owner is None or owner.name not in GUARDED_CLASSES:
                continue
            if owner.name in enclosing_names:
                continue  # the shared structure's own API is the API
            yield self.finding_at(
                unit.display_path,
                write.line,
                write.col,
                f"worker-scope code mutates shared "
                f"{owner.name}.{write.attr}; cross-shard effects must "
                f"go through ShardedFrontier routing or a merge "
                f"barrier",
            )
        for site in function.calls:
            # by the receiver's class, not the defining one: a guarded
            # class keeps its privacy over what it inherits
            # (ShardedFrontier is a CrawlFrontier)
            called = site.node.func
            if (
                not isinstance(called, ast.Attribute)
                or not called.attr.startswith("_")
                or called.attr.startswith("__")
            ):
                continue
            receiver = index.expr_type(
                unit, called.value, function.local_types
            )
            if receiver is None or receiver.container:
                continue
            owner = index.classes.get(receiver.qualname)
            if owner is None or owner.name not in GUARDED_CLASSES:
                continue
            if owner.name in enclosing_names:
                continue
            yield self.finding_at(
                unit.display_path,
                site.line,
                site.col,
                f"worker-scope code calls private "
                f"{owner.name}.{called.attr}(); only the public "
                f"routing/barrier API may cross shard boundaries",
            )
