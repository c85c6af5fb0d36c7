"""Determinism rules: wall clock, unseeded randomness, set iteration.

These protect the reproduction's central guarantee -- two runs with
the same config and seed are bit-identical on every Table-1 counter,
checkpoint, metric snapshot and stored row.  Anything that reads wall
time, taps process-global randomness or iterates an unordered
container into an ordered output silently breaks that guarantee.

Every rule here flags the *call*, in the module that makes it.  That
is enough to cover values laundered through helpers, parameters or
arithmetic on their way to a frontier or classifier decision: inside
the ``repro`` package no clock or global-RNG read is allowed at all
(``time.perf_counter`` included -- wall seconds are measured from
outside, by ``benchmarks/e2e/trace.py``), so there is no sanctioned
source whose value would need chasing.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleUnit, dotted_name, resolve_call_target
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["NoWallClock", "NoUnseededRandom", "NoSetIteration"]

#: the module allowed to own time: everything else threads SimulatedClock
CLOCK_MODULE = "repro.web.clock"

WALL_CLOCK_TARGETS = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.clock_gettime",
        "time.clock_gettime_ns",
        "datetime.datetime.now",
        "datetime.datetime.utcnow",
        "datetime.datetime.today",
        "datetime.date.today",
    }
)

#: the set for modules of the ``repro`` package, which owns simulated
#: time only; benchmarks, tests and examples time themselves with
#: perf_counter and may format a date
REPRO_CLOCK_TARGETS = WALL_CLOCK_TARGETS | {
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.localtime",
    "time.gmtime",
}

#: numpy module-level (global-state) random functions
NUMPY_GLOBAL_RANDOM = frozenset(
    {
        "numpy.random.seed",
        "numpy.random.rand",
        "numpy.random.randn",
        "numpy.random.randint",
        "numpy.random.random",
        "numpy.random.random_sample",
        "numpy.random.uniform",
        "numpy.random.normal",
        "numpy.random.choice",
        "numpy.random.shuffle",
        "numpy.random.permutation",
    }
)


@register
class NoWallClock(Rule):
    """Flag wall-clock reads outside the simulated clock module."""

    id = "no-wall-clock"
    description = (
        "wall-clock reads (time.time, datetime.now, time.monotonic; in "
        "repro.* also perf_counter, gmtime) are forbidden outside "
        "repro.web.clock"
    )
    rationale = (
        "All timing flows through SimulatedClock so crawls replay "
        "deterministically; a single wall-clock read desynchronises "
        "checkpoints, metrics timestamps and politeness scheduling.  "
        "Flagging every read at its call makes following the value "
        "through helpers unnecessary."
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        if module.module_name == CLOCK_MODULE:
            return
        in_repro = module.module_name.partition(".")[0] == "repro"
        targets = REPRO_CLOCK_TARGETS if in_repro else WALL_CLOCK_TARGETS
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            target = resolve_call_target(module, node.func)
            if target in targets:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    f"wall-clock call {target}() is nondeterministic; "
                    "thread simulated time from repro.web.clock instead",
                )


@register
class NoUnseededRandom(Rule):
    """Flag process-global or unseeded randomness."""

    id = "no-unseeded-random"
    description = (
        "module-level random.* calls and seedless np.random.default_rng() "
        "are forbidden; thread seeded Generators from config"
    )
    rationale = (
        "Every stochastic choice (graph generation, latencies, SVM "
        "shuffles) must derive from BingoConfig.seed; global RNG state "
        "makes crawl outcomes depend on import order and test order."
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            local = dotted_name(node.func)
            if local is None or local.partition(".")[0] not in module.imports:
                continue  # only flag names that resolve to real imports
            target = resolve_call_target(module, node.func)
            if target is None:
                continue
            message = self._violation(target, node)
            if message is not None:
                yield self.finding(
                    module, node.lineno, node.col_offset, message
                )

    @staticmethod
    def _violation(target: str, node: ast.Call) -> str | None:
        seedless = not node.args and not node.keywords
        if target == "random.Random":
            if seedless:
                return (
                    "random.Random() without a seed is nondeterministic; "
                    "pass a seed derived from config"
                )
            return None
        if target == "random.SystemRandom":
            return "random.SystemRandom is entropy-backed, never reproducible"
        if target.startswith("random."):
            return (
                f"module-level {target}() taps process-global RNG state; "
                "thread a seeded Generator from config instead"
            )
        if target == "numpy.random.default_rng" and seedless:
            return (
                "np.random.default_rng() without a seed is "
                "nondeterministic; derive the seed from config"
            )
        if target in NUMPY_GLOBAL_RANDOM:
            return (
                f"{target}() uses numpy's global RNG state; "
                "use a seeded np.random.Generator instead"
            )
        return None


def _is_set_expression(node: ast.AST) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("set", "frozenset")
    )


_SET_ANNOTATIONS = frozenset(
    {"set", "frozenset", "Set", "FrozenSet", "AbstractSet", "MutableSet"}
)


def _is_set_annotation(annotation: ast.expr) -> bool:
    if isinstance(annotation, ast.Subscript):
        annotation = annotation.value
    dotted = dotted_name(annotation)
    return bool(dotted) and dotted.split(".")[-1] in _SET_ANNOTATIONS


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Walk ``scope`` without descending into nested scopes."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(
            node,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef),
        ):
            stack.extend(ast.iter_child_nodes(node))


def _set_typed_names(scope: ast.AST) -> set[str]:
    """Local names provably bound to a set for the whole scope."""
    set_names: set[str] = set()
    other_names: set[str] = set()
    for node in _scope_nodes(scope):
        if isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    if _is_set_expression(node.value):
                        set_names.add(target.id)
                    else:
                        other_names.add(target.id)
        elif isinstance(node, ast.AnnAssign) and isinstance(
            node.target, ast.Name
        ):
            if _is_set_annotation(node.annotation) or (
                node.value is not None and _is_set_expression(node.value)
            ):
                set_names.add(node.target.id)
            else:
                other_names.add(node.target.id)
        elif isinstance(node, (ast.For, ast.AsyncFor)) and isinstance(
            node.target, ast.Name
        ):
            other_names.add(node.target.id)
        elif isinstance(node, ast.AugAssign) and isinstance(
            node.target, ast.Name
        ):
            other_names.add(node.target.id)
    return set_names - other_names


@register
class NoSetIteration(Rule):
    """Flag iteration over sets (expressions or set-typed locals)."""

    id = "no-set-iteration"
    description = (
        "iterating a set (literal, set(...) call or set-typed local) "
        "is order-unstable; wrap it in sorted(...)"
    )
    rationale = (
        "Set iteration order depends on hash seeding (str hashes are "
        "randomized per process) and insertion history; feeding it into "
        "floats, stored rows or capped expansions makes output differ "
        "across runs.  sorted(...) restores a total order."
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        scopes: list[ast.AST] = [module.tree] + [
            node
            for node in ast.walk(module.tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for scope in scopes:
            set_names = _set_typed_names(scope)
            for node in _scope_nodes(scope):
                if isinstance(node, (ast.For, ast.AsyncFor)):
                    sites = [node.iter]
                elif isinstance(
                    node, (ast.ListComp, ast.SetComp, ast.DictComp,
                           ast.GeneratorExp)
                ):
                    sites = [gen.iter for gen in node.generators]
                else:
                    continue
                for site in sites:
                    message = self._diagnose(site, set_names)
                    if message is not None:
                        yield self.finding(
                            module, site.lineno, site.col_offset, message
                        )

    @staticmethod
    def _diagnose(site: ast.expr, set_names: set[str]) -> str | None:
        if _is_set_expression(site):
            return (
                "iteration over a set has no stable order; "
                "wrap the set in sorted(...)"
            )
        if isinstance(site, ast.Name) and site.id in set_names:
            return (
                f"iteration over set {site.id!r} has no stable order; "
                "wrap it in sorted(...)"
            )
        if (
            isinstance(site, ast.Call)
            and isinstance(site.func, ast.Name)
            and site.func.id in ("list", "tuple")
            and len(site.args) == 1
        ):
            inner = site.args[0]
            if _is_set_expression(inner) or (
                isinstance(inner, ast.Name) and inner.id in set_names
            ):
                return (
                    f"{site.func.id}(...) over a set keeps the unstable "
                    "set order; use sorted(...) instead"
                )
        return None
