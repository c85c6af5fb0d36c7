"""Generic hygiene rules: bare excepts, mutable defaults.

Not determinism-specific, but each one has bitten a crawl runtime
before: a bare ``except:`` eats ``KeyboardInterrupt`` mid-checkpoint,
and a mutable default argument leaks state across crawler instances.
"""

from __future__ import annotations

import ast
from typing import Iterator

from repro.lint.engine import ModuleUnit, resolve_call_target
from repro.lint.findings import Finding
from repro.lint.registry import Rule, register

__all__ = ["NoBareExcept", "NoMutableDefault"]


@register
class NoBareExcept(Rule):
    """Flag ``except:`` clauses with no exception type."""

    id = "no-bare-except"
    description = "bare except: catches SystemExit/KeyboardInterrupt too"
    rationale = (
        "A bare except traps interpreter-control exceptions, so a crawl "
        "cannot be interrupted cleanly and checkpoint state can be "
        "corrupted mid-write; name the exception (ReproError at widest)."
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.ExceptHandler) and node.type is None:
                yield self.finding(
                    module,
                    node.lineno,
                    node.col_offset,
                    "bare except: catches SystemExit and "
                    "KeyboardInterrupt; name the exception type",
                )


#: constructors whose results are mutable (unsafe as defaults)
_MUTABLE_CONSTRUCTORS = frozenset(
    {
        "list",
        "dict",
        "set",
        "bytearray",
        "collections.defaultdict",
        "collections.OrderedDict",
        "collections.Counter",
        "collections.deque",
    }
)


@register
class NoMutableDefault(Rule):
    """Flag mutable default argument values."""

    id = "no-mutable-default"
    description = "mutable default arguments ([], {}, set(), ...) leak state"
    rationale = (
        "Defaults are evaluated once at definition time; a mutable "
        "default shared across calls couples independent crawls and "
        "breaks run-to-run reproducibility in ways seeds cannot fix."
    )

    def check(self, module: ModuleUnit) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            defaults = list(node.args.defaults) + [
                default
                for default in node.args.kw_defaults
                if default is not None
            ]
            for default in defaults:
                if self._is_mutable(module, default):
                    yield self.finding(
                        module,
                        default.lineno,
                        default.col_offset,
                        "mutable default argument is shared across "
                        "calls; default to None and create inside",
                    )

    @staticmethod
    def _is_mutable(module: ModuleUnit, node: ast.expr) -> bool:
        if isinstance(node, (ast.List, ast.Dict, ast.Set)):
            return True
        if isinstance(node, ast.Call):
            target = resolve_call_target(module, node.func)
            return target in _MUTABLE_CONSTRUCTORS
        return False
