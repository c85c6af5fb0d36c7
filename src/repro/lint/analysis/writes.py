"""Shared attribute-write detection for the contract checkers.

``epoch-mutation`` asks *where does code mutate an attribute of an
instance of class C?*  This module extracts the write events; the rule
resolves the receiver type and applies its policy (which classes and
attributes it guards, which enclosing scopes are exempt).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass

from repro.lint.graph import FunctionSymbol, _scope_statements

__all__ = ["AttrWrite", "iter_attr_writes"]

#: method names that mutate their receiver in place
MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "clear",
        "pop", "popitem", "remove", "discard", "setdefault",
        "move_to_end", "sort", "reverse",
    }
)


@dataclass(frozen=True)
class AttrWrite:
    """One mutation of ``<base>.<attr>`` inside a function body."""

    base: ast.expr
    """The receiver expression (``self``, ``engine``, ``x.y``)."""
    attr: str
    line: int
    col: int


def _writes_for_target(target: ast.expr) -> list[AttrWrite]:
    if isinstance(target, ast.Attribute):
        return [
            AttrWrite(
                base=target.value,
                attr=target.attr,
                line=target.lineno,
                col=target.col_offset,
            )
        ]
    if isinstance(target, ast.Subscript) and isinstance(
        target.value, ast.Attribute
    ):
        inner = target.value
        return [
            AttrWrite(
                base=inner.value,
                attr=inner.attr,
                line=target.lineno,
                col=target.col_offset,
            )
        ]
    if isinstance(target, (ast.Tuple, ast.List)):
        out: list[AttrWrite] = []
        for element in target.elts:
            out.extend(_writes_for_target(element))
        return out
    return []


def iter_attr_writes(function: FunctionSymbol) -> list[AttrWrite]:
    """Every attribute mutation in ``function``'s own scope.

    Covers plain and augmented assignment (``x.a = v``, ``x.a += v``),
    subscript stores (``x.a[k] = v``), deletes, and in-place mutator
    calls (``x.a.clear()``, ``x.a.append(v)``).
    """
    writes: list[AttrWrite] = []
    for statement in _scope_statements(function.node):
        if isinstance(statement, ast.Assign):
            for target in statement.targets:
                writes.extend(_writes_for_target(target))
        elif isinstance(statement, ast.AnnAssign):
            if statement.value is not None:
                writes.extend(_writes_for_target(statement.target))
        elif isinstance(statement, ast.AugAssign):
            writes.extend(_writes_for_target(statement.target))
        elif isinstance(statement, ast.Delete):
            for target in statement.targets:
                writes.extend(_writes_for_target(target))
        if isinstance(
            statement,
            (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef),
        ):
            continue
        # only walk expressions hanging directly off this statement;
        # nested block statements arrive separately from the scope walk
        for child in ast.iter_child_nodes(statement):
            if not isinstance(child, ast.expr):
                continue
            for node in ast.walk(child):
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr in MUTATOR_METHODS
                    and isinstance(node.func.value, ast.Attribute)
                ):
                    receiver = node.func.value
                    writes.append(
                        AttrWrite(
                            base=receiver.value,
                            attr=receiver.attr,
                            line=node.lineno,
                            col=node.col_offset,
                        )
                    )
    return writes
