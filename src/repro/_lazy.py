"""The one PEP 562 hook behind every package that defers part of its API."""

from __future__ import annotations

from collections.abc import Callable, Mapping
from importlib import import_module

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str, table: Mapping[str, str]
) -> Callable[[str], object]:
    """A module-level ``__getattr__`` resolving ``table``'s names
    (``name -> defining module``) on first access."""

    def __getattr__(name: str) -> object:
        module_name = table.get(name)
        if module_name is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        return getattr(import_module(module_name), name)

    return __getattr__
