"""The pluggable rule architecture.

A rule is a class with a stable kebab-case ``id``, a one-line
``description`` (shown by ``--list-rules``), a ``rationale`` tying it
to the invariant it protects, and a ``check(module)`` method
yielding :class:`~repro.lint.findings.Finding` records.  Rules
register themselves with the :func:`register` decorator at import
time; :func:`all_rules` instantiates the full set in id order, so the
engine's rule iteration -- like everything else in bingolint -- is
deterministic.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, Iterator, TypeVar

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import ModuleUnit
    from repro.lint.findings import Finding

__all__ = ["Rule", "register", "all_rules"]

#: rule ids are kebab-case: stable, grep-able, suppression-comment safe
RULE_ID_RE = re.compile(r"^[a-z][a-z0-9]*(-[a-z0-9]+)*$")

_RULES: dict[str, type["Rule"]] = {}


class Rule:
    """Base class of every lint rule."""

    id: str = ""
    description: str = ""
    rationale: str = ""

    def check(self, module: "ModuleUnit") -> Iterator["Finding"]:
        """Yield findings for one parsed module."""
        raise NotImplementedError

    def finding(
        self, module: "ModuleUnit", line: int, col: int, message: str
    ) -> "Finding":
        """Build a finding for this rule at a location in ``module``."""
        from repro.lint.findings import Finding

        return Finding(
            path=module.display_path,
            line=line,
            col=col,
            rule=self.id,
            message=message,
        )


RuleT = TypeVar("RuleT", bound=type[Rule])


def register(cls: RuleT) -> RuleT:
    """Class decorator adding a rule to the registry."""
    if not RULE_ID_RE.match(cls.id):
        raise ValueError(f"rule id {cls.id!r} is not kebab-case")
    if cls.id in _RULES:
        raise ValueError(f"duplicate rule id {cls.id!r}")
    if not cls.description:
        raise ValueError(f"rule {cls.id!r} needs a description")
    _RULES[cls.id] = cls
    return cls


def _ensure_loaded() -> None:
    """Import the shipped rule modules so their registrations fire."""
    import repro.lint.rules  # noqa: F401  (import for side effect)


def all_rules() -> list[Rule]:
    """Instantiate every registered rule, in id order."""
    _ensure_loaded()
    return [_RULES[rule_id]() for rule_id in sorted(_RULES)]
