"""``repro.lint`` -- bingolint, the determinism & invariant checker.

Every result this reproduction claims (Table-1 counter parity across
checkpoint/resume, batch-size invariance, obs on/off bit-identity)
rests on strict determinism and protocol discipline.  Runtime tests
catch violations late and non-exhaustively; this package makes the
contract a *build-time* property instead, in the spirit of BINGO!'s
own section-4.1 lesson that system-level invariants must be designed
in, not discovered.

The pieces:

* :mod:`repro.lint.findings` -- the :class:`~repro.lint.findings.
  Finding` record every rule emits;
* :mod:`repro.lint.registry` -- the pluggable :class:`~repro.lint.
  registry.Rule` base class and the rule registry;
* :mod:`repro.lint.rules` -- the rules, each over one file at a
  time: determinism (wall clock, unseeded randomness, set iteration)
  and generic hygiene (bare excepts, mutable defaults);
* :mod:`repro.lint.engine` -- parses files, collects per-line
  ``# bingolint: disable=RULE`` suppressions and runs the rules;
* :mod:`repro.lint.reporters` -- deterministic text and JSON output;
* :mod:`repro.lint.cli` -- ``python -m repro.lint [paths]`` with the
  repository-wide exit-code contract (0 clean / 1 findings / 2 usage
  error).
"""

from __future__ import annotations

from repro.lint.engine import LintEngine, ModuleUnit
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules
from repro.lint.reporters import render_json, render_text

__all__ = [
    "Finding",
    "LintEngine",
    "ModuleUnit",
    "Rule",
    "all_rules",
    "render_json",
    "render_text",
]
