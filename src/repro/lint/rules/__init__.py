"""The shipped rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Rules are grouped by the invariant they
protect:

* :mod:`repro.lint.rules.determinism` -- no wall clock, no unseeded
  randomness, no order-unstable set iteration;
* :mod:`repro.lint.rules.hygiene` -- bare excepts, mutable default
  arguments.
"""

from __future__ import annotations

from repro.lint.rules import determinism, hygiene

__all__ = ["determinism", "hygiene"]
