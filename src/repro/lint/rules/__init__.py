"""The shipped rule set.

Importing this package registers every rule with
:mod:`repro.lint.registry`.  Rules are grouped by the invariant they
protect:

* :mod:`repro.lint.rules.determinism` -- no wall clock, no unseeded
  randomness, no order-unstable set iteration;
* :mod:`repro.lint.rules.protocols` -- ``stats()`` conformance, Stage
  conformance, ``BingoConfig`` field existence;
* :mod:`repro.lint.rules.hygiene` -- bare excepts, mutable default
  arguments, silently swallowed exceptions.
"""

from __future__ import annotations

from repro.lint.rules import determinism, hygiene, protocols

__all__ = ["determinism", "hygiene", "protocols"]
