"""Whole-program contract checkers (``scope == "project"`` rules).

These rules consume the :class:`~repro.lint.graph.ProjectIndex` the
engine builds after parsing every file, instead of a single module
AST.  They enforce the invariants that only exist *between* files:

* :mod:`repro.lint.analysis.contracts` -- ``epoch-mutation``: state
  behind the typed Epoch (engine vectors, inverted index, query cache,
  idf snapshot, classifier models) may only change inside its
  lifecycle funnels;
* :mod:`repro.lint.analysis.schema` -- ``stats-schema``: no two
  production ``register_source`` calls give the same source name.

Importing this package registers every rule, exactly like
:mod:`repro.lint.rules`.
"""

from __future__ import annotations

from repro.lint.analysis import contracts, schema

__all__ = ["contracts", "schema"]
