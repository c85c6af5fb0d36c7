"""Bharat/Henzinger topic distillation (SIGIR 1998) -- the "method of [4]".

Two improvements over plain HITS, both implemented here:

1. **Host-based edge weighting** defeats mutually reinforcing hosts: if
   ``k`` documents on host H all point to the same target, each such edge
   contributes authority weight ``1/k`` (and symmetrically, if one host's
   documents receive ``m`` links from the same source's host, hub
   contributions are scaled ``1/m``).  No single host can then dominate a
   target's authority.

2. **Relevance weighting** fights topic drift inside the expanded node
   set: each node carries a relevance weight in [0, 1] (BINGO! uses the
   classifier's confidence, rescaled), and a node's contribution to its
   neighbours is multiplied by its relevance.

The result object is the same :class:`~repro.analysis.hits.HitsResult`.
"""

from __future__ import annotations

from collections.abc import Hashable, Mapping

from repro.analysis.graph import LinkGraph
from repro.analysis.hits import HitsResult

__all__ = ["bharat_henzinger"]

Node = Hashable


def bharat_henzinger(
    graph: LinkGraph,
    relevance: Mapping[Node, float] | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> HitsResult:
    """Host-weighted, relevance-weighted HITS.

    Runs on the CSR matvec kernel (:mod:`repro.perf.csr_hits`), which
    sits inside the crawler's retraining loop;
    ``tests/analysis/reference.py`` keeps the per-node dict formulation
    the kernel is parity-tested against.
    """
    # imported lazily: repro.perf.csr_hits imports HitsResult's module
    from repro.perf.csr_hits import bharat_henzinger_csr

    return bharat_henzinger_csr(
        graph, relevance or {},
        max_iterations=max_iterations, tolerance=tolerance,
    )
