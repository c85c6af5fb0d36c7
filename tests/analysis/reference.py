"""Dict-walking HITS and Bharat/Henzinger loops, kept as parity oracles.

These are the per-node formulations :mod:`repro.analysis.hits` and
:mod:`repro.analysis.distillation` ran before the CSR kernels of
:mod:`repro.perf.csr_hits` replaced them.  No production module calls
them; ``tests/analysis/test_csr_hits.py`` pins the kernels to them
(identical iteration counts and convergence flags, scores within 1e-9).
Do not optimise this module: its value is that it is the recurrence,
written down node by node.
"""

from __future__ import annotations

import math
from collections.abc import Hashable, Mapping

from repro.analysis.distillation import _edge_weights
from repro.analysis.graph import LinkGraph
from repro.analysis.hits import HitsResult

__all__ = ["hits_reference", "bharat_henzinger_reference"]

Node = Hashable


def _normalize(scores: dict[Node, float]) -> None:
    norm = math.sqrt(sum(v * v for v in scores.values()))
    if norm > 0:
        for node in scores:
            scores[node] /= norm


def hits_reference(
    graph: LinkGraph,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> HitsResult:
    """Kleinberg's HITS, one dict walk per node per iteration."""
    nodes = graph.nodes
    if not nodes:
        return HitsResult(converged=True)
    authority = {node: 1.0 for node in nodes}
    hub = {node: 1.0 for node in nodes}
    _normalize(authority)
    _normalize(hub)
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        new_authority = {
            node: sum(hub[p] for p in graph.predecessors.get(node, ()))
            for node in nodes
        }
        _normalize(new_authority)
        new_hub = {
            node: sum(new_authority[q] for q in graph.successors.get(node, ()))
            for node in nodes
        }
        _normalize(new_hub)
        delta = max(
            max(abs(new_authority[n] - authority[n]) for n in nodes),
            max(abs(new_hub[n] - hub[n]) for n in nodes),
        )
        authority, hub = new_authority, new_hub
        if delta < tolerance:
            converged = True
            break
    return HitsResult(
        authority=authority, hub=hub,
        iterations=iterations, converged=converged,
    )


def bharat_henzinger_reference(
    graph: LinkGraph,
    relevance: Mapping[Node, float] | None = None,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> HitsResult:
    """Host-weighted, relevance-weighted HITS, one dict walk per node."""
    nodes = graph.nodes
    if not nodes:
        return HitsResult(converged=True)
    if relevance is None:
        relevance = {}
    rel = {node: float(relevance.get(node, 1.0)) for node in nodes}
    authority_weight, hub_weight = _edge_weights(graph)

    authority = {node: 1.0 for node in nodes}
    hub = {node: 1.0 for node in nodes}
    _normalize(authority)
    _normalize(hub)
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        new_authority = {
            node: sum(
                hub[p] * authority_weight[(p, node)] * rel[p]
                for p in graph.predecessors.get(node, ())
            )
            for node in nodes
        }
        _normalize(new_authority)
        new_hub = {
            node: sum(
                new_authority[q] * hub_weight[(node, q)] * rel[q]
                for q in graph.successors.get(node, ())
            )
            for node in nodes
        }
        _normalize(new_hub)
        delta = max(
            max(abs(new_authority[n] - authority[n]) for n in nodes),
            max(abs(new_hub[n] - hub[n]) for n in nodes),
        )
        authority, hub = new_authority, new_hub
        if delta < tolerance:
            converged = True
            break
    return HitsResult(
        authority=authority, hub=hub,
        iterations=iterations, converged=converged,
    )
