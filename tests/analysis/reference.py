"""Dict-walking HITS and Bharat/Henzinger loops, kept as parity oracles.

These are the per-node formulations :mod:`repro.analysis.hits` and
:mod:`repro.analysis.distillation` ran before the CSR kernels of
:mod:`repro.perf.csr_hits` replaced them, with the tuple-keyed host
weights and the per-edge ``weight_of`` CSR build those kernels used
before they were built in arrays.  No production module calls them;
``tests/analysis/test_csr_hits.py`` pins the kernels to them (identical
iteration counts and convergence flags, scores within 1e-9; the CSR
arrays bit for bit).  Do not optimise this module: its value is that it
is the recurrence, written down node by node.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Hashable, Mapping

import numpy as np

from repro.analysis.graph import LinkGraph
from repro.analysis.hits import HitsResult
from repro.ml.common import CsrRows

__all__ = [
    "hits_reference",
    "bharat_henzinger_reference",
    "edge_weights_reference",
    "csr_reference",
    "bharat_henzinger_csr_reference",
]

Node = Hashable


def edge_weights_reference(graph: LinkGraph) -> tuple[dict, dict]:
    """Per-edge authority and hub weights under the host rules."""
    # authority weight of edge (p -> q): 1 / (#docs on host(p) linking to q)
    by_target_host: dict[tuple[Node, str], int] = defaultdict(int)
    for target, sources in graph.predecessors.items():
        for source in sources:
            by_target_host[(target, graph.host_of(source))] += 1
    authority_weight = {}
    for target, sources in graph.predecessors.items():
        for source in sources:
            k = by_target_host[(target, graph.host_of(source))]
            authority_weight[(source, target)] = 1.0 / k
    # hub weight of edge (p -> q): 1 / (#docs on host(q) linked from p)
    by_source_host: dict[tuple[Node, str], int] = defaultdict(int)
    for source, targets in graph.successors.items():
        for target in targets:
            by_source_host[(source, graph.host_of(target))] += 1
    hub_weight = {}
    for source, targets in graph.successors.items():
        for target in targets:
            m = by_source_host[(source, graph.host_of(target))]
            hub_weight[(source, target)] = 1.0 / m
    return authority_weight, hub_weight


def csr_reference(graph: LinkGraph, weight_of=None) -> CsrRows:
    """The adjacency built edge by edge; ``weight_of(source, target)``
    defaults to 1.0 (unweighted HITS)."""
    nodes = graph.nodes
    index = graph.node_index()
    indptr = [0]
    indices: list[int] = []
    data: list[float] = []
    for node in nodes:
        for target in graph.successors.get(node, ()):
            indices.append(index[target])
            data.append(1.0 if weight_of is None else weight_of(node, target))
        indptr.append(len(indices))
    n = len(nodes)
    return CsrRows(
        np.asarray(data, dtype=np.float64),
        np.asarray(indices, dtype=np.intp),
        np.asarray(indptr, dtype=np.intp),
        (n, n),
    )


def bharat_henzinger_csr_reference(
    graph: LinkGraph, relevance: Mapping[Node, float] | None = None
) -> tuple[CsrRows, CsrRows]:
    """The (authority, hub) weighted adjacencies, edge by edge."""
    relevance = relevance or {}
    rel = {node: float(relevance.get(node, 1.0)) for node in graph.nodes}
    authority_weight, hub_weight = edge_weights_reference(graph)
    authority = csr_reference(
        graph, lambda p, q: authority_weight[(p, q)] * rel[p]
    )
    hub = csr_reference(graph, lambda p, q: hub_weight[(p, q)] * rel[q])
    return authority, hub


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
    authority_weight, hub_weight = edge_weights_reference(graph)

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
