"""HITS and Bharat/Henzinger distillation as CSR matvec iterations.

A dict formulation (kept as the oracle in ``tests/analysis/
reference.py``) walks Python dicts once per node per iteration, at
every retraining point (a crawl-n1 base graph reaches ~750 nodes and
~1,250 edges) and per search-engine epoch.  Here the
:class:`~repro.analysis.graph.LinkGraph` is converted once, in arrays,
to int-indexed :class:`~repro.ml.common.CsrRows` (the host weights are
counted by ``np.unique``), and each HITS iteration becomes two
``bincount`` matvecs with L2 normalisation:

    authority = A^T @ hub  (rmatvec)     hub = A @ authority  (matvec)

(for distillation, A carries the host-based edge weights times the
source/target relevance), each adding its products in scipy's order.
Scores are returned in the same dict-keyed
:class:`~repro.analysis.hits.HitsResult`, and the iteration count,
convergence flag and per-iteration normalisation mirror the oracle's
loop exactly, so scores agree within float-associativity noise (parity
tests bound it at 1e-9).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from itertools import chain
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.hits import HitsResult
from repro.ml.common import CsrRows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.graph import LinkGraph

__all__ = [
    "CsrAdjacency",
    "hits_csr",
    "bharat_henzinger_csr",
    "distillation_matrices",
]


@dataclass
class CsrAdjacency:
    """Int-indexed CSR view of a :class:`LinkGraph`.

    Row ``p`` of ``matrix`` holds ``weight`` at column ``q`` for every
    edge p -> q; ``nodes[i]`` maps row/column ``i`` back to the graph's
    node id.
    """

    nodes: list
    index: dict
    matrix: CsrRows

    @classmethod
    def from_graph(cls, graph: "LinkGraph") -> "CsrAdjacency":
        """Build the unweighted adjacency in arrays: rows in node order,
        each listing its successors in their set's iteration order (the
        order ``bincount`` adds them in)."""
        nodes = graph.nodes
        index = graph.node_index()
        n = len(nodes)
        successors = graph.successors.values()
        indptr = np.zeros(n + 1, dtype=np.intp)
        np.cumsum(
            np.fromiter(map(len, successors), dtype=np.intp, count=n),
            out=indptr[1:],
        )
        indices = np.fromiter(
            map(index.__getitem__, chain.from_iterable(successors)),
            dtype=np.intp, count=int(indptr[-1]),
        )
        matrix = CsrRows(
            np.ones(len(indices)), indices, indptr, (n, n)
        )
        return cls(nodes=nodes, index=index, matrix=matrix)


def _normalized(scores: np.ndarray) -> np.ndarray:
    norm = float(np.linalg.norm(scores))
    if norm > 0.0:
        return scores / norm
    return scores


def _iterate(
    forward: CsrRows,
    backward: CsrRows,
    n: int,
    max_iterations: int,
    tolerance: float,
) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """The alternating matvec loop shared by plain and weighted HITS.

    ``backward.rmatvec`` maps hubs to authorities (A^T, possibly
    weighted), ``forward.matvec`` maps authorities to hubs (A).
    """
    authority = _normalized(np.ones(n))
    hub = _normalized(np.ones(n))
    iterations = 0
    converged = False
    for iterations in range(1, max_iterations + 1):
        new_authority = _normalized(backward.rmatvec(hub))
        new_hub = _normalized(forward.matvec(new_authority))
        delta = max(
            float(np.max(np.abs(new_authority - authority))),
            float(np.max(np.abs(new_hub - hub))),
        )
        authority, hub = new_authority, new_hub
        if delta < tolerance:
            converged = True
            break
    return authority, hub, iterations, converged


def _result(
    nodes: list, authority: np.ndarray, hub: np.ndarray,
    iterations: int, converged: bool,
) -> HitsResult:
    return HitsResult(
        authority={node: float(a) for node, a in zip(nodes, authority)},
        hub={node: float(h) for node, h in zip(nodes, hub)},
        iterations=iterations,
        converged=converged,
    )


def hits_csr(
    graph: "LinkGraph",
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> HitsResult:
    """Plain HITS over CSR adjacency (kernel behind ``analysis.hits.hits``)."""
    adjacency = CsrAdjacency.from_graph(graph)
    n = len(adjacency.nodes)
    if n == 0:
        return HitsResult(converged=True)
    authority, hub, iterations, converged = _iterate(
        adjacency.matrix, adjacency.matrix, n, max_iterations, tolerance
    )
    return _result(adjacency.nodes, authority, hub, iterations, converged)


def _shared_host_weights(
    nodes: np.ndarray, hosts: np.ndarray, n_hosts: int
) -> np.ndarray:
    """Per edge, ``1 / (edges sharing its node and its other end's host)``."""
    keys = nodes * n_hosts + hosts
    _, inverse, counts = np.unique(
        keys, return_inverse=True, return_counts=True
    )
    return 1.0 / counts[inverse]


def distillation_matrices(
    graph: "LinkGraph", relevance: Mapping
) -> tuple[CsrRows, CsrRows]:
    """The (authority-step, hub-step) weighted adjacencies of ``graph``.

    Edge p -> q carries authority weight ``1/k * rel[p]``, where k
    counts the documents on host(p) linking to q, and hub weight
    ``1/m * rel[q]``, where m counts the documents on host(q) linked
    from p (the host rules of :mod:`repro.analysis.distillation`);
    ``relevance`` maps nodes to their [0, 1] weight (1.0 if absent).
    """
    adjacency = CsrAdjacency.from_graph(graph)
    nodes = adjacency.nodes
    n = len(nodes)
    host_ids: dict[str, int] = {}
    host_of = np.fromiter(
        (host_ids.setdefault(graph.host_of(node), len(host_ids))
         for node in nodes),
        dtype=np.intp, count=n,
    )
    rel = np.fromiter(
        (float(relevance.get(node, 1.0)) for node in nodes),
        dtype=np.float64, count=n,
    )
    matrix = adjacency.matrix
    sources, targets = matrix.row_ids, matrix.indices
    authority_weight = _shared_host_weights(
        targets, host_of[sources], len(host_ids)
    )
    hub_weight = _shared_host_weights(
        sources, host_of[targets], len(host_ids)
    )
    return (
        CsrRows(authority_weight * rel[sources], targets, matrix.indptr,
                (n, n)),
        CsrRows(hub_weight * rel[targets], targets, matrix.indptr, (n, n)),
    )


def bharat_henzinger_csr(
    graph: "LinkGraph",
    relevance: Mapping,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> HitsResult:
    """Host- and relevance-weighted HITS over the weighted adjacencies
    of :func:`distillation_matrices`."""
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return HitsResult(converged=True)
    # authority step: sum over p->q of hub[p] * authority_weight * rel[p]
    # hub step: sum over p->q of authority[q] * hub_weight * rel[q]
    authority_matrix, hub_matrix = distillation_matrices(graph, relevance)
    authority, hub, iterations, converged = _iterate(
        hub_matrix, authority_matrix, n, max_iterations, tolerance,
    )
    return _result(nodes, authority, hub, iterations, converged)
