"""HITS and Bharat/Henzinger distillation as CSR matvec iterations.

A dict formulation (kept as the oracle in ``tests/analysis/
reference.py``) walks Python dicts once per node per iteration; on the
10k-node base sets the crawler builds at retraining points that
dominates the retraining step.  Here the
:class:`~repro.analysis.graph.LinkGraph` is converted once to
int-indexed :class:`~repro.ml.common.CsrRows` and each HITS iteration
becomes two ``bincount`` matvecs with L2 normalisation:

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

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.analysis.hits import HitsResult
from repro.ml.common import CsrRows

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.analysis.graph import LinkGraph

__all__ = ["CsrAdjacency", "hits_csr", "bharat_henzinger_csr"]


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
    def from_graph(
        cls, graph: "LinkGraph", weight_of=None
    ) -> "CsrAdjacency":
        """Build the adjacency; ``weight_of(source, target)`` defaults
        to 1.0 (unweighted HITS)."""
        nodes = graph.nodes
        index = graph.node_index()
        indptr = [0]
        indices: list[int] = []
        data: list[float] = []
        for node in nodes:
            for target in graph.successors.get(node, ()):
                indices.append(index[target])
                data.append(
                    1.0 if weight_of is None else weight_of(node, target)
                )
            indptr.append(len(indices))
        n = len(nodes)
        matrix = CsrRows(
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.intp),
            np.asarray(indptr, dtype=np.intp),
            (n, n),
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


def bharat_henzinger_csr(
    graph: "LinkGraph",
    authority_weight,
    hub_weight,
    relevance: dict,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> HitsResult:
    """Host- and relevance-weighted HITS over weighted CSR adjacency.

    ``authority_weight``/``hub_weight`` are the per-edge maps computed
    by ``repro.analysis.distillation._edge_weights``; ``relevance`` maps
    every node to its [0, 1] weight.
    """
    nodes = graph.nodes
    n = len(nodes)
    if n == 0:
        return HitsResult(converged=True)
    # authority step: sum over p->q of hub[p] * authority_weight * rel[p]
    authority_adjacency = CsrAdjacency.from_graph(
        graph,
        weight_of=lambda p, q: authority_weight[(p, q)] * relevance[p],
    )
    # hub step: sum over p->q of authority[q] * hub_weight * rel[q]
    hub_adjacency = CsrAdjacency.from_graph(
        graph,
        weight_of=lambda p, q: hub_weight[(p, q)] * relevance[q],
    )
    authority, hub, iterations, converged = _iterate(
        hub_adjacency.matrix, authority_adjacency.matrix, n,
        max_iterations, tolerance,
    )
    return _result(nodes, authority, hub, iterations, converged)
