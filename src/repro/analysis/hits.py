"""Kleinberg's HITS algorithm (JACM 1999).

Iteratively approximates the principal eigenvectors of A^T A and A A^T
over the link graph's adjacency matrix A:

    authority(q) = sum over p -> q of hub(p)
    hub(p)       = sum over p -> q of authority(q)

with L2 normalisation per iteration.  The crawler ranks top authorities
as archetype candidates and top hubs as next-to-crawl URLs (section 2.5);
the local search engine reuses the same routine for authority-ranked
result lists (section 3.6).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Hashable

from repro.analysis.graph import LinkGraph

__all__ = ["HitsResult", "hits"]

Node = Hashable


@dataclass
class HitsResult:
    """Authority and hub score maps plus convergence metadata."""

    authority: dict[Node, float] = field(default_factory=dict)
    hub: dict[Node, float] = field(default_factory=dict)
    iterations: int = 0
    converged: bool = False

    def top_authorities(self, k: int) -> list[tuple[Node, float]]:
        return sorted(
            self.authority.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )[:k]

    def top_hubs(self, k: int) -> list[tuple[Node, float]]:
        return sorted(
            self.hub.items(), key=lambda kv: (-kv[1], str(kv[0]))
        )[:k]


def hits(
    graph: LinkGraph,
    max_iterations: int = 50,
    tolerance: float = 1e-8,
) -> HitsResult:
    """Run HITS to convergence (or ``max_iterations``) on ``graph``.

    Delegates to the CSR matvec kernel (:mod:`repro.perf.csr_hits`);
    ``tests/analysis/reference.py`` keeps the per-node dict formulation
    of the recurrence above, which the kernel is parity-tested against.
    """
    # imported lazily: repro.perf.csr_hits imports HitsResult from here
    from repro.perf.csr_hits import hits_csr

    return hits_csr(graph, max_iterations=max_iterations,
                    tolerance=tolerance)
