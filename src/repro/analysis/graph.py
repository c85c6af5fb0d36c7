"""The hyperlink graph view used by link analysis.

A :class:`LinkGraph` is a small directed graph over opaque hashable node
ids (the crawler uses document ids), with an optional host attribute per
node -- the Bharat/Henzinger variant weights edges by host to defeat
"mutually reinforcing relationships between hosts".
"""

from __future__ import annotations

from collections.abc import Hashable
from dataclasses import dataclass, field

__all__ = ["LinkGraph"]

Node = Hashable


@dataclass
class LinkGraph:
    """Directed graph with per-node host labels."""

    successors: dict[Node, set[Node]] = field(default_factory=dict)
    predecessors: dict[Node, set[Node]] = field(default_factory=dict)
    hosts: dict[Node, str] = field(default_factory=dict)

    def add_node(self, node: Node, host: str | None = None) -> None:
        self.successors.setdefault(node, set())
        self.predecessors.setdefault(node, set())
        if host is not None:
            self.hosts[node] = host

    def add_edge(self, source: Node, target: Node) -> None:
        if source == target:
            return  # self-links carry no endorsement
        self.add_node(source)
        self.add_node(target)
        self.successors[source].add(target)
        self.predecessors[target].add(source)

    @property
    def nodes(self) -> list[Node]:
        return list(self.successors)

    def node_index(self) -> dict[Node, int]:
        """Stable node -> dense int index (insertion order); the CSR
        kernels in :mod:`repro.perf.csr_hits` index rows this way."""
        return {node: i for i, node in enumerate(self.successors)}

    def __len__(self) -> int:
        return len(self.successors)

    def host_of(self, node: Node) -> str:
        return self.hosts.get(node, str(node))
