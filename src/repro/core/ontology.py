"""The topic tree (paper section 2, Figure 2).

Topics form a hierarchy rooted at ``ROOT`` ("the union of the user's
topics of interest").  Every inner node additionally carries a virtual
child ``OTHERS`` that absorbs documents rejected by all real children
(paper sections 2.4 and 3.1).  A single-node tree is the special case
used for single-topic portals and expert queries.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable

from repro.errors import OntologyError

__all__ = ["ROOT", "OTHERS_SUFFIX", "TopicNode", "TopicTree"]

ROOT = "ROOT"
OTHERS_SUFFIX = "OTHERS"


@dataclass
class TopicNode:
    """One topic with its position in the tree."""

    name: str
    parent: str | None
    depth: int
    children: list[str] = field(default_factory=list)

    @property
    def is_leaf(self) -> bool:
        return not self.children

    @property
    def is_others(self) -> bool:
        return self.name.endswith("/" + OTHERS_SUFFIX)


class TopicTree:
    """A rooted topic hierarchy with per-parent OTHERS children.

    Topic names are path-like (``ROOT/science/databases``) so the same
    leaf label may appear under different parents without ambiguity.
    Construction is from parent -> children mappings or from flat leaf
    lists (single-level trees).
    """

    def __init__(self) -> None:
        self._nodes: dict[str, TopicNode] = {
            ROOT: TopicNode(name=ROOT, parent=None, depth=0)
        }
        self._ensure_others(ROOT)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_leaves(cls, leaves: Iterable[str]) -> "TopicTree":
        """A single-level tree: every leaf is a child of ROOT."""
        tree = cls()
        for leaf in leaves:
            tree.add_topic(leaf, parent=ROOT)
        return tree

    def add_topic(self, label: str, parent: str = ROOT) -> str:
        """Add a topic under ``parent``; returns the full path-name."""
        if parent not in self._nodes:
            raise OntologyError(f"unknown parent topic {parent!r}")
        if "/" in label:
            raise OntologyError(
                f"topic labels must not contain '/': {label!r}"
            )
        if label == OTHERS_SUFFIX:
            raise OntologyError(f"{OTHERS_SUFFIX!r} is a reserved label")
        parent_node = self._nodes[parent]
        name = f"{parent}/{label}"
        if name in self._nodes:
            raise OntologyError(f"duplicate topic {name!r}")
        self._nodes[name] = TopicNode(
            name=name, parent=parent, depth=parent_node.depth + 1
        )
        parent_node.children.append(name)
        self._ensure_others(parent)
        self._ensure_others(name)
        return name

    def _ensure_others(self, parent: str) -> None:
        """Every node owns a virtual OTHERS child (created lazily)."""
        name = f"{parent}/{OTHERS_SUFFIX}"
        if name not in self._nodes:
            self._nodes[name] = TopicNode(
                name=name, parent=parent,
                depth=self._nodes[parent].depth + 1,
            )

    # -- lookups ----------------------------------------------------------

    def node(self, name: str) -> TopicNode:
        try:
            return self._nodes[name]
        except KeyError:
            raise OntologyError(f"unknown topic {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nodes

    def others_of(self, parent: str) -> str:
        self.node(parent)
        return f"{parent}/{OTHERS_SUFFIX}"

    def children_of(self, parent: str) -> list[str]:
        """Real (non-OTHERS) children of ``parent``."""
        return list(self.node(parent).children)

    def leaves(self) -> list[str]:
        """All real leaf topics (no OTHERS nodes, never ROOT unless empty)."""
        result = [
            node.name
            for node in self._nodes.values()
            if node.is_leaf and not node.is_others and node.name != ROOT
        ]
        return sorted(result)

    def real_topics(self) -> list[str]:
        """All user topics in the tree (no ROOT, no OTHERS)."""
        return sorted(
            node.name
            for node in self._nodes.values()
            if node.name != ROOT and not node.is_others
        )

    def inner_nodes(self) -> list[str]:
        """Nodes with at least one real child (classification happens here)."""
        return sorted(
            node.name for node in self._nodes.values() if node.children
        )

    def leaf_label(self, topic: str) -> str:
        """The last path component (human-readable label)."""
        return topic.rsplit("/", 1)[-1]

    def __len__(self) -> int:
        """Number of real topics (ROOT and OTHERS excluded)."""
        return len(self.real_topics())
