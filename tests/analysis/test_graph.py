"""Tests for the link graph."""

from __future__ import annotations

from repro.analysis.graph import LinkGraph


class TestLinkGraph:
    def test_add_edge_maintains_both_directions(self) -> None:
        graph = LinkGraph()
        graph.add_edge("a", "b")
        assert graph.successors["a"] == {"b"}
        assert graph.predecessors["b"] == {"a"}
        assert graph.predecessors["a"] == set()

    def test_self_links_ignored(self) -> None:
        graph = LinkGraph()
        graph.add_edge("a", "a")
        assert graph.successors == {}

    def test_duplicate_edges_collapse(self) -> None:
        graph = LinkGraph()
        graph.add_edge("a", "b")
        graph.add_edge("a", "b")
        assert graph.successors == {"a": {"b"}, "b": set()}

    def test_host_labels(self) -> None:
        graph = LinkGraph()
        graph.add_node("a", host="h1")
        graph.add_edge("a", "b")
        assert graph.host_of("a") == "h1"
        assert graph.host_of("b") == "b"  # falls back to node id
