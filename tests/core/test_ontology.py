"""Tests for the topic tree."""

from __future__ import annotations

import pytest

from repro.core.ontology import ROOT, TopicTree
from repro.errors import OntologyError

from tests.conftest import nested_tree


@pytest.fixture()
def paper_tree() -> TopicTree:
    """The example of paper section 2.3: math (algebra, stochastics),
    agriculture, arts."""
    return nested_tree(
        {
            "mathematics": {"algebra": {}, "stochastics": {}},
            "agriculture": {},
            "arts": {},
        }
    )


class TestConstruction:
    def test_from_leaves_single_level(self) -> None:
        tree = TopicTree.from_leaves(["databases", "ir"])
        assert tree.leaves() == ["ROOT/databases", "ROOT/ir"]
        assert len(tree) == 2

    def test_from_nested(self, paper_tree: TopicTree) -> None:
        assert "ROOT/mathematics/algebra" in paper_tree
        assert paper_tree.node("ROOT/mathematics/algebra").depth == 2

    def test_duplicate_topic_rejected(self) -> None:
        tree = TopicTree.from_leaves(["a"])
        with pytest.raises(OntologyError):
            tree.add_topic("a", parent=ROOT)

    def test_same_label_under_different_parents_ok(self) -> None:
        tree = nested_tree({"x": {"sub": {}}, "y": {"sub": {}}})
        assert "ROOT/x/sub" in tree
        assert "ROOT/y/sub" in tree

    def test_unknown_parent_rejected(self) -> None:
        with pytest.raises(OntologyError):
            TopicTree().add_topic("a", parent="ROOT/none")

    def test_slash_in_label_rejected(self) -> None:
        with pytest.raises(OntologyError):
            TopicTree().add_topic("a/b")

    def test_others_label_reserved(self) -> None:
        with pytest.raises(OntologyError):
            TopicTree().add_topic("OTHERS")


class TestStructure:
    def test_every_node_has_others(self, paper_tree: TopicTree) -> None:
        assert paper_tree.others_of(ROOT) == "ROOT/OTHERS"
        assert (
            paper_tree.others_of("ROOT/mathematics")
            == "ROOT/mathematics/OTHERS"
        )
        assert paper_tree.node("ROOT/mathematics/OTHERS").is_others

    def test_competing_topics(self, paper_tree: TopicTree) -> None:
        # a document competes against its topic's siblings
        parent = paper_tree.node("ROOT/mathematics/algebra").parent
        assert set(paper_tree.children_of(parent)) == {
            "ROOT/mathematics/algebra", "ROOT/mathematics/stochastics",
        }

    def test_children_excludes_others(self, paper_tree: TopicTree) -> None:
        children = paper_tree.children_of(ROOT)
        assert all(not c.endswith("/OTHERS") for c in children)
        assert len(children) == 3

    def test_leaves(self, paper_tree: TopicTree) -> None:
        assert paper_tree.leaves() == [
            "ROOT/agriculture",
            "ROOT/arts",
            "ROOT/mathematics/algebra",
            "ROOT/mathematics/stochastics",
        ]

    def test_inner_nodes(self, paper_tree: TopicTree) -> None:
        assert paper_tree.inner_nodes() == ["ROOT", "ROOT/mathematics"]

    def test_path_to_root(self, paper_tree: TopicTree) -> None:
        path = ["ROOT/mathematics/algebra"]
        while (parent := paper_tree.node(path[-1]).parent) is not None:
            path.append(parent)
        assert path == ["ROOT/mathematics/algebra", "ROOT/mathematics", ROOT]

    def test_leaf_label(self, paper_tree: TopicTree) -> None:
        assert paper_tree.leaf_label("ROOT/mathematics/algebra") == "algebra"

    def test_unknown_topic_raises(self, paper_tree: TopicTree) -> None:
        with pytest.raises(OntologyError):
            paper_tree.node("ROOT/nope")

    def test_single_node_tree_special_case(self) -> None:
        """Paper: 'a single-node tree is a special case'."""
        tree = TopicTree.from_leaves(["aries"])
        assert tree.leaves() == ["ROOT/aries"]
        assert tree.children_of(ROOT) == ["ROOT/aries"]
        assert tree.inner_nodes() == ["ROOT"]
