"""Portal generation over a *nested* topic tree (paper Figure 2).

The engine is handed a two-level ontology -- research/{databases,
datamining} -- so classification descends ROOT -> research -> leaf.  The
inner "research" model trains on the union of its children's documents
(handled by the classifier's subtree gathering).
"""

from __future__ import annotations

import pytest

from repro.core import BingoEngine

from tests.conftest import nested_tree
from tests.core.conftest import fast_engine_config


@pytest.fixture(scope="module")
def nested_run(small_web):
    tree = nested_tree(
        {"research": {"databases": {}, "datamining": {}}}
    )
    seeds = {
        "ROOT/research/databases": small_web.seed_homepages(
            3, topic="databases"
        ),
        "ROOT/research/datamining": small_web.seed_homepages(
            3, topic="datamining"
        ),
    }
    engine = BingoEngine(
        small_web, tree, seeds,
        config=fast_engine_config(learning_fetch_budget=160),
    )
    report = engine.run(harvesting_fetch_budget=500)
    return engine, report


class TestNestedPortal:
    def test_models_exist_at_both_levels(self, nested_run) -> None:
        engine, _ = nested_run
        assert "ROOT/research" in engine.classifier.models
        assert "ROOT/research/databases" in engine.classifier.models
        assert "ROOT/research/datamining" in engine.classifier.models

    def test_documents_descend_to_leaves(self, nested_run) -> None:
        engine, _ = nested_run
        leaf_docs = [
            doc for doc in engine.ctx.documents
            if doc.topic in (
                "ROOT/research/databases", "ROOT/research/datamining",
            )
        ]
        assert len(leaf_docs) > 10

    def test_mid_level_others_catches_oddballs(self, nested_run) -> None:
        """Research-y documents fitting neither leaf land in
        research/OTHERS; true background lands in ROOT/OTHERS."""
        engine, _ = nested_run
        topics = {doc.topic for doc in engine.ctx.documents}
        assert "ROOT/OTHERS" in topics

    def test_classification_paths_record_descent(self, nested_run) -> None:
        """Every accepted step in a result path is a child of the
        previous one (structural invariant of top-down descent)."""
        engine, _ = nested_run
        checked = 0
        for doc in engine.ctx.documents[:80]:
            result = engine.classifier.classify(doc.counts)
            previous = "ROOT"
            for node, confidence in result.path:
                assert node.startswith(previous + "/")
                assert confidence > 0 or confidence == result.path[-1][1]
                previous = node
            if len(result.path) == 2:
                checked += 1
        assert checked > 0, "some documents descend two levels"

    def test_leaf_assignments_mostly_correct(self, nested_run, small_web) -> None:
        engine, _ = nested_run
        correct = total = 0
        for label in ("databases", "datamining"):
            for doc in engine.ctx.documents:
                if doc.topic != f"ROOT/research/{label}":
                    continue
                if doc.page_id is None:
                    continue
                total += 1
                if small_web.pages[doc.page_id].topic == label:
                    correct += 1
        assert total > 10
        assert correct / total >= 0.75
