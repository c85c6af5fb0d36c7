"""Multi-topic portal generation (the paper's Figure 2 setting).

The engine must keep sibling research topics apart: each topic gets its
own classifier trained against its competitors, and crawled documents
land in the right branch of the tree.
"""

from __future__ import annotations

import pytest

from repro.core import BingoEngine

from tests.core.conftest import fast_engine_config


@pytest.fixture(scope="module")
def multi_topic_run(small_web):
    # Three seeds per topic: with only two, a sibling pair of weak
    # classifiers can starve one branch (an instructive failure the
    # paper's "extremely small training data" remark anticipates).
    engine = BingoEngine.for_portal(
        small_web,
        topics=["databases", "datamining"],
        config=fast_engine_config(learning_fetch_budget=160),
        seed_count=3,
    )
    report = engine.run(harvesting_fetch_budget=600)
    return engine, report


class TestMultiTopicPortal:
    def test_both_topics_seeded_and_trained(self, multi_topic_run) -> None:
        engine, _ = multi_topic_run
        assert set(engine.seeds) == {"ROOT/databases", "ROOT/datamining"}
        assert "ROOT/databases" in engine.classifier.models
        assert "ROOT/datamining" in engine.classifier.models

    def test_both_topics_collect_documents(self, multi_topic_run) -> None:
        engine, _ = multi_topic_run
        databases = engine.ranked_results("ROOT/databases")
        datamining = engine.ranked_results("ROOT/datamining")
        assert len(databases) > 5
        assert len(datamining) > 5

    def test_assignments_match_true_topics(self, multi_topic_run, small_web) -> None:
        """Most accepted documents belong to their assigned topic."""
        engine, _ = multi_topic_run
        correct = total = 0
        for topic_label in ("databases", "datamining"):
            for doc in engine.ranked_results(f"ROOT/{topic_label}"):
                if doc.page_id is None:
                    continue
                total += 1
                if small_web.pages[doc.page_id].topic == topic_label:
                    correct += 1
        assert total > 10
        assert correct / total >= 0.8

    def test_cross_topic_confusion_is_limited(self, multi_topic_run, small_web) -> None:
        """Documents truly of topic A rarely land in topic B."""
        engine, _ = multi_topic_run
        confused = 0
        assigned = 0
        for doc in engine.ctx.documents:
            if doc.page_id is None or doc.topic.endswith("/OTHERS"):
                continue
            true_topic = small_web.pages[doc.page_id].topic
            if true_topic not in ("databases", "datamining"):
                continue
            assigned += 1
            if doc.topic != f"ROOT/{true_topic}":
                confused += 1
        assert assigned > 10
        assert confused / assigned < 0.25

    def test_archetypes_promoted_per_topic(self, multi_topic_run) -> None:
        engine, _ = multi_topic_run
        for topic in ("ROOT/databases", "ROOT/datamining"):
            promoted = [
                r for r in engine.training[topic].values()
                if r.doc_id is not None
            ]
            assert promoted, f"{topic} promoted no archetypes"
