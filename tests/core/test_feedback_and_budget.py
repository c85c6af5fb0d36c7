"""Tests for xi-alpha feature-budget selection."""

from __future__ import annotations

from collections import Counter

from repro.core.classifier import HierarchicalClassifier
from repro.core.config import BingoConfig
from repro.core.ontology import TopicTree


class TestAdaptiveFeatureBudget:
    def make_training(self):
        import numpy as np

        rng = np.random.default_rng(3)
        vocab = [f"t{i}" for i in range(40)]
        noise = [f"n{i}" for i in range(40)]

        def docs(words, n):
            out = []
            for _ in range(n):
                counts = Counter()
                for _ in range(12):
                    counts[words[int(rng.integers(len(words)))]] += 1
                out.append({"term": counts})
            return out

        return {
            "ROOT/topic": docs(vocab, 20),
            "ROOT/OTHERS": docs(noise, 20),
        }

    def test_budget_candidates_chosen_by_xialpha(self) -> None:
        tree = TopicTree.from_leaves(["topic"])
        config = BingoConfig(
            tf_preselection=500,
            selected_features=100,
            feature_budget_candidates=(5, 40, 100),
        )
        classifier = HierarchicalClassifier(tree, config)
        training = self.make_training()
        for docs in training.values():
            for doc in docs:
                classifier.ingest(doc)
        classifier.train(training)
        member = classifier.models["ROOT/topic"].members[0]
        assert member.feature_budget in (5, 40, 100)
        assert len(member.features) <= member.feature_budget

    def test_fixed_budget_used_when_no_candidates(self) -> None:
        tree = TopicTree.from_leaves(["topic"])
        config = BingoConfig(tf_preselection=500, selected_features=30)
        classifier = HierarchicalClassifier(tree, config)
        training = self.make_training()
        for docs in training.values():
            for doc in docs:
                classifier.ingest(doc)
        classifier.train(training)
        member = classifier.models["ROOT/topic"].members[0]
        assert member.feature_budget == 30
