"""Tests for the hierarchical topic classifier."""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core.classifier import HierarchicalClassifier
from repro.core.config import BingoConfig
from repro.core.ontology import TopicTree
from repro.errors import TrainingError

from tests.conftest import nested_tree


def doc(words: dict[str, int], space: str = "term") -> dict[str, Counter]:
    return {space: Counter(words)}


def topic_docs(vocab: list[str], n: int, seed: int, extra=None):
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n):
        words: dict[str, int] = {}
        for _ in range(10):
            term = vocab[int(rng.integers(len(vocab)))]
            words[term] = words.get(term, 0) + 1
        if extra:
            for term in extra:
                words[term] = words.get(term, 0) + 1
        docs.append(doc(words))
    return docs


@pytest.fixture(scope="module")
def flat_setup():
    """Two sibling topics + OTHERS, trained."""
    tree = TopicTree.from_leaves(["db", "sports"])
    config = BingoConfig(selected_features=50, tf_preselection=100)
    classifier = HierarchicalClassifier(tree, config)
    db_vocab = [f"db{i}" for i in range(15)]
    sports_vocab = [f"sp{i}" for i in range(15)]
    noise_vocab = [f"bg{i}" for i in range(15)]
    training = {
        "ROOT/db": topic_docs(db_vocab, 20, seed=1),
        "ROOT/sports": topic_docs(sports_vocab, 20, seed=2),
        "ROOT/OTHERS": topic_docs(noise_vocab, 20, seed=3),
    }
    for docs in training.values():
        for d in docs:
            classifier.ingest(d)
    classifier.train(training)
    return classifier, db_vocab, sports_vocab, noise_vocab


class TestFlatClassification:
    def test_on_topic_documents_accepted(self, flat_setup) -> None:
        classifier, db_vocab, _, _ = flat_setup
        result = classifier.classify(doc({t: 2 for t in db_vocab[:8]}))
        assert result.topic == "ROOT/db"
        assert result.accepted
        assert result.confidence > 0

    def test_sibling_separation(self, flat_setup) -> None:
        classifier, _, sports_vocab, _ = flat_setup
        result = classifier.classify(doc({t: 2 for t in sports_vocab[:8]}))
        assert result.topic == "ROOT/sports"

    def test_background_lands_in_others(self, flat_setup) -> None:
        classifier, _, _, noise_vocab = flat_setup
        result = classifier.classify(doc({t: 2 for t in noise_vocab[:8]}))
        assert result.topic == "ROOT/OTHERS"
        assert not result.accepted

    def test_path_records_descent(self, flat_setup) -> None:
        classifier, db_vocab, _, _ = flat_setup
        result = classifier.classify(doc({t: 2 for t in db_vocab[:8]}))
        assert result.path == (("ROOT/db", result.confidence),)

    def test_confidence_for_topic(self, flat_setup) -> None:
        classifier, db_vocab, sports_vocab, _ = flat_setup
        on = classifier.confidence_for(doc({t: 2 for t in db_vocab[:8]}), "ROOT/db")
        off = classifier.confidence_for(
            doc({t: 2 for t in sports_vocab[:8]}), "ROOT/db"
        )
        assert on > off

    def test_confidence_for_unknown_topic_raises(self, flat_setup) -> None:
        classifier = flat_setup[0]
        with pytest.raises(TrainingError):
            classifier.confidence_for(doc({"x": 1}), "ROOT/none")

    def test_estimates_available(self, flat_setup) -> None:
        classifier = flat_setup[0]
        assert set(classifier.models) == {"ROOT/db", "ROOT/sports"}
        for model in classifier.models.values():
            for member in model.members:
                assert member.space == "term"
                assert 0.0 <= member.estimate.precision <= 1.0

    def test_untrained_classifier_raises(self) -> None:
        tree = TopicTree.from_leaves(["a"])
        classifier = HierarchicalClassifier(tree)
        with pytest.raises(TrainingError):
            classifier.classify(doc({"x": 1}))

    def test_modes_all_work(self, flat_setup) -> None:
        classifier, db_vocab, _, _ = flat_setup
        d = doc({t: 2 for t in db_vocab[:8]})
        for mode in ("single", "unanimous", "majority", "weighted", "best"):
            result = classifier.classify(d, mode=mode)
            assert result.topic == "ROOT/db"

    def test_unknown_mode_rejected(self, flat_setup) -> None:
        classifier, db_vocab, _, _ = flat_setup
        with pytest.raises(TrainingError):
            classifier.classify(doc({"x": 1}), mode="nope")


class TestHierarchy:
    def test_two_level_descent(self) -> None:
        tree = nested_tree({"math": {"algebra": {}, "stochastics": {}}})
        config = BingoConfig(selected_features=50, tf_preselection=100)
        classifier = HierarchicalClassifier(tree, config)
        algebra = topic_docs(
            ["group", "ring", "ideal", "morphism"], 15, seed=4,
            extra=["theorem", "proof"],
        )
        stochastics = topic_docs(
            ["probability", "variance", "martingale", "markov"], 15, seed=5,
            extra=["theorem", "proof"],
        )
        others = topic_docs(["cooking", "travel", "hotel", "sports"], 15, seed=6)
        training = {
            "ROOT/math/algebra": algebra,
            "ROOT/math/stochastics": stochastics,
            "ROOT/OTHERS": others,
            "ROOT/math/OTHERS": others,
        }
        for docs in training.values():
            for d in docs:
                classifier.ingest(d)
        classifier.train(training)

        result = classifier.classify(
            doc({"group": 3, "ideal": 2, "theorem": 1})
        )
        assert result.topic == "ROOT/math/algebra"
        assert len(result.path) == 2  # math, then algebra

        off = classifier.classify(doc({"cooking": 3, "hotel": 2}))
        assert off.topic.endswith("/OTHERS")

    def test_rejection_at_second_level(self) -> None:
        """A document that is math but neither algebra nor stochastics
        lands in math/OTHERS."""
        tree = nested_tree({"math": {"algebra": {}, "stochastics": {}}})
        config = BingoConfig(selected_features=50, tf_preselection=100)
        classifier = HierarchicalClassifier(tree, config)
        algebra = topic_docs(["group", "ring"], 15, seed=7, extra=["theorem"])
        stochastics = topic_docs(
            ["probability", "variance"], 15, seed=8, extra=["theorem"]
        )
        others = topic_docs(["cooking", "travel"], 15, seed=9)
        training = {
            "ROOT/math/algebra": algebra,
            "ROOT/math/stochastics": stochastics,
            "ROOT/OTHERS": others,
            "ROOT/math/OTHERS": others,
        }
        for docs in training.values():
            for d in docs:
                classifier.ingest(d)
        classifier.train(training)
        # strongly 'theorem' (math) but no subtopic vocabulary at all
        result = classifier.classify(doc({"theorem": 6}))
        if result.topic != "ROOT/OTHERS":  # reached the math level
            assert result.topic in (
                "ROOT/math/OTHERS",
                "ROOT/math/algebra",
                "ROOT/math/stochastics",
            )


class TestMultipleSpaces:
    def test_anchor_space_member_trained(self) -> None:
        tree = TopicTree.from_leaves(["db"])
        config = BingoConfig(selected_features=30, tf_preselection=60)
        classifier = HierarchicalClassifier(
            tree, config, spaces=("term", "anchor")
        )
        positive = [
            {"term": Counter({"database": 3, "query": 2}),
             "anchor": Counter({"database": 1})}
            for _ in range(10)
        ]
        negative = [
            {"term": Counter({"football": 3, "goal": 2}),
             "anchor": Counter({"sport": 1})}
            for _ in range(10)
        ]
        training = {"ROOT/db": positive, "ROOT/OTHERS": negative}
        for docs in training.values():
            for d in docs:
                classifier.ingest(d)
        classifier.train(training)
        model = classifier.models["ROOT/db"]
        assert [m.space for m in model.members] == ["term", "anchor"]
        result = classifier.classify(positive[0], mode="unanimous")
        assert result.topic == "ROOT/db"


class TestTrainingVectors:
    def test_weighted_in_place_equals_vectorize_then_project(self) -> None:
        """``_train_topic`` weights only the selected features; the SVM
        must be fed what ``vectorize_counts(counts).project(features)``
        built -- item for item, order included, because the column
        order of the fit (and so every confidence) follows it."""
        from repro.core.feature_selection import TermCounts, select_features

        tree = TopicTree.from_leaves(["db"])
        config = BingoConfig(
            tf_preselection=100, feature_budget_candidates=(6, 14)
        )
        classifier = HierarchicalClassifier(tree, config)
        vocab = [f"db{i}" for i in range(15)]
        positives = topic_docs(vocab, 12, seed=1, extra=["bg0"])
        positives[0]["term"]["db3"] = 0  # a zero count carries no weight
        negatives = topic_docs([f"bg{i}" for i in range(15)], 9, seed=2)
        for d in positives + negatives:
            classifier.ingest(d)
        classifier.refresh_idf()
        fed = []
        fit = classifier._fit_node_model
        classifier._fit_node_model = lambda vectors, labels: (
            fed.append(vectors) or fit(vectors, labels)
        )
        counts = [d["term"] for d in positives + negatives]
        classifier._train_topic(
            "ROOT/db", positives, negatives,
            {"term": (TermCounts(counts[:12]), [TermCounts(counts[12:])])},
        )

        ranked = select_features(
            {"ROOT/db": counts[:12], "__rest__": counts[12:]}, "ROOT/db",
            tf_preselection=100, selected_features=14,
        )
        vectorizer = classifier.vectorizers["term"]
        assert len(fed) == 2
        for budget, vectors in zip((6, 14), fed):
            keep = {score.feature for score in ranked[:budget]}
            expected = [
                vectorizer.vectorize_counts(c).project(keep) for c in counts
            ]
            assert [list(v) for v in vectors] == [list(v) for v in expected]
            assert any(len(v) < len(c) for v, c in zip(vectors, counts))
