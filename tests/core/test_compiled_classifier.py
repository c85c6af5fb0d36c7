"""Parity and lifecycle tests for the compiled classification kernel.

The compiled per-level kernel (:mod:`repro.perf.compiled`) must be an
exact drop-in for the reference dict-walking decision phase: identical
topic assignments, paths, and confidences within 1e-9 across all five
decision-combination modes, including the batch entry points.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest

from repro.core import BingoEngine
from repro.core.classifier import HierarchicalClassifier
from repro.core.config import BingoConfig
from repro.core.ontology import TopicTree
from repro.errors import TrainingError

from tests.core.conftest import fast_engine_config

MODES = ("single", "unanimous", "majority", "weighted", "best")
SPACES = ("term", "pair")


def topic_docs(vocab, n, seed, spaces=SPACES):
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n):
        words: dict[str, int] = {}
        for _ in range(25):
            term = vocab[int(rng.integers(len(vocab)))]
            words[term] = words.get(term, 0) + 1
        docs.append({space: Counter(words) for space in spaces})
    return docs


def _vocab(prefix: str) -> list[str]:
    return [f"{prefix}_w{i}" for i in range(30)] + [
        f"shared{i}" for i in range(12)
    ]


@pytest.fixture(scope="module")
def nested_setup():
    """A two-level tree trained over two feature spaces, plus eval docs."""
    tree = TopicTree.from_nested(
        {"science": {"db": {}, "ml": {}}, "sports": {}}
    )
    config = BingoConfig(selected_features=80, tf_preselection=300)
    classifier = HierarchicalClassifier(tree, config)
    vocabs = {
        "ROOT/science": _vocab("sci"),
        "ROOT/science/db": _vocab("db"),
        "ROOT/science/ml": _vocab("ml"),
        "ROOT/sports": _vocab("sp"),
    }
    training = {
        topic: topic_docs(vocab, 18, seed=i + 1)
        for i, (topic, vocab) in enumerate(vocabs.items())
    }
    training["ROOT/OTHERS"] = topic_docs(_vocab("bg"), 18, seed=77)
    training["ROOT/science/OTHERS"] = topic_docs(_vocab("scibg"), 18, seed=78)
    for docs in training.values():
        for doc in docs:
            classifier.ingest(doc)
    classifier.train(training)
    eval_docs = []
    for i, vocab in enumerate(vocabs.values()):
        eval_docs.extend(topic_docs(vocab, 15, seed=100 + i))
    eval_docs.extend(topic_docs(_vocab("bg"), 10, seed=200))
    # a document whose terms hit no trained vocabulary at all
    eval_docs.append({space: Counter({"zzz": 3}) for space in SPACES})
    # a document missing one feature space entirely
    eval_docs.append({"term": Counter({"db_w1": 2, "db_w2": 1})})
    return classifier, eval_docs


class TestKernelParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_classify_matches_reference(self, nested_setup, mode) -> None:
        classifier, eval_docs = nested_setup
        for doc in eval_docs:
            reference = classifier.classify_reference(doc, mode)
            compiled = classifier.classify(doc, mode)
            assert compiled.topic == reference.topic
            assert compiled.confidence == pytest.approx(
                reference.confidence, abs=1e-9
            )
            assert len(compiled.path) == len(reference.path)
            for (ct, cc), (rt, rc) in zip(compiled.path, reference.path):
                assert ct == rt
                assert cc == pytest.approx(rc, abs=1e-9)

    @pytest.mark.parametrize("mode", MODES)
    def test_classify_batch_matches_reference(self, nested_setup, mode) -> None:
        classifier, eval_docs = nested_setup
        batch = classifier.classify_batch(eval_docs, mode)
        for doc, result in zip(eval_docs, batch):
            reference = classifier.classify_reference(doc, mode)
            assert result.topic == reference.topic
            assert result.confidence == pytest.approx(
                reference.confidence, abs=1e-9
            )

    @pytest.mark.parametrize("mode", MODES)
    def test_confidence_for_batch_matches_decide(self, nested_setup, mode):
        classifier, eval_docs = nested_setup
        for topic in ("ROOT/science", "ROOT/science/db", "ROOT/sports"):
            confidences = classifier.confidence_for_batch(
                eval_docs, topic, mode
            )
            model = classifier.models[topic]
            for doc, confidence in zip(eval_docs, confidences):
                _pos, reference = model.decide(
                    classifier.vectorize(doc), mode
                )
                assert confidence == pytest.approx(reference, abs=1e-9)


class TestKernelLifecycle:
    def test_kernel_recompiles_after_retrain(self) -> None:
        tree = TopicTree.from_leaves(["db", "sports"])
        config = BingoConfig(selected_features=50, tf_preselection=150)
        classifier = HierarchicalClassifier(tree, config)
        training = {
            "ROOT/db": topic_docs(_vocab("db"), 15, seed=1),
            "ROOT/sports": topic_docs(_vocab("sp"), 15, seed=2),
            "ROOT/OTHERS": topic_docs(_vocab("bg"), 15, seed=3),
        }
        for docs in training.values():
            for doc in docs:
                classifier.ingest(doc)
        classifier.train(training)
        first_version = classifier.model_version
        first_kernel = classifier._kernel()
        assert first_kernel.model_version == first_version
        assert classifier._kernel() is first_kernel  # cached while valid

        training["ROOT/db"] = training["ROOT/db"] + topic_docs(
            _vocab("db"), 5, seed=9
        )
        classifier.train(training)
        assert classifier.model_version == first_version + 1
        second_kernel = classifier._kernel()
        assert second_kernel is not first_kernel
        assert second_kernel.model_version == classifier.model_version
        probe = topic_docs(_vocab("db"), 3, seed=11)
        for doc in probe:
            reference = classifier.classify_reference(doc, "weighted")
            compiled = classifier.classify(doc, "weighted")
            assert compiled.topic == reference.topic
            assert compiled.confidence == pytest.approx(
                reference.confidence, abs=1e-9
            )

    def test_only_an_untrained_classifier_has_no_kernel(self) -> None:
        tree = TopicTree.from_leaves(["db", "sports"])
        classifier = HierarchicalClassifier(tree, BingoConfig())
        with pytest.raises(TrainingError):
            classifier._kernel()
        # the switch that used to force the reference path stays gone
        assert "use_compiled_kernels" not in BingoConfig.__dataclass_fields__
        with pytest.raises(TypeError):
            BingoConfig(use_compiled_kernels=False)

    def test_vector_cache_hits_and_snapshot_invalidation(self) -> None:
        tree = TopicTree.from_leaves(["db"])
        config = BingoConfig(selected_features=50, tf_preselection=150)
        classifier = HierarchicalClassifier(tree, config)
        training = {
            "ROOT/db": topic_docs(_vocab("db"), 15, seed=1),
            "ROOT/OTHERS": topic_docs(_vocab("bg"), 15, seed=3),
        }
        for docs in training.values():
            for doc in docs:
                classifier.ingest(doc)
        classifier.train(training)
        doc = topic_docs(_vocab("db"), 1, seed=5)[0]
        cache = classifier._vector_cache
        classifier.classify(doc)
        misses = cache.misses
        classifier.classify(doc)
        classifier.classify(doc)
        assert cache.misses == misses  # repeat docs served from cache
        assert cache.hits >= 2
        # a new idf snapshot changes the key and invalidates the entry
        classifier.refresh_idf()
        classifier.classify(doc)
        assert cache.misses == misses + 1

    def test_zero_cache_size_disables_caching(self) -> None:
        tree = TopicTree.from_leaves(["db"])
        config = BingoConfig(
            selected_features=50, tf_preselection=150, vector_cache_size=0
        )
        classifier = HierarchicalClassifier(tree, config)
        training = {
            "ROOT/db": topic_docs(_vocab("db"), 10, seed=1),
            "ROOT/OTHERS": topic_docs(_vocab("bg"), 10, seed=3),
        }
        for docs in training.values():
            for doc in docs:
                classifier.ingest(doc)
        classifier.train(training)
        doc = topic_docs(_vocab("db"), 1, seed=5)[0]
        classifier.classify(doc)
        classifier.classify(doc)
        assert len(classifier._vector_cache) == 0
        assert classifier._vector_cache.hits == 0


class TestEngineKernelLifecycle:
    def test_kernel_survives_multiple_retraining_points(self, small_web):
        """The engine retrains repeatedly; each retraining point must
        invalidate the compiled snapshot and the recompiled kernel must
        still match the reference path."""
        config = fast_engine_config(retrain_interval=25)
        engine = BingoEngine.for_portal(small_web, config=config)
        engine.run(harvesting_fetch_budget=200)
        assert engine.retrainings >= 2
        classifier = engine.classifier
        # at least one retraining changed the training set and retrained
        assert classifier.model_version >= 2
        kernel = classifier._kernel()
        assert kernel.model_version == classifier.model_version
        probe_docs = [
            doc.counts for doc in engine.ctx.documents[:25]
        ]
        for mode in MODES:
            for counts in probe_docs:
                reference = classifier.classify_reference(counts, mode)
                compiled = classifier.classify(counts, mode)
                assert compiled.topic == reference.topic
                assert compiled.confidence == pytest.approx(
                    reference.confidence, abs=1e-9
                )
