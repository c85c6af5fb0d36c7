"""Parity and lifecycle tests for the compiled classification kernel.

The compiled per-level kernel (:mod:`repro.perf.compiled`) is the only
decision phase in ``src/``; it must agree with the dict-walking oracle
of ``tests/core/reference.py``: identical topic assignments and paths,
confidences within 1e-9 across all five decision-combination modes.
Between its own entry points (one document, a batch of one, a batch of
N) it must agree exactly.
"""

from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BingoEngine
from repro.core.classifier import (
    MODES,
    HierarchicalClassifier,
    TopicDecisionModel,
)
from repro.core.config import BingoConfig
from repro.core.ontology import TopicTree
from repro.errors import TrainingError
from repro.perf.compiled import CompiledClassifier, _SpaceBlock
from repro.text.vectorizer import TfIdfVectorizer

from tests.conftest import nested_tree
from tests.core.conftest import fast_engine_config
from tests.core.reference import (
    classify_reference,
    decide_reference,
    evaluate_many_reference,
    member_decision_reference,
    vectorize_reference,
)

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


def nested_classifier(spaces=("term",), **config):
    """A two-level tree trained over ``spaces``, plus eval docs (each
    holding both of :data:`SPACES`)."""
    tree = nested_tree(
        {"science": {"db": {}, "ml": {}}, "sports": {}}
    )
    config = BingoConfig(selected_features=80, tf_preselection=300, **config)
    classifier = HierarchicalClassifier(tree, config, spaces)
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


@pytest.fixture(scope="module")
def nested_setup():
    return nested_classifier()


@pytest.fixture(scope="module")
def two_space_setup():
    return nested_classifier(SPACES)


class TestKernelParity:
    @pytest.mark.parametrize("mode", MODES)
    def test_classify_matches_reference(self, nested_setup, mode) -> None:
        classifier, eval_docs = nested_setup
        for doc in eval_docs:
            reference = classify_reference(classifier, doc, mode)
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
            reference = classify_reference(classifier, doc, mode)
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
                _pos, reference = decide_reference(
                    model, vectorize_reference(classifier, doc), mode
                )
                assert confidence == pytest.approx(reference, abs=1e-9)


@st.composite
def blocks_and_cohorts(draw):
    """A stacked block of random rows, the vectorizer whose snapshot its
    idf column comes from, and a cohort of term counts scored against
    it: unknown terms, ``tf <= 0``, empty bags and missing (``None``)
    bundles included."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows, width = draw(st.integers(1, 6)), draw(st.integers(1, 30))
    terms = [f"t{j}" for j in range(width + 4)]  # the last 4 unknown

    def spread(*shape):
        return rng.standard_normal(shape) * 10.0 ** rng.integers(-3, 4, shape)

    vectorizer = TfIdfVectorizer()
    for _ in range(int(rng.integers(0, 12))):  # none: every idf is 1.0
        vectorizer.ingest(rng.choice(terms, int(rng.integers(1, 8))))
    vectorizer.refresh()
    vocabulary = {f"t{j}": j for j in range(width)}
    block = _SpaceBlock(
        space="term",
        vocabulary=vocabulary,
        idf=np.array([vectorizer.statistics.idf(f) for f in vocabulary]),
        weights=spread(rows, width),
        membership=(rng.random((rows, width)) < 0.6).astype(float),
        bias=spread(rows),
        inv_weight_norm=rng.random(rows),
        child_rows=np.arange(rows),
        member_rows=np.zeros(rows, dtype=np.intp),
    )
    cohort: list[Counter | None] = []
    for _ in range(draw(st.integers(1, 8))):
        if rng.random() < 0.15:
            cohort.append(None)
            continue
        chosen = rng.permutation(len(terms))[: rng.integers(0, len(terms))]
        cohort.append(Counter({
            terms[j]: int(tf)
            for j, tf in zip(chosen, rng.integers(-2, 9, len(chosen)))
        }))
    return block, vectorizer, cohort


@given(case=blocks_and_cohorts())
@settings(max_examples=200, deadline=None)
def test_evaluate_many_is_its_scipy_formulation(case) -> None:
    """The gather from counts is ``vectorize_counts`` followed by the
    block's CSR gather: the scipy formulation over the whole vectors
    agrees to the last bit."""
    block, vectorizer, cohort = case
    decisions, distances = block.evaluate_many(cohort)
    vectors = [
        None if counts is None else vectorizer.vectorize_counts(counts)
        for counts in cohort
    ]
    expected_decisions, expected_distances = evaluate_many_reference(
        block, vectors
    )
    assert np.array_equal(decisions, expected_decisions)
    assert np.array_equal(distances, expected_distances)


class TestNoVectorOnTheDecisionPath:
    """The kernel weights a page's counts on the features its members
    read: with ``vectorize_counts`` made to raise, every entry point
    still decides as the oracle does over the whole vectors."""

    @staticmethod
    def _forbid_vectors(monkeypatch, classifier) -> None:
        classifier.refresh_idf()  # the kernel compiles under the patch

        def refuse(self, counts):
            raise AssertionError("the decision path vectorized a page")

        monkeypatch.setattr(TfIdfVectorizer, "vectorize_counts", refuse)

    @pytest.mark.parametrize("mode", MODES)
    def test_svm_entry_points_need_no_vector(
        self, two_space_setup, monkeypatch, mode
    ) -> None:
        classifier, eval_docs = two_space_setup
        topics = ("ROOT/science", "ROOT/science/db", "ROOT/sports")
        expected = [classify_reference(classifier, d, mode) for d in eval_docs]
        expected_confidences = {
            topic: [
                decide_reference(
                    classifier.models[topic],
                    vectorize_reference(classifier, doc), mode,
                )[1]
                for doc in eval_docs
            ]
            for topic in topics
        }
        self._forbid_vectors(monkeypatch, classifier)
        batch = classifier.classify_batch(eval_docs, mode)
        for doc, in_batch, reference in zip(eval_docs, batch, expected):
            assert classifier.classify(doc, mode) == in_batch
            assert in_batch.topic == reference.topic
            assert in_batch.confidence == pytest.approx(
                reference.confidence, abs=1e-9
            )
        for topic in topics:
            confidences = classifier.confidence_for_batch(
                eval_docs, topic, mode
            )
            assert confidences == pytest.approx(
                expected_confidences[topic], abs=1e-9
            )

    @pytest.mark.parametrize("mode", ["single", "best"])
    def test_fallback_members_decide_from_counts_bit_for_bit(
        self, monkeypatch, mode
    ) -> None:
        """A Naive Bayes member's score is its own decision, so in the
        modes that consult one member the kernel's confidence is that
        member's decision over the projected full vector, to the bit."""
        classifier, eval_docs = nested_classifier(
            SPACES, node_classifier="naive-bayes"
        )
        assert not any(
            level.blocks for level in classifier._kernel().levels.values()
        )
        expected = [classify_reference(classifier, d, mode) for d in eval_docs]
        expected_confidences = {
            topic: [
                decide_reference(
                    model, vectorize_reference(classifier, doc), mode
                )[1]
                for doc in eval_docs
            ]
            for topic, model in classifier.models.items()
        }
        assert any(
            member_decision_reference(member, vectorize_reference(
                classifier, doc
            )) != 0.0
            for model in classifier.models.values()
            for member in model.members
            for doc in eval_docs
        )
        self._forbid_vectors(monkeypatch, classifier)
        assert classifier.classify_batch(eval_docs, mode) == expected
        for topic, confidences in expected_confidences.items():
            assert classifier.confidence_for_batch(
                eval_docs, topic, mode
            ) == confidences


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
        assert classifier._kernel() is first_kernel  # cached while valid

        training["ROOT/db"] = training["ROOT/db"] + topic_docs(
            _vocab("db"), 5, seed=9
        )
        classifier.train(training)
        assert classifier.model_version == first_version + 1
        second_kernel = classifier._kernel()
        assert second_kernel is not first_kernel
        probe = topic_docs(_vocab("db"), 3, seed=11)
        for doc in probe:
            reference = classify_reference(classifier, doc, "weighted")
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

@pytest.fixture(scope="module")
def crawled_engine(small_web):
    """An engine whose classifier went through several retraining
    points during a real crawl."""
    config = fast_engine_config(retrain_interval=25)
    engine = BingoEngine.for_portal(small_web, config=config)
    engine.run(harvesting_fetch_budget=200)
    return engine


class TestEngineKernelLifecycle:
    def test_kernel_survives_multiple_retraining_points(self, crawled_engine):
        """The engine retrains repeatedly; each retraining point must
        invalidate the compiled snapshot and the recompiled kernel must
        still match the reference path."""
        engine = crawled_engine
        assert engine.retrainings >= 2
        classifier = engine.classifier
        # at least one retraining changed the training set and retrained
        assert classifier.model_version >= 2
        probe_docs = [
            doc.counts for doc in engine.ctx.documents[:25]
        ]
        for mode in MODES:
            for counts in probe_docs:
                reference = classify_reference(classifier, counts, mode)
                compiled = classifier.classify(counts, mode)
                assert compiled.topic == reference.topic
                assert compiled.confidence == pytest.approx(
                    reference.confidence, abs=1e-9
                )


class TestOneDecisionPhase:
    """One document, a batch of one and a batch of N are the same
    descent, so they agree to the last bit -- a page the recrawl
    discovers is stored with the confidence the crawl would have
    given it."""

    @pytest.mark.parametrize("mode", MODES)
    def test_single_equals_batch_exactly(self, crawled_engine, mode) -> None:
        classifier = crawled_engine.classifier
        docs = [doc.counts for doc in crawled_engine.ctx.documents]
        assert len(docs) > 100
        batch = classifier.classify_batch(docs, mode)
        for doc, in_batch in zip(docs, batch):
            single = classifier.classify(doc, mode)
            batch_of_one = classifier.classify_batch([doc], mode)[0]
            assert single == batch_of_one == in_batch

    @pytest.mark.parametrize("mode", MODES)
    def test_confidence_for_equals_batch_exactly(
        self, crawled_engine, mode
    ) -> None:
        classifier = crawled_engine.classifier
        docs = [doc.counts for doc in crawled_engine.ctx.documents]
        for topic in classifier.models:
            batch = classifier.confidence_for_batch(docs, topic, mode)
            assert batch == [
                classifier.confidence_for(doc, topic, mode) for doc in docs
            ]

    def test_removed_paths_stay_gone(self) -> None:
        assert not hasattr(HierarchicalClassifier, "classify_reference")
        assert not hasattr(HierarchicalClassifier, "_vectorize_uncached")
        assert not hasattr(TopicDecisionModel, "decide")
        assert not hasattr(TopicDecisionModel, "best_member")
        assert not hasattr(CompiledClassifier, "classify")
        # no vector is built for the kernel, so none is cached
        assert not hasattr(HierarchicalClassifier, "vectorize_many")
        with pytest.raises(ImportError):
            import repro.perf.cache  # noqa: F401
