"""Tests for the Maximum Entropy (logistic regression) classifier."""

from __future__ import annotations

import math

import pytest

from repro.errors import TrainingError
from repro.ml.maxent import MaxEntClassifier
from repro.text.vectorizer import SparseVector

from tests.ml.conftest import make_two_class_data


class TestMaxEnt:
    def test_separates_synthetic_topics(self) -> None:
        vectors, labels = make_two_class_data(seed=1)
        model = MaxEntClassifier().fit(vectors, labels)
        correct = sum(
            model.predict(v) == label for v, label in zip(vectors, labels)
        )
        assert correct / len(labels) >= 0.95

    def test_generalises(self) -> None:
        vectors, labels = make_two_class_data(seed=1)
        test_vectors, test_labels = make_two_class_data(seed=2)
        model = MaxEntClassifier().fit(vectors, labels)
        correct = sum(
            model.predict(v) == label
            for v, label in zip(test_vectors, test_labels)
        )
        assert correct / len(test_labels) >= 0.85

    def test_probability_is_calibrated_sigmoid(self) -> None:
        vectors, labels = make_two_class_data(seed=3)
        model = MaxEntClassifier().fit(vectors, labels)
        strong_pos = SparseVector({f"pos{i}": 3.0 for i in range(8)})
        strong_neg = SparseVector({f"neg{i}": 3.0 for i in range(8)})
        # p(positive | v) is the logistic of the decision value
        def probability(v) -> float:
            return 1.0 / (1.0 + math.exp(-model.decision(v)))

        assert probability(strong_pos) > 0.8
        assert probability(strong_neg) < 0.2
        for v in vectors[:5]:
            p = probability(v)
            assert 0.0 <= p <= 1.0
            assert (p > 0.5) == (model.predict(v) == 1)

    def test_regularization_shrinks_weights(self) -> None:
        vectors, labels = make_two_class_data(seed=4)
        loose = MaxEntClassifier(regularization=0.01).fit(vectors, labels)
        tight = MaxEntClassifier(regularization=50.0).fit(vectors, labels)
        import numpy as np

        assert np.linalg.norm(tight._weights) < np.linalg.norm(loose._weights)

    def test_decision_before_fit_raises(self) -> None:
        with pytest.raises(TrainingError):
            MaxEntClassifier().decision(SparseVector({"a": 1.0}))

    def test_invalid_regularization(self) -> None:
        with pytest.raises(TrainingError):
            MaxEntClassifier(regularization=-1.0)

    def test_single_class_rejected(self) -> None:
        v = SparseVector({"a": 1.0})
        with pytest.raises(TrainingError):
            MaxEntClassifier().fit([v, v], [1, 1])

    def test_unseen_features_ignored(self) -> None:
        vectors, labels = make_two_class_data(seed=5)
        model = MaxEntClassifier().fit(vectors, labels)
        empty = SparseVector({})
        unseen = SparseVector({"zzz": 4.0})
        assert model.decision(unseen) == pytest.approx(model.decision(empty))

    def test_deterministic(self) -> None:
        vectors, labels = make_two_class_data(seed=6)
        a = MaxEntClassifier().fit(vectors, labels)
        b = MaxEntClassifier().fit(vectors, labels)
        probe = vectors[7]
        assert a.decision(probe) == pytest.approx(b.decision(probe))
