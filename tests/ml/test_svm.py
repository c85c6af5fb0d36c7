"""Tests for the from-scratch linear SVM."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.errors import TrainingError
from repro.ml.svm import LinearSVM
from repro.text.vectorizer import SparseVector

from tests.ml.conftest import make_two_class_data


def test_separable_problem_is_separated() -> None:
    vectors = [
        SparseVector({"a": 1.0}),
        SparseVector({"a": 2.0}),
        SparseVector({"b": 1.0}),
        SparseVector({"b": 2.0}),
    ]
    labels = [1, 1, -1, -1]
    svm = LinearSVM(C=10.0).fit(vectors, labels)
    for vector, label in zip(vectors, labels):
        assert svm.predict(vector) == label


def test_training_accuracy_on_synthetic_topics(two_class_data) -> None:
    vectors, labels = two_class_data
    svm = LinearSVM().fit(vectors, labels)
    correct = sum(
        svm.predict(v) == label for v, label in zip(vectors, labels)
    )
    assert correct / len(labels) >= 0.95


def test_generalisation_to_held_out(two_class_data, held_out_data) -> None:
    vectors, labels = two_class_data
    test_vectors, test_labels = held_out_data
    svm = LinearSVM().fit(vectors, labels)
    correct = sum(
        svm.predict(v) == label
        for v, label in zip(test_vectors, test_labels)
    )
    assert correct / len(test_labels) >= 0.85


def test_decision_sign_matches_predict(two_class_data) -> None:
    vectors, labels = two_class_data
    svm = LinearSVM().fit(vectors, labels)
    for vector in vectors[:10]:
        assert (svm.decision(vector) > 0) == (svm.predict(vector) == 1)


def test_distance_is_scaled_decision(two_class_data) -> None:
    """The kernel's confidence is ``decision / ||w||`` (paper 2.4), with
    the ``||w||`` ``export_linear`` hands it: the bias weight included."""
    vectors, labels = two_class_data
    svm = LinearSVM().fit(vectors, labels)
    weights, bias, norm = svm.export_linear()
    assert norm == pytest.approx(
        math.sqrt(sum(w * w for w in weights.values()) + bias * bias),
        rel=1e-9,
    )


def test_confident_examples_are_farther(two_class_data) -> None:
    """A strongly positive document lies farther from the hyperplane
    (the distance is the decision over the constant ``||w||``)."""
    vectors, labels = two_class_data
    svm = LinearSVM().fit(vectors, labels)
    weak = SparseVector({"pos0": 0.5})
    strong = SparseVector({f"pos{i}": 3.0 for i in range(10)})
    assert svm.decision(strong) > svm.decision(weak) > 0


def test_dual_feasibility(two_class_data) -> None:
    vectors, labels = two_class_data
    svm = LinearSVM(C=1.0).fit(vectors, labels)
    assert svm.alphas_ is not None
    assert np.all(svm.alphas_ >= -1e-12)
    assert np.all(svm.alphas_ <= svm.C + 1e-12)


def test_slacks_nonnegative_and_zero_for_big_margin(two_class_data) -> None:
    vectors, labels = two_class_data
    svm = LinearSVM(C=10.0).fit(vectors, labels)
    assert np.all(svm.slacks_ >= 0.0)
    # on this near-separable data most slacks vanish at high C
    assert (svm.slacks_ < 1e-6).mean() > 0.5


def test_unseen_features_ignored(two_class_data) -> None:
    vectors, labels = two_class_data
    svm = LinearSVM().fit(vectors, labels)
    v = SparseVector({"never-seen": 5.0})
    baseline = SparseVector({})
    assert svm.decision(v) == pytest.approx(svm.decision(baseline))


def test_training_is_deterministic(two_class_data) -> None:
    vectors, labels = two_class_data
    a = LinearSVM(seed=5).fit(vectors, labels)
    b = LinearSVM(seed=5).fit(vectors, labels)
    probe = vectors[3]
    assert a.decision(probe) == pytest.approx(b.decision(probe))


def test_rejects_bad_inputs() -> None:
    v = SparseVector({"a": 1.0})
    with pytest.raises(TrainingError):
        LinearSVM().fit([], [])
    with pytest.raises(TrainingError):
        LinearSVM().fit([v], [1])  # single class
    with pytest.raises(TrainingError):
        LinearSVM().fit([v, v], [1, 2])  # invalid label
    with pytest.raises(TrainingError):
        LinearSVM().fit([v], [1, -1])  # length mismatch
    with pytest.raises(TrainingError):
        LinearSVM(C=0.0)


def test_decision_before_fit_raises() -> None:
    with pytest.raises(TrainingError):
        LinearSVM().decision(SparseVector({"a": 1.0}))


def test_weight_of_named_feature(two_class_data) -> None:
    vectors, labels = two_class_data
    weights = LinearSVM().fit(vectors, labels).export_linear()[0]
    assert weights["pos0"] > 0
    assert weights["neg0"] < 0
    assert "never-seen" not in weights


def test_hard_problem_still_converges() -> None:
    """Label noise must not break training (soft margin absorbs it)."""
    vectors, labels = make_two_class_data(overlap=0.5, seed=2)
    rng = np.random.default_rng(0)
    noisy = [
        -label if rng.random() < 0.1 else label for label in labels
    ]
    svm = LinearSVM(C=0.5).fit(vectors, noisy)
    correct = sum(svm.predict(v) == l for v, l in zip(vectors, labels))
    assert correct / len(labels) > 0.7
