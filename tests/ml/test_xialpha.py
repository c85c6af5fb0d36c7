"""Tests for the xi-alpha leave-one-out estimator."""

from __future__ import annotations

import pytest

from repro.errors import TrainingError
from repro.ml.svm import LinearSVM
from repro.ml.xialpha import xi_alpha_estimate

from tests.ml.conftest import make_two_class_data


def fit(overlap: float, seed: int = 0, C: float = 1.0):
    vectors, labels = make_two_class_data(overlap=overlap, seed=seed)
    svm = LinearSVM(C=C).fit(vectors, labels)
    return svm, vectors, labels


class TestXiAlpha:
    def test_estimates_bounded(self) -> None:
        svm, _, labels = fit(overlap=0.2)
        estimate = xi_alpha_estimate(svm, labels)
        assert 0.0 <= estimate.error <= 1.0
        assert 0.0 <= estimate.recall <= 1.0
        assert 0.0 <= estimate.precision <= 1.0

    def test_easy_problem_scores_high(self) -> None:
        svm, _, labels = fit(overlap=0.05, C=10.0)
        estimate = xi_alpha_estimate(svm, labels)
        assert estimate.error < 0.35
        assert estimate.precision > 0.6

    def test_harder_problem_scores_lower(self) -> None:
        easy_svm, _, easy_labels = fit(overlap=0.05, C=10.0)
        hard_svm, _, hard_labels = fit(overlap=0.7, C=10.0)
        easy = xi_alpha_estimate(easy_svm, easy_labels)
        hard = xi_alpha_estimate(hard_svm, hard_labels)
        assert hard.error >= easy.error

    def test_pessimism_relative_to_training_accuracy(self) -> None:
        """xi-alpha is an *upper* bound on LOO error, so the estimated
        error should not be lower than the training error."""
        svm, vectors, labels = fit(overlap=0.3)
        estimate = xi_alpha_estimate(svm, labels)
        train_errors = sum(
            svm.predict(v) != label for v, label in zip(vectors, labels)
        )
        assert estimate.error >= train_errors / len(labels) - 1e-9

    def test_flag_counts_consistent(self) -> None:
        svm, _, labels = fit(overlap=0.4)
        estimate = xi_alpha_estimate(svm, labels)
        n = len(labels)
        flagged = estimate.flagged_positive + estimate.flagged_negative
        assert estimate.error == pytest.approx(flagged / n)

    def test_requires_labels(self) -> None:
        svm, _, labels = fit(overlap=0.2)
        with pytest.raises(TypeError):
            xi_alpha_estimate(svm)

    def test_label_length_mismatch(self) -> None:
        svm, _, labels = fit(overlap=0.2)
        with pytest.raises(TrainingError):
            xi_alpha_estimate(svm, labels[:-1])

    def test_untrained_svm_rejected(self) -> None:
        with pytest.raises(TrainingError):
            xi_alpha_estimate(LinearSVM(), [1, -1])
