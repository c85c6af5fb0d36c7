"""Tests for the meta classifier (paper equation 2)."""

from __future__ import annotations

import pytest

from repro.errors import TrainingError
from repro.ml.common import BinaryClassifier
from repro.ml.meta import MetaClassifier
from repro.ml.naive_bayes import NaiveBayesClassifier
from repro.ml.rocchio import RocchioClassifier
from repro.ml.svm import LinearSVM
from repro.text.vectorizer import SparseVector

from tests.ml.conftest import make_two_class_data


class FixedClassifier(BinaryClassifier):
    """Always answers with a fixed vote (for decision-rule tests)."""

    def __init__(self, vote: int) -> None:
        self.vote = vote

    def fit(self, vectors, labels):
        return self

    def decision(self, vector) -> float:
        return float(self.vote)


V = SparseVector({"x": 1.0})


def verdict(meta: MetaClassifier, vector: SparseVector):
    """The meta verdict on ``vector``: each member votes, then
    ``verdict_from_votes`` combines the votes (the batch path E6 runs)."""
    return meta.verdict_from_votes(
        [member.predict(vector) for member in meta.classifiers]
    )


class TestDecisionRules:
    def test_unanimous_positive(self) -> None:
        meta = MetaClassifier.unanimous([FixedClassifier(1)] * 3)
        assert verdict(meta, V).decision == 1

    def test_unanimous_abstains_on_disagreement(self) -> None:
        meta = MetaClassifier.unanimous(
            [FixedClassifier(1), FixedClassifier(1), FixedClassifier(-1)]
        )
        result = verdict(meta, V)
        assert result.decision == 0
        assert result.votes == (1, 1, -1)

    def test_unanimous_negative(self) -> None:
        meta = MetaClassifier.unanimous([FixedClassifier(-1)] * 4)
        assert verdict(meta, V).decision == -1

    def test_majority(self) -> None:
        meta = MetaClassifier.majority(
            [FixedClassifier(1), FixedClassifier(1), FixedClassifier(-1)]
        )
        assert verdict(meta, V).decision == 1

    def test_majority_tie_abstains(self) -> None:
        meta = MetaClassifier.majority(
            [FixedClassifier(1), FixedClassifier(-1)]
        )
        assert verdict(meta, V).decision == 0

    def test_weighted_overrules_count(self) -> None:
        """One high-precision classifier outweighs two weak dissenters."""
        meta = MetaClassifier.weighted(
            [FixedClassifier(1), FixedClassifier(-1), FixedClassifier(-1)],
            precisions=[0.95, 0.3, 0.3],
        )
        assert verdict(meta, V).decision == 1

    def test_score_reported(self) -> None:
        meta = MetaClassifier.majority([FixedClassifier(1)] * 3)
        assert verdict(meta, V).score == pytest.approx(3.0)

    def test_votes_recorded(self) -> None:
        meta = MetaClassifier.majority(
            [FixedClassifier(1), FixedClassifier(-1)]
        )
        assert verdict(meta, V).votes == (1, -1)


class TestValidation:
    def test_empty_members_rejected(self) -> None:
        with pytest.raises(TrainingError):
            MetaClassifier([])

    def test_weight_count_mismatch(self) -> None:
        with pytest.raises(TrainingError):
            MetaClassifier([FixedClassifier(1)], weights=[1.0, 2.0])

    def test_threshold_order_enforced(self) -> None:
        with pytest.raises(TrainingError):
            MetaClassifier([FixedClassifier(1)], t1=-1.0, t2=1.0)


class TestEndToEnd:
    def test_unanimous_meta_is_at_least_as_precise_as_members(self) -> None:
        """Section 3.5: unanimous decisions trade recall for precision."""
        train_vectors, train_labels = make_two_class_data(
            overlap=0.55, seed=10, n_per_class=60
        )
        test_vectors, test_labels = make_two_class_data(
            overlap=0.55, seed=11, n_per_class=120
        )
        members = [
            LinearSVM(C=0.3, seed=1).fit(train_vectors, train_labels),
            NaiveBayesClassifier().fit(train_vectors, train_labels),
            RocchioClassifier().fit(train_vectors, train_labels),
        ]
        meta = MetaClassifier.unanimous(members)

        def precision(predict) -> float:
            tp = fp = 0
            for v, label in zip(test_vectors, test_labels):
                if predict(v) == 1:
                    if label == 1:
                        tp += 1
                    else:
                        fp += 1
            return tp / (tp + fp) if tp + fp else 1.0

        member_precision = max(precision(m.predict) for m in members)
        meta_precision = precision(lambda v: verdict(meta, v).decision)
        assert meta_precision >= member_precision - 0.05
