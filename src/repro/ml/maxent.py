"""Maximum Entropy classifier (binary logistic regression).

The paper lists Maximum Entropy among the supervised learners a focused
crawler can use ("Naive Bayes, Maximum Entropy, Support Vector Machines
(SVM), or other supervised learning methods", section 1.2).  For binary
classification with feature functions equal to the document's feature
weights, the maximum-entropy model *is* L2-regularised logistic
regression, which we fit by full-batch gradient descent with a simple
backtracking step size.

The decision value is the log-odds ``w.x + b``; its sign is the class
and its magnitude a calibrated confidence (unlike the SVM margin, it has
a probabilistic reading: ``p(+|x) = sigmoid(decision)``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import TrainingError
from repro.ml.common import BinaryClassifier, FeatureIndexer, validate_training_input
from repro.text.vectorizer import SparseVector

__all__ = ["MaxEntClassifier"]

#: gradient steps per fit, and the loss improvement that ends one early
MAX_ITERATIONS = 300
TOL = 1e-6


class MaxEntClassifier(BinaryClassifier):
    """L2-regularised binary logistic regression on sparse documents."""

    name = "maxent"

    def __init__(self, regularization: float = 1.0) -> None:
        if regularization < 0:
            raise TrainingError(
                f"regularization must be >= 0, got {regularization}"
            )
        self.regularization = regularization
        self.indexer = FeatureIndexer()
        self._weights: np.ndarray | None = None
        self._bias = 0.0
        self.converged_ = False

    # ------------------------------------------------------------------

    def fit(
        self, vectors: Sequence[SparseVector], labels: Sequence[int]
    ) -> "MaxEntClassifier":
        y = validate_training_input(vectors, labels)
        vectors = [v.normalized() for v in vectors]
        self.indexer = FeatureIndexer()
        X = self.indexer.to_csr(vectors)
        self.indexer.freeze()
        n, m = X.shape
        w = np.zeros(m)
        b = 0.0
        step = 1.0
        previous_loss = math.inf
        for _iteration in range(MAX_ITERATIONS):
            margins = y * (X.matvec(w) + b)
            # numerically stable logistic loss: log(1 + e^-t)
            loss = float(
                np.sum(np.logaddexp(0.0, -margins))
                + 0.5 * self.regularization * (w @ w)
            )
            sigma = 1.0 / (1.0 + np.exp(np.clip(margins, -35, 35)))
            gradient_w = -X.rmatvec(y * sigma) + self.regularization * w
            gradient_b = float(-(y * sigma).sum())
            # backtracking on divergence
            if loss > previous_loss:
                step *= 0.5
                if step < 1e-8:
                    break
            else:
                step *= 1.05
            improvement = previous_loss - loss
            previous_loss = loss
            w = w - step / n * gradient_w
            b = b - step / n * gradient_b
            if 0 <= improvement < TOL:
                self.converged_ = True
                break
        self._weights = w
        self._bias = b
        return self

    # ------------------------------------------------------------------

    def decision(self, vector: SparseVector) -> float:
        """The log-odds ``w.x + b``."""
        if self._weights is None:
            raise TrainingError("classifier is not trained")
        vector = vector.normalized()
        total = self._bias
        index = self.indexer._index
        for feature, weight in vector:
            column = index.get(feature)
            if column is not None:
                total += self._weights[column] * weight
        return total
