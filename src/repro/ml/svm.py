"""Linear soft-margin SVM trained by dual coordinate descent.

BINGO! uses "the linear form of SVM where training amounts to finding a
hyperplane ... that separates positive from negative training examples
with maximum margin" (section 2.4).  We solve the L1-loss dual

    min_a  1/2 a^T Q a - e^T a    s.t. 0 <= a_i <= C,  Q_ij = y_i y_j x_i.x_j

with the coordinate-descent scheme of Hsieh et al. (2008), the same
algorithm behind LIBLINEAR.  The bias is handled by augmenting every
vector with a constant feature, which keeps the per-coordinate update
closed-form.

The signed *decision* value ``w.x + b`` doubles as the classifier's
confidence; :meth:`LinearSVM.distance` normalises it by ``||w||`` to the
geometric distance from the hyperplane the paper uses as its confidence
measure.  Training also retains the dual variables and slacks needed by
the xi-alpha estimator (``repro.ml.xialpha``).
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.errors import TrainingError
from repro.ml.common import BinaryClassifier, FeatureIndexer, validate_training_input
from repro.text.vectorizer import SparseVector

__all__ = ["LinearSVM"]

_BIAS_FEATURE = "__bias__"


class LinearSVM(BinaryClassifier):
    """Linear SVM with dual coordinate descent training.

    Parameters
    ----------
    C:
        Soft-margin cost; larger C fits training data more tightly.
    max_epochs:
        Upper bound on passes over the training set.
    tol:
        Convergence threshold on the maximal projected-gradient violation.
    seed:
        Seed for the coordinate permutation (training is deterministic).
    """

    name = "svm"

    def __init__(
        self,
        C: float = 1.0,
        max_epochs: int = 200,
        tol: float = 1e-4,
        seed: int = 0,
    ) -> None:
        """Documents are projected onto the unit sphere before training
        and prediction -- standard for text SVMs, and required for the
        xi-alpha estimator's R^2 bound to be tight (with unit vectors
        R^2 == 1 plus the bias feature)."""
        if C <= 0:
            raise TrainingError(f"C must be positive, got {C}")
        self.C = C
        self.max_epochs = max_epochs
        self.tol = tol
        self.seed = seed
        self.indexer = FeatureIndexer()
        self._weights: np.ndarray | None = None
        self._weight_norm: float = 0.0
        self.alphas_: np.ndarray | None = None
        self.slacks_: np.ndarray | None = None
        self.radius_sq_: float = 0.0
        self.n_positive_: int = 0
        self.n_negative_: int = 0

    # ------------------------------------------------------------------

    def fit(self, vectors: Sequence[SparseVector], labels: Sequence[int]) -> "LinearSVM":
        y = validate_training_input(vectors, labels)
        vectors = [v.normalized() for v in vectors]
        augmented = [
            SparseVector({**dict(v), _BIAS_FEATURE: 1.0}) for v in vectors
        ]
        self.indexer = FeatureIndexer()
        X = self.indexer.to_csr(augmented)
        self.indexer.freeze()
        n, m = X.shape

        data, indices, indptr = X.data, X.indices, X.indptr
        row_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel()
        self.radius_sq_ = float(row_sq.max()) if n else 0.0

        alphas = np.zeros(n)
        w = np.zeros(m)
        rng = np.random.default_rng(self.seed)
        order = np.arange(n)
        for _epoch in range(self.max_epochs):
            rng.shuffle(order)
            max_violation = 0.0
            for i in order:
                lo, hi = indptr[i], indptr[i + 1]
                cols = indices[lo:hi]
                vals = data[lo:hi]
                margin = y[i] * float(w[cols] @ vals) - 1.0
                alpha = alphas[i]
                # projected gradient
                gradient = margin
                if alpha <= 0.0:
                    violation = min(gradient, 0.0)
                elif alpha >= self.C:
                    violation = max(gradient, 0.0)
                else:
                    violation = gradient
                max_violation = max(max_violation, abs(violation))
                if abs(violation) < 1e-12:
                    continue
                q_ii = row_sq[i]
                if q_ii <= 0.0:
                    continue
                new_alpha = min(max(alpha - gradient / q_ii, 0.0), self.C)
                delta = new_alpha - alpha
                if delta != 0.0:
                    alphas[i] = new_alpha
                    w[cols] += delta * y[i] * vals
            if max_violation < self.tol:
                break

        self._weights = w
        self._weight_norm = float(np.linalg.norm(w))
        self.alphas_ = alphas
        margins = np.array([
            y[i] * float(w[indices[indptr[i]:indptr[i + 1]]]
                         @ data[indptr[i]:indptr[i + 1]])
            for i in range(n)
        ])
        self.slacks_ = np.maximum(0.0, 1.0 - margins)
        self.n_positive_ = int((y > 0).sum())
        self.n_negative_ = int((y < 0).sum())
        return self

    # ------------------------------------------------------------------

    @property
    def is_trained(self) -> bool:
        return self._weights is not None

    def decision(self, vector: SparseVector) -> float:
        """``w.x + b`` -- the raw SVM output (sign decides membership)."""
        if self._weights is None:
            raise TrainingError("classifier is not trained")
        vector = vector.normalized()
        total = 0.0
        index = self.indexer._index
        w = self._weights
        for feature, weight in vector:
            column = index.get(feature)
            if column is not None:
                total += w[column] * weight
        bias_column = index.get(_BIAS_FEATURE)
        if bias_column is not None:
            total += w[bias_column]
        return total

    def decision_batch(self, vectors: Sequence[SparseVector]) -> np.ndarray:
        """Vectorized :meth:`decision` over many documents.

        Equivalent to ``[self.decision(v) for v in vectors]`` but gathers
        every document into one CSR matrix and runs a single matvec.
        """
        if self._weights is None:
            raise TrainingError("classifier is not trained")
        if not vectors:
            return np.zeros(0)
        vectors = [v.normalized() for v in vectors]
        X = self.indexer.to_csr(list(vectors))
        w = self._weights[: X.shape[1]]
        totals = np.asarray(X @ w).ravel()
        bias_column = self.indexer._index.get(_BIAS_FEATURE)
        if bias_column is not None:
            totals += self._weights[bias_column]
        return totals

    def export_linear(self) -> tuple[dict[str, float], float, float]:
        """The trained model as ``(feature -> weight, bias, ||w||)``.

        This is the contract the compiled-kernel layer
        (:mod:`repro.perf.compiled`) builds its stacked weight rows from:
        ``decision(v) = w . normalize(v) + bias`` with the bias *not*
        scaled by the document norm.
        """
        if self._weights is None:
            raise TrainingError("classifier is not trained")
        weights = {
            feature: float(self._weights[column])
            for feature, column in self.indexer._index.items()
            if feature != _BIAS_FEATURE
        }
        bias_column = self.indexer._index.get(_BIAS_FEATURE)
        bias = float(self._weights[bias_column]) if bias_column is not None else 0.0
        return weights, bias, self._weight_norm

    def distance(self, vector: SparseVector) -> float:
        """Signed geometric distance from the separating hyperplane.

        This is the confidence measure of paper section 2.4: "We
        interpret the distance of a newly classified document from the
        separating hyperplane as a measure of the classifier's
        confidence."
        """
        if self._weight_norm == 0.0:
            return 0.0
        return self.decision(vector) / self._weight_norm

    def weight_of(self, feature: str) -> float:
        """The learned weight of one (string) feature, 0.0 if unseen."""
        if self._weights is None:
            raise TrainingError("classifier is not trained")
        column = self.indexer._index.get(feature)
        return float(self._weights[column]) if column is not None else 0.0

    @property
    def margin(self) -> float:
        """Geometric half-margin 1/||w|| (infinite if w == 0)."""
        if self._weight_norm == 0.0:
            return math.inf
        return 1.0 / self._weight_norm
