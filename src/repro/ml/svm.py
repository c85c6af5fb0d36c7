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

from collections.abc import Sequence

import numpy as np

from repro.errors import TrainingError
from repro.ml.common import (
    BinaryClassifier,
    CsrRows,
    FeatureIndexer,
    validate_training_input,
)
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

    Bit for bit the straight-line loop of ``tests/ml/reference.py``:
    columns in first-appearance order (bias last in the first row); each
    epoch visits the rows in ``Generator(seed).shuffle`` order; a visit is
    ``ddot(w[cols], vals)`` then ``w[cols] + (delta * y) * vals`` written
    back, which equals ``+=`` because a dict-built row has unique columns
    (asserted).  ``epochs_`` / ``converged_`` report a cut-short descent.
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
        self.epochs_, self.converged_ = 0, False
        self.slacks_: np.ndarray | None = None
        self.radius_sq_: float = 0.0
        self.n_positive_: int = 0
        self.n_negative_: int = 0

    # ------------------------------------------------------------------

    def fit(self, vectors: Sequence[SparseVector], labels: Sequence[int]) -> "LinearSVM":
        y, C = validate_training_input(vectors, labels).tolist(), self.C
        documents = []
        for vector in vectors:  # unit length, then the constant feature
            norm = vector.norm
            row = {f: w / norm for f, w in vector} if norm else dict(vector)
            row[_BIAS_FEATURE] = 1.0
            documents.append(row)
        seen = dict.fromkeys(f for row in documents for f in row)
        columns = {f: j for j, f in enumerate(seen)}
        self.indexer = FeatureIndexer(columns)
        values = np.array([x for row in documents for x in row.values()])
        gather = np.array(
            [columns[f] for row in documents for f in row], dtype=np.intp
        )
        indptr = np.cumsum([0, *map(len, documents)])
        # Q_ii in scipy's summation order: its last bit reaches every alpha
        shape = (len(documents), len(columns))
        row_sq = CsrRows(values, gather, indptr, shape).row_squares().tolist()
        self.radius_sq_ = max(row_sq)
        # per row, once: its columns, its values, a buffer for the
        # write-back, its label and Q_ii
        offsets = indptr.tolist()
        rows = [
            (gather[lo:hi], values[lo:hi], np.empty(hi - lo), y_i, q_ii)
            for lo, hi, y_i, q_ii in zip(offsets, offsets[1:], y, row_sq)
        ]
        assert all(len(set(row[0].tolist())) == len(row[0]) for row in rows)
        alphas = [0.0] * len(y)
        w = np.zeros(len(columns))
        take, put = w.take, w.put
        multiply, add = np.multiply, np.add
        rng = np.random.default_rng(self.seed)
        order = np.arange(len(y))
        epochs, converged = 0, False
        # min / max / abs written out as the comparisons they make
        while epochs < self.max_epochs and not converged:
            epochs += 1
            rng.shuffle(order)
            max_violation = 0.0
            for i in order.tolist():
                cols, vals, buf, y_i, q_ii = rows[i]
                wc = take(cols)
                # projected gradient
                gradient = y_i * float(wc.dot(vals)) - 1.0
                alpha = alphas[i]
                if alpha <= 0.0:
                    violation = 0.0 if gradient > 0.0 else gradient
                elif alpha >= C:
                    violation = 0.0 if gradient < 0.0 else gradient
                else:
                    violation = gradient
                size = violation if violation >= 0.0 else -violation
                if size > max_violation:
                    max_violation = size
                if size < 1e-12 or q_ii <= 0.0:
                    continue
                new_alpha = alpha - gradient / q_ii
                if new_alpha < 0.0:
                    new_alpha = 0.0
                elif new_alpha > C:
                    new_alpha = C
                delta = new_alpha - alpha
                if delta != 0.0:
                    alphas[i] = new_alpha
                    multiply(vals, delta * y_i, out=buf)
                    add(wc, buf, out=buf)
                    put(cols, buf)
            converged = max_violation < self.tol
        self.epochs_, self.converged_ = epochs, converged

        self._weights = w
        self._weight_norm = float(np.linalg.norm(w))
        self.alphas_ = np.array(alphas, dtype=float)
        margins = np.array([
            y_i * float(np.dot(w.take(cols), vals))
            for cols, vals, _, y_i, _ in rows
        ])
        self.slacks_ = np.maximum(0.0, 1.0 - margins)
        self.n_positive_, self.n_negative_ = y.count(1.0), y.count(-1.0)
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
        every document into one :class:`~repro.ml.common.CsrRows` and
        runs a single ``bincount`` matvec.
        """
        if self._weights is None:
            raise TrainingError("classifier is not trained")
        vectors = [v.normalized() for v in vectors]
        totals = self.indexer.to_csr(vectors).matvec(self._weights)
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
