"""Shared classifier protocol and feature indexing.

All classifiers consume :class:`~repro.text.vectorizer.SparseVector`
documents with *string* feature names (so any feature space plugs in, per
paper section 3.4) and expose the same protocol:

* ``fit(vectors, labels)`` with labels in ``{-1, +1}``;
* ``decision(vector) -> float`` -- signed confidence, positive means the
  document belongs to the topic;
* ``predict(vector) -> int`` -- the sign of the decision.

:class:`FeatureIndexer` maps string features to dense column indices,
frozen after fitting so unseen features in new documents are ignored
(they carry no information for a trained model).
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np
from scipy import sparse

from repro.errors import TrainingError
from repro.text.vectorizer import SparseVector

__all__ = ["FeatureIndexer", "BinaryClassifier", "validate_training_input"]


class FeatureIndexer:
    """Assigns stable dense indices to string feature names."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._frozen = False

    def __len__(self) -> int:
        return len(self._index)

    def freeze(self) -> None:
        self._frozen = True

    def index_of(self, feature: str) -> int | None:
        """The feature's column, allocating one unless frozen."""
        found = self._index.get(feature)
        if found is not None:
            return found
        if self._frozen:
            return None
        position = len(self._index)
        self._index[feature] = position
        return position

    def to_csr(self, vectors: Sequence[SparseVector]) -> sparse.csr_matrix:
        """Encode vectors as a CSR matrix (allocating columns if unfrozen)."""
        data: list[float] = []
        indices: list[int] = []
        indptr: list[int] = [0]
        for vector in vectors:
            for feature, weight in vector:
                column = self.index_of(feature)
                if column is not None:
                    data.append(weight)
                    indices.append(column)
            indptr.append(len(data))
        return sparse.csr_matrix(
            (data, indices, indptr),
            shape=(len(vectors), max(len(self._index), 1)),
        )


class BinaryClassifier:
    """Protocol base class for the topic-specific binary classifiers."""

    #: short name used in meta-classification reports
    name: str = "classifier"

    def fit(self, vectors: Sequence[SparseVector], labels: Sequence[int]) -> "BinaryClassifier":
        raise NotImplementedError

    def decision(self, vector: SparseVector) -> float:
        raise NotImplementedError

    def decision_batch(self, vectors: Sequence[SparseVector]) -> np.ndarray:
        """Decisions for many documents; learners with a vectorizable
        form (e.g. :class:`~repro.ml.svm.LinearSVM`) override this."""
        return np.array([self.decision(v) for v in vectors])

    def predict(self, vector: SparseVector) -> int:
        return 1 if self.decision(vector) > 0 else -1


def validate_training_input(
    vectors: Sequence[SparseVector], labels: Sequence[int]
) -> np.ndarray:
    """Common checks: non-empty, matching lengths, both classes present."""
    if len(vectors) != len(labels):
        raise TrainingError(
            f"{len(vectors)} vectors but {len(labels)} labels"
        )
    if not vectors:
        raise TrainingError("cannot train on an empty example set")
    y = np.asarray(labels, dtype=float)
    if not set(np.unique(y)) <= {-1.0, 1.0}:
        raise TrainingError("labels must be -1 or +1")
    if (y > 0).sum() == 0 or (y < 0).sum() == 0:
        raise TrainingError("training needs at least one example per class")
    return y
