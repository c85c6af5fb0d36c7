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
(they carry no information for a trained model).  Every sparse product
in the program is a :class:`CsrRows` sum, scipy's to the last bit.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.errors import TrainingError
from repro.text.vectorizer import SparseVector

__all__ = ["CsrRows", "FeatureIndexer", "BinaryClassifier",
           "validate_training_input"]


@dataclass(frozen=True)
class CsrRows:
    """A CSR matrix's arrays; ``row_ids[k]`` is entry ``k``'s row.

    ``np.bincount`` adds its weights in input order from 0.0: in storage
    order, as scipy's ``csr_matvec`` and ``csc_matvec`` add them.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @cached_property
    def row_ids(self) -> np.ndarray:
        return np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))

    def matvec(self, x: np.ndarray) -> np.ndarray:
        """``X @ x``: each row's products in stored order."""
        return _sums(self.row_ids, self.data * x[self.indices], self.shape[0])

    def rmatvec(self, v: np.ndarray) -> np.ndarray:
        """``X.T @ v`` as ``X.T.tocsr() @ v`` adds it: that transpose's
        rows list each column's entries in ascending row order."""
        return _sums(self.indices, self.data * v[self.row_ids], self.shape[1])

    def row_squares(self) -> np.ndarray:
        """``X.multiply(X).sum(axis=1)`` over rows of unique columns.

        scipy multiplies in stored order when every row's columns
        strictly ascend, else each row in reverse (its general path
        prepends to a linked list), and drops exact-zero products before
        one ``add.reduceat`` over the non-empty rows sums them pairwise.
        """
        rows, order = self.row_ids, np.arange(len(self.data))
        if not np.all(np.diff(self.indices)[rows[1:] == rows[:-1]] > 0):
            ends = self.indptr[:-1] + self.indptr[1:] - 1  # first + last
            order = np.repeat(ends, np.diff(self.indptr)) - order
        squares = (self.data * self.data)[order]
        kept = squares != 0.0
        counts = np.bincount(rows[kept], minlength=self.shape[0])
        nonempty = np.flatnonzero(counts)
        totals = np.zeros(self.shape[0])
        totals[nonempty] = np.add.reduceat(
            squares[kept], (np.cumsum(counts) - counts)[nonempty]
        )
        return totals


def _sums(ids: np.ndarray, weights: np.ndarray, length: int) -> np.ndarray:
    # bincount of nothing is int64 zeros, whatever its weights
    return np.bincount(ids, weights, length).astype(np.float64, copy=False)


class FeatureIndexer:
    """Assigns stable dense indices to string feature names."""

    def __init__(self, columns: dict[str, int] | None = None) -> None:
        """Given ``columns`` (feature -> column), the indexer is frozen."""
        self._index: dict[str, int] = {} if columns is None else columns
        self._frozen = columns is not None

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

    def to_csr(self, vectors: Sequence[SparseVector | None]) -> CsrRows:
        """CSR rows of ``vectors`` (None: empty), allocating unless frozen."""
        column_of = self._index.get if self._frozen else self.index_of
        data: list[float] = []
        indices: list[int] = []
        indptr: list[int] = [0]
        for vector in vectors:
            for feature, weight in vector or ():
                column = column_of(feature)
                if column is not None:
                    data.append(weight)
                    indices.append(column)
            indptr.append(len(data))
        return CsrRows(
            np.asarray(data, dtype=np.float64),
            np.asarray(indices, dtype=np.intp),
            np.asarray(indptr, dtype=np.intp),
            (len(vectors), max(len(self._index), 1)),
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
