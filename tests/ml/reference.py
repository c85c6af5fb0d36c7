"""The straight-line dual coordinate descent, kept as the SVM's oracle.

This is ``LinearSVM.fit`` as it stood before the per-visit overhead was
hoisted out of it: ``normalized()`` copies, a ``SparseVector`` per
augmented document, ``FeatureIndexer.to_csr`` read into a scipy
``csr_matrix`` (scipy's Q_ii, the sum production reproduces with
``CsrRows.row_squares``), and per visit two slices,
a fancy-index gather ``w[cols] @ vals`` and a read-modify-write
``w[cols] += delta * y[i] * vals`` on numpy scalars.  It states the
algorithm one expression per step; production does the same
floating-point operations in the same order, and
``tests/ml/test_svm_parity.py`` pins it here with ``np.array_equal``
(not ``approx``: the benchmark goldens hash ``repr(score)``, so the last
bit is part of the contract).  No production module calls it.  Do not
optimise this module.
"""

from __future__ import annotations

from collections.abc import Sequence
from typing import NamedTuple

import numpy as np
from scipy import sparse

from repro.ml.common import FeatureIndexer, validate_training_input
from repro.text.vectorizer import SparseVector

__all__ = ["ReferenceFit", "fit_reference"]

_BIAS_FEATURE = "__bias__"


class ReferenceFit(NamedTuple):
    """What a fit leaves behind, in the oracle's own words."""

    features: list[str]
    """Every column's feature in column order, the bias feature included."""
    weights: np.ndarray
    alphas: np.ndarray
    slacks: np.ndarray
    epochs: int
    converged: bool


def fit_reference(
    vectors: Sequence[SparseVector],
    labels: Sequence[int],
    C: float = 1.0,
    seed: int = 0,
    max_epochs: int = 200,
    tol: float = 1e-4,
) -> ReferenceFit:
    y = validate_training_input(vectors, labels)
    vectors = [v.normalized() for v in vectors]
    augmented = [
        SparseVector({**dict(v), _BIAS_FEATURE: 1.0}) for v in vectors
    ]
    indexer = FeatureIndexer()
    rows = indexer.to_csr(augmented)
    X = sparse.csr_matrix((rows.data, rows.indices, rows.indptr), rows.shape)
    n, m = X.shape

    data, indices, indptr = X.data, X.indices, X.indptr
    row_sq = np.asarray(X.multiply(X).sum(axis=1)).ravel()

    alphas = np.zeros(n)
    w = np.zeros(m)
    rng = np.random.default_rng(seed)
    order = np.arange(n)
    epochs, converged = 0, False
    for _epoch in range(max_epochs):
        epochs += 1
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
            elif alpha >= C:
                violation = max(gradient, 0.0)
            else:
                violation = gradient
            max_violation = max(max_violation, abs(violation))
            if abs(violation) < 1e-12:
                continue
            q_ii = row_sq[i]
            if q_ii <= 0.0:
                continue
            new_alpha = min(max(alpha - gradient / q_ii, 0.0), C)
            delta = new_alpha - alpha
            if delta != 0.0:
                alphas[i] = new_alpha
                w[cols] += delta * y[i] * vals
        if max_violation < tol:
            converged = True
            break

    margins = np.array([
        y[i] * float(w[indices[indptr[i]:indptr[i + 1]]]
                     @ data[indptr[i]:indptr[i + 1]])
        for i in range(n)
    ])
    slacks = np.maximum(0.0, 1.0 - margins)
    return ReferenceFit(
        list(indexer._index), w, alphas, slacks, epochs, converged
    )
