"""The xi-alpha estimator of SVM generalisation (Joachims, ECML 2000).

BINGO! estimates a freshly trained classifier's precision with the
"computationally efficient xi-alpha-method", which "has approximately the
same variance as leave-one-out estimation and slightly underestimates the
true precision" (paper section 2.4).  The estimator inspects only the
solution of the training problem: training example *i* is counted as a
potential leave-one-out error iff

    2 * alpha_i * R^2 + xi_i  >=  1

where ``alpha_i`` is its dual variable, ``xi_i`` its slack, and ``R^2``
an upper bound on ``x.x`` over the training set.  From the error counts
per class we derive the xi-alpha estimates of error, recall and
precision exactly as in Joachims' paper.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TrainingError
from repro.ml.svm import LinearSVM

__all__ = ["XiAlphaEstimate", "xi_alpha_estimate"]


@dataclass(frozen=True)
class XiAlphaEstimate:
    """Leave-one-out style estimates computed from one SVM solution."""

    error: float
    """Estimated (upper bound on) leave-one-out error rate."""
    recall: float
    """Estimated recall on the positive class."""
    precision: float
    """Estimated precision of positive predictions (slightly pessimistic)."""
    flagged_positive: int
    """Positive training examples flagged as potential LOO errors."""
    flagged_negative: int
    """Negative training examples flagged as potential LOO errors."""


def xi_alpha_estimate(svm: LinearSVM, labels) -> XiAlphaEstimate:
    """Compute the xi-alpha estimates for a trained :class:`LinearSVM`.

    ``labels`` are the training labels passed to ``fit()``, in the same
    order (the SVM keeps its dual state in training order).
    """
    if svm.alphas_ is None or svm.slacks_ is None:
        raise TrainingError("xi-alpha needs a trained SVM with dual state")
    alphas = svm.alphas_
    slacks = svm.slacks_
    n = len(alphas)
    y = np.asarray(labels, dtype=float)
    if len(y) != n:
        raise TrainingError(f"expected {n} labels, got {len(y)}")

    flagged = (2.0 * alphas * svm.radius_sq_ + slacks) >= 1.0
    flagged_positive = int(np.sum(flagged & (y > 0)))
    flagged_negative = int(np.sum(flagged & (y < 0)))
    n_positive = int(np.sum(y > 0))

    error = float(np.sum(flagged)) / n if n else 0.0
    recall = (
        (n_positive - flagged_positive) / n_positive if n_positive else 0.0
    )
    # Estimated true positives: positives not flagged.  Estimated false
    # positives: flagged negatives (they would cross the hyperplane when
    # left out).  Slightly pessimistic, as the paper notes.
    true_positive = n_positive - flagged_positive
    denominator = true_positive + flagged_negative
    precision = true_positive / denominator if denominator else 0.0
    return XiAlphaEstimate(
        error=error,
        recall=recall,
        precision=precision,
        flagged_positive=flagged_positive,
        flagged_negative=flagged_negative,
    )
