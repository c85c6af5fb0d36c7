"""``LinearSVM.fit`` against the straight-line oracle, bit for bit.

Confidences reach ``repr(hit.score)`` in the benchmark's response
digests, so the kernel's contract with ``tests/ml/reference.py`` is
``np.array_equal``, never ``approx``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ml.svm import LinearSVM
from repro.text.vectorizer import SparseVector

from .conftest import make_two_class_data
from .reference import fit_reference
from .test_svm_properties import dataset_from, seed_lists


def assert_same_fit(vectors, labels, **params) -> LinearSVM:
    svm = LinearSVM(**params).fit(vectors, labels)
    oracle = fit_reference(vectors, labels, **params)
    assert list(svm.indexer._index) == oracle.features
    assert list(svm.indexer._index.values()) == list(range(len(oracle.features)))
    assert np.array_equal(svm._weights, oracle.weights)
    assert np.array_equal(svm.alphas_, oracle.alphas)
    assert np.array_equal(svm.slacks_, oracle.slacks)
    assert (svm.epochs_, svm.converged_) == (oracle.epochs, oracle.converged)
    weights, bias, norm = svm.export_linear()
    assert list(weights) == [f for f in oracle.features if f != "__bias__"]
    assert bias == oracle.weights[oracle.features.index("__bias__")]
    assert norm == float(np.linalg.norm(oracle.weights))
    return svm


@given(
    seeds=seed_lists,
    extras=st.sets(st.sampled_from(["zero", "empty", "duplicate", "reserved"])),
    C=st.sampled_from([0.01, 0.3, 1.0, 50.0]),
    max_epochs=st.sampled_from([1, 7, 200]),
    seed=st.integers(0, 3),
)
@settings(max_examples=60, deadline=None)
def test_fit_equals_reference_bit_for_bit(
    seeds, extras, C, max_epochs, seed
) -> None:
    vectors, labels = dataset_from(seeds)
    if "zero" in extras:  # explicit zeros: norm 0, q_ii is the bias alone
        vectors.append(SparseVector({"p0": 0.0, "shared1": 0.0}))
        labels.append(-1)
    if "empty" in extras:
        vectors.insert(1, SparseVector({}))
        labels.insert(1, 1)
    if "duplicate" in extras:  # a flat direction in the dual
        vectors.append(vectors[0])
        labels.append(labels[0])
    if "reserved" in extras:  # the constant wins, in the document's slot
        vectors.append(SparseVector({"n1": 2.0, "__bias__": 7.0, "p2": 0.5}))
        labels.append(-1)
    svm = assert_same_fit(
        vectors, labels, C=C, seed=seed, max_epochs=max_epochs
    )
    assert np.all(svm.alphas_ >= 0.0) and np.all(svm.alphas_ <= C)


def test_small_cost_clips_alphas_to_the_bound() -> None:
    """The clipped branch (``alpha >= C``) is on the compared path."""
    vectors, labels = make_two_class_data(n_per_class=20, overlap=0.6, seed=4)
    svm = assert_same_fit(vectors, labels, C=0.5, seed=1)
    clipped, idle = (svm.alphas_ == 0.5).sum(), (svm.alphas_ == 0.0).sum()
    assert clipped > 0 and idle > 0 and clipped + idle < len(labels)


def test_crawl_sized_fit_equals_reference(two_class_data) -> None:
    vectors, labels = two_class_data
    assert_same_fit(vectors, labels, C=1.0, seed=0)
    assert_same_fit(vectors, labels, C=1.0, seed=0, tol=1e-10, max_epochs=40)


def test_epochs_and_convergence_are_recorded(two_class_data) -> None:
    vectors, labels = two_class_data  # separable, as the next line checks
    svm = LinearSVM(C=1.0).fit(vectors, labels)
    assert all(svm.predict(v) == label for v, label in zip(vectors, labels))
    assert svm.converged_ is True
    assert 1 < svm.epochs_ < svm.max_epochs
    cut_short = LinearSVM(C=1.0, max_epochs=1).fit(vectors, labels)
    assert (cut_short.epochs_, cut_short.converged_) == (1, False)
    untrained = LinearSVM()
    assert (untrained.epochs_, untrained.converged_) == (0, False)
