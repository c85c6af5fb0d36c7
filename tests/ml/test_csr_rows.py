"""``CsrRows`` against scipy's sparse products, bit for bit.

scipy is imported here only: it is the oracle the numpy kernels replace.
Each property compares with ``np.array_equal``, never ``approx``: the
SVM's Q_ii reaches every alpha, and the benchmark goldens hash
``repr(score)``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse

from repro.ml.common import CsrRows


@st.composite
def csr_rows(draw, sorted_share=0.5, unique=True, min_row=0, zeros=True):
    """Random CSR rows with full-mantissa values.

    Each row is sorted with probability ``sorted_share``, else left in a
    drawn order (which may happen to ascend), so at 0.5 ascending rows
    share a matrix with unordered ones; ``zeros`` puts exact 0.0
    entries in.
    """
    n = draw(st.integers(1, 8))
    m = draw(st.integers(max(min_row, 1), 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns: list[int] = []
    indptr = [0]
    for _ in range(n):
        k = int(rng.integers(min_row, m + 1))
        if unique:
            row = rng.permutation(m)[:k]
        else:
            row = rng.integers(0, m, size=k)
        if rng.random() < sorted_share:
            row = np.sort(row)
        columns.extend(row.tolist())
        indptr.append(len(columns))
    data = rng.standard_normal(len(columns)) * 10.0 ** rng.integers(
        -4, 5, size=len(columns)
    )
    if zeros:
        data[rng.random(len(columns)) < 0.2] = 0.0
    return CsrRows(
        data,
        np.asarray(columns, dtype=np.intp),
        np.asarray(indptr, dtype=np.intp),
        (n, m),
    )


def scipy_of(rows: CsrRows) -> sparse.csr_matrix:
    return sparse.csr_matrix(
        (rows.data, rows.indices, rows.indptr), shape=rows.shape
    )


def dense_operand(rng_seed: int, size: int) -> np.ndarray:
    rng = np.random.default_rng(rng_seed)
    return rng.standard_normal(size) * 10.0 ** rng.integers(-3, 4, size)


@given(rows=csr_rows(unique=False), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_matvec_is_scipys(rows, seed) -> None:
    x = dense_operand(seed, rows.shape[1])
    assert np.array_equal(rows.matvec(x), scipy_of(rows) @ x)


@given(rows=csr_rows(unique=False), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_rmatvec_is_scipys_transpose(rows, seed) -> None:
    v = dense_operand(seed, rows.shape[0])
    X = scipy_of(rows)
    assert np.array_equal(rows.rmatvec(v), X.T.tocsr() @ v)
    assert np.array_equal(rows.rmatvec(v), X.T @ v)


def test_sums_over_no_entries_are_float_zeros() -> None:
    """``np.bincount`` of nothing is int64, whatever its weights."""
    rows = CsrRows(
        np.zeros(0), np.zeros(0, dtype=np.intp),
        np.zeros(3, dtype=np.intp), (2, 4),
    )
    X = scipy_of(rows)
    for got, want in (
        (rows.matvec(np.ones(4)), X @ np.ones(4)),
        (rows.rmatvec(np.ones(2)), X.T @ np.ones(2)),
        (rows.row_squares(), scipy_row_squares(rows)),
    ):
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got, want)


def scipy_row_squares(rows: CsrRows) -> np.ndarray:
    X = scipy_of(rows)
    return np.asarray(X.multiply(X).sum(axis=1)).ravel()


@given(rows=csr_rows(sorted_share=1.0, zeros=False))
@settings(max_examples=200, deadline=None)
def test_row_squares_ascending_rows(rows) -> None:
    assert np.array_equal(rows.row_squares(), scipy_row_squares(rows))


@given(rows=csr_rows(zeros=False))
@settings(max_examples=200, deadline=None)
def test_row_squares_unordered_rows(rows) -> None:
    """One unordered row sends every row down scipy's general path."""
    assert np.array_equal(rows.row_squares(), scipy_row_squares(rows))


@given(share=st.sampled_from([0.0, 0.5, 1.0]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_row_squares_rows_holding_zeros(share, data) -> None:
    rows = data.draw(csr_rows(sorted_share=share))
    assert np.array_equal(rows.row_squares(), scipy_row_squares(rows))


@given(share=st.sampled_from([0.0, 0.5, 1.0]), data=st.data())
@settings(max_examples=200, deadline=None)
def test_row_squares_long_rows(share, data) -> None:
    """Rows of eight or more entries: numpy's pairwise blocks start."""
    rows = data.draw(csr_rows(sorted_share=share, min_row=8))
    assert np.array_equal(rows.row_squares(), scipy_row_squares(rows))


def test_row_squares_empty_and_underflowing_rows() -> None:
    rows = CsrRows(
        np.array([1e-200, 0.0, 3.0, 2.0, 1e-170]),
        np.array([0, 1, 2, 0, 1], dtype=np.intp),
        np.array([0, 2, 2, 5], dtype=np.intp),
        (3, 3),
    )
    assert np.array_equal(rows.row_squares(), scipy_row_squares(rows))
    assert rows.row_squares().tolist() == [0.0, 0.0, 13.0]
