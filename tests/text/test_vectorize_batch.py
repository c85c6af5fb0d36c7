"""The one tf*idf weight expression and the batch name over it.

:meth:`~repro.text.vectorizer.TfIdfVectorizer.vectorize_counts` reads
idf from the snapshot's memo and ``1 + log(tf)`` from a shared table;
its weights must stay **bit-identical** (``==`` on floats, not approx)
and in the same key order as the straight-line expression
``(1.0 + math.log(tf)) * idf(term)``.  ``vectorize`` and
:func:`repro.perf.text.vectorize_batch` go through it, so their rows
must equal it and must not depend on how a batch was sliced.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro.perf.text import vectorize_batch
from repro.text.vectorizer import SparseVector, TfIdfVectorizer

VOCAB = [
    "database", "index", "btree", "query", "join", "transaction",
    "log", "vacuum", "shard", "replica", "cache", "latch",
]


def corpus_vectorizer(seed: int = 13) -> TfIdfVectorizer:
    rng = random.Random(seed)
    vectorizer = TfIdfVectorizer()
    for _ in range(40):
        doc = rng.sample(VOCAB, rng.randint(2, 8))
        vectorizer.ingest(doc)
    vectorizer.refresh()
    return vectorizer


def sample_counts(seed: int = 29, n: int = 24) -> list[Counter]:
    rng = random.Random(seed)
    batch = []
    for _ in range(n):
        counts = Counter({
            term: rng.randint(1, 9)
            for term in rng.sample(VOCAB, rng.randint(1, 7))
        })
        if rng.random() < 0.3:
            counts["unseen-term-%d" % rng.randint(0, 3)] = 2
        batch.append(counts)
    batch.append(Counter())          # empty document
    batch.append(Counter(ghost=0))   # zero count must be skipped
    return batch


def straight_line(
    vectorizer: TfIdfVectorizer, counts: Counter
) -> dict[str, float]:
    """The weight expression as spelled before the memo and table."""
    return {
        term: (1.0 + math.log(tf)) * vectorizer.statistics.idf(term)
        for term, tf in counts.items()
        if tf > 0
    }


@pytest.mark.parametrize("refreshed", [False, True])
def test_every_spelling_equals_the_straight_line_expression(
    refreshed: bool,
) -> None:
    """Weights bit for bit and keys in order, before the first idf
    snapshot (idf 1.0) and after one, on a cold and a warm memo."""
    vectorizer = corpus_vectorizer() if refreshed else TfIdfVectorizer()
    batch = sample_counts()
    for _ in range(2):
        rows = vectorize_batch(vectorizer, batch)
        for counts, row in zip(batch, rows):
            expected = straight_line(vectorizer, counts)
            for vector in (
                row,
                vectorizer.vectorize_counts(counts),
                vectorizer.vectorize(counts.elements()),
            ):
                assert list(vector.weights.items()) == list(expected.items())


def test_rows_bit_identical_to_vectorize_counts() -> None:
    vectorizer = corpus_vectorizer()
    batch = sample_counts()
    rows = vectorize_batch(vectorizer, batch)
    assert len(rows) == len(batch)
    for counts, row in zip(batch, rows):
        reference = vectorizer.vectorize_counts(counts)
        assert isinstance(row, SparseVector)
        assert row.weights == reference.weights  # exact float equality
        assert list(row.weights) == list(reference.weights)
        assert row.norm == reference.norm


@pytest.mark.parametrize("batch_size", [1, 3, 8])
def test_batch_slicing_invariance(batch_size: int) -> None:
    """Rows are identical no matter how the batch is chunked."""
    vectorizer = corpus_vectorizer()
    batch = sample_counts()
    whole = vectorize_batch(vectorizer, batch)
    sliced = []
    for start in range(0, len(batch), batch_size):
        sliced.extend(
            vectorize_batch(vectorizer, batch[start:start + batch_size])
        )
    assert [row.weights for row in sliced] \
        == [row.weights for row in whole]


def test_zero_and_empty_counts_yield_empty_rows() -> None:
    vectorizer = corpus_vectorizer()
    rows = vectorize_batch(vectorizer, [Counter(), Counter(ghost=0)])
    assert rows[0].weights == {} and rows[1].weights == {}
    assert rows[0].norm == 0.0


def test_snapshot_refresh_changes_rows_consistently() -> None:
    """The kernel reads the same snapshot as the reference path: after
    more ingests + refresh, both move together and stay identical."""
    vectorizer = corpus_vectorizer()
    counts = Counter(database=3, vacuum=1)
    before = vectorize_batch(vectorizer, [counts])[0]
    for _ in range(20):
        vectorizer.ingest(["database", "query"])
    vectorizer.refresh()
    after = vectorize_batch(vectorizer, [counts])[0]
    assert after.weights == vectorizer.vectorize_counts(counts).weights
    assert after.weights != before.weights


def test_sparse_vector_norm_is_cached_not_part_of_equality() -> None:
    """The cached norm slot must not affect dataclass semantics."""
    a = SparseVector({"x": 3.0, "y": 4.0})
    b = SparseVector({"x": 3.0, "y": 4.0})
    assert a.norm == 5.0
    assert a == b            # b's norm not yet computed
    assert b.norm == 5.0
    assert a == b
