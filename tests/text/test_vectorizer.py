"""Tests for sparse vectors, lazy idf and tf*idf weighting."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.vectorizer import (
    CorpusStatistics,
    SparseVector,
    TfIdfVectorizer,
    cosine_similarity,
)

terms = st.text(alphabet="abcdef", min_size=1, max_size=4)
vectors = st.dictionaries(
    terms, st.floats(min_value=-10, max_value=10, allow_nan=False), max_size=8
).map(SparseVector)


class TestSparseVector:
    def test_dot_product(self) -> None:
        a = SparseVector({"x": 2.0, "y": 1.0})
        b = SparseVector({"y": 3.0, "z": 5.0})
        assert a.dot(b) == pytest.approx(3.0)

    def test_norm(self) -> None:
        v = SparseVector({"a": 3.0, "b": 4.0})
        assert v.norm == pytest.approx(5.0)

    def test_normalized_unit_length(self) -> None:
        v = SparseVector({"a": 3.0, "b": 4.0}).normalized()
        assert v.norm == pytest.approx(1.0)

    def test_normalized_zero_vector_is_identity(self) -> None:
        v = SparseVector({})
        assert v.normalized() is v

    def test_project(self) -> None:
        v = SparseVector({"a": 1.0, "b": 2.0, "c": 3.0})
        p = v.project(["a", "c", "zz"])
        assert dict(p) == {"a": 1.0, "c": 3.0}

    @given(vectors, vectors)
    def test_dot_symmetry(self, a: SparseVector, b: SparseVector) -> None:
        assert a.dot(b) == pytest.approx(b.dot(a))

    @given(vectors)
    def test_cosine_self_is_one_for_nonzero(self, v: SparseVector) -> None:
        if v.norm > 1e-9:
            assert cosine_similarity(v, v) == pytest.approx(1.0)

    @given(vectors, vectors)
    def test_cosine_bounded(self, a: SparseVector, b: SparseVector) -> None:
        c = cosine_similarity(a, b)
        assert -1.0 - 1e-9 <= c <= 1.0 + 1e-9


class TestCorpusStatistics:
    def test_idf_is_one_before_any_snapshot(self) -> None:
        stats = CorpusStatistics()
        assert stats.idf("anything") == 1.0

    def test_lazy_refresh_contract(self) -> None:
        stats = CorpusStatistics()
        stats.add_document(["data", "mining"])
        stats.add_document(["data"])
        # live counts updated, snapshot still empty -> idf unchanged
        assert stats.idf("data") == 1.0
        stats.refresh()
        assert stats._snapshot_n == 2
        assert stats.idf("data") == pytest.approx(math.log(1 + 2 / 2))
        assert stats.idf("mining") == pytest.approx(math.log(1 + 2 / 1))

    def test_unseen_term_gets_max_idf(self) -> None:
        stats = CorpusStatistics()
        for _ in range(9):
            stats.add_document(["common"])
        stats.refresh()
        assert stats.idf("novel") == pytest.approx(math.log(1 + 9))
        assert stats.idf("novel") > stats.idf("common")

    def test_duplicate_terms_count_once_per_document(self) -> None:
        stats = CorpusStatistics()
        stats.add_document(["x", "x", "x"])
        stats.refresh()
        assert stats.document_frequency["x"] == 1


class TestTfIdfVectorizer:
    def test_rare_term_outweighs_common_term(self) -> None:
        vec = TfIdfVectorizer()
        vec.ingest(["common", "rare"])
        for _ in range(20):
            vec.ingest(["common"])
        vec.refresh()
        v = vec.vectorize(["common", "rare"])
        assert v.weights["rare"] > v.weights["common"]

    def test_log_tf_dampening(self) -> None:
        vec = TfIdfVectorizer()
        v = vec.vectorize(["t"] * 8 + ["u"])
        # idf == 1 (no snapshot); weight ratio is (1+log 8) not 8.
        assert v.weights["t"] / v.weights["u"] == pytest.approx(
            1 + math.log(8)
        )

    def test_vectorize_counts_matches_vectorize(self) -> None:
        vec = TfIdfVectorizer()
        a = vec.vectorize(["a", "a", "b"])
        b = vec.vectorize_counts({"a": 2, "b": 1, "zero": 0})
        assert dict(a) == dict(b)

    @given(
        st.lists(st.lists(terms, max_size=6), max_size=8),
        st.lists(st.lists(terms, max_size=6), min_size=1, max_size=8),
        st.integers(0, 8),
    )
    def test_idf_reads_the_last_refresh_until_the_next(
        self, before: list[list[str]], after: list[list[str]], retract: int
    ) -> None:
        """Ingests and retracts move the live counts only: until the
        next refresh every idf and weight is the last refresh's, then
        the next one's from the counts as they stand."""
        vec = TfIdfVectorizer()
        for doc in before:
            vec.ingest(doc)
        vec.refresh()
        for doc in after:
            vec.ingest(doc)
        for doc in before[:retract]:
            vec.retract(doc)
        vocabulary = sorted(
            {term for doc in before + after for term in doc} | {"unseen"}
        )

        def idf(documents: list[list[str]], term: str) -> float:
            n = len(documents)
            df = sum(term in doc for doc in documents)
            if n == 0:
                return 1.0
            return math.log(1.0 + n) if df == 0 else math.log(1.0 + n / df)

        weights = vec.vectorize(vocabulary).weights
        for term in vocabulary:
            assert vec.statistics.idf(term) == idf(before, term), term
            assert weights[term] == idf(before, term), term
        vec.refresh()
        live = before[retract:] + after
        for term in vocabulary:
            assert vec.statistics.idf(term) == idf(live, term), term

    @given(st.lists(terms, max_size=30))
    def test_vector_has_one_weight_per_distinct_term(self, doc: list[str]) -> None:
        vec = TfIdfVectorizer()
        v = vec.vectorize(doc)
        assert len(v) == len(set(doc))
        assert all(w > 0 for _, w in v)
