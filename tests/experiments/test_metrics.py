"""Tests for the shared evaluation metrics."""

from __future__ import annotations

from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.metrics import BinaryCounts, ranking_precision_at_k


class TestBinaryCounts:
    def test_basic_confusion(self) -> None:
        counts = BinaryCounts()
        counts.update(1, 1)   # tp
        counts.update(1, -1)  # fp
        counts.update(-1, 1)  # fn
        counts.update(-1, -1)  # tn
        assert (counts.tp, counts.fp, counts.fn, counts.tn) == (1, 1, 1, 1)
        assert counts.precision == 0.5
        assert counts.recall == 0.5

    def test_abstention_costs_recall_not_precision(self) -> None:
        counts = BinaryCounts()
        counts.update(0, 1)
        counts.update(1, 1)
        assert counts.abstained == 1
        assert counts.recall == 0.5
        assert counts.precision == 1.0
        assert counts.abstain_rate == 0.5

    def test_degenerate_all_negative_is_zero_precision(self) -> None:
        counts = BinaryCounts()
        counts.update(-1, 1)
        counts.update(-1, -1)
        assert counts.precision == 0.0

    def test_empty_counts(self) -> None:
        counts = BinaryCounts()
        assert counts.precision == 0.0
        assert counts.recall == 0.0
        assert counts.abstain_rate == 0.0

    @given(st.lists(st.tuples(st.sampled_from([1, -1, 0]),
                              st.sampled_from([1, -1])), max_size=60))
    def test_counts_partition_total(self, decisions) -> None:
        counts = BinaryCounts()
        for predicted, actual in decisions:
            counts.update(predicted, actual)
        assert counts.total == len(decisions)
        assert 0.0 <= counts.precision <= 1.0
        assert 0.0 <= counts.recall <= 1.0


class TestRankingPrecision:
    def test_perfect_ranking(self) -> None:
        scored = [(0.9, True), (0.8, True), (0.1, False), (0.0, False)]
        assert ranking_precision_at_k(scored) == 1.0

    def test_inverted_ranking(self) -> None:
        scored = [(0.9, False), (0.8, False), (0.1, True), (0.0, True)]
        assert ranking_precision_at_k(scored) == 0.0

    def test_explicit_k(self) -> None:
        scored = [(0.9, True), (0.8, False), (0.7, True)]
        assert ranking_precision_at_k(scored, k=1) == 1.0
        assert ranking_precision_at_k(scored, k=2) == 0.5

    def test_no_relevant_items(self) -> None:
        assert ranking_precision_at_k([(0.5, False)], k=None) == 1.0

    def test_empty(self) -> None:
        assert ranking_precision_at_k([], k=3) == 0.0

    @given(st.lists(st.tuples(st.floats(0, 1, allow_nan=False),
                              st.booleans()), max_size=40))
    def test_bounded(self, scored) -> None:
        assert 0.0 <= ranking_precision_at_k(scored) <= 1.0
