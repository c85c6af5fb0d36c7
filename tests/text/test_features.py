"""Tests for the feature spaces of paper section 3.4."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.text.features import (
    AnalyzedDocument,
    AnchorTextSpace,
    CombinedSpace,
    TermPairSpace,
    TermSpace,
)
from repro.text.scanner import text_stems


def doc(text: str, anchors=()) -> AnalyzedDocument:
    return AnalyzedDocument(
        stems=text_stems(text), incoming_anchor_terms=list(anchors)
    )


class TestTermSpace:
    def test_counts_stems(self) -> None:
        counts = TermSpace().extract(doc("mining mining databases"))
        assert counts["mine"] == 2
        assert counts["databas"] == 1


class TestTermPairSpace:
    def test_pairs_within_window(self) -> None:
        counts = TermPairSpace(window=1).extract(doc("alpha beta gamma"))
        assert counts["alpha~beta"] == 1
        assert counts["beta~gamma"] == 1
        assert "alpha~gamma" not in counts

    def test_wider_window_reaches_farther(self) -> None:
        counts = TermPairSpace(window=2).extract(doc("alpha beta gamma"))
        assert counts["alpha~gamma"] == 1

    def test_pairs_are_order_normalised(self) -> None:
        a = TermPairSpace(window=3).extract(doc("data mining"))
        b = TermPairSpace(window=3).extract(doc("mining data"))
        assert set(a) == set(b)

    def test_self_pairs_excluded(self) -> None:
        counts = TermPairSpace(window=2).extract(doc("echo echo echo"))
        assert not counts

    def test_invalid_window_rejected(self) -> None:
        with pytest.raises(ValueError):
            TermPairSpace(window=0)

    @given(st.lists(st.sampled_from(["aa", "bb", "cc", "dd"]), max_size=15))
    def test_pair_count_bounded_by_window(self, words: list[str]) -> None:
        window = 3
        document = doc(" ".join(words))
        counts = TermPairSpace(window=window).extract(document)
        n = len(document.stems)
        assert sum(counts.values()) <= n * window


class TestAnchorAndNeighbourSpaces:
    def test_anchor_space_uses_incoming_terms(self) -> None:
        counts = AnchorTextSpace().extract(doc("body", anchors=["mine", "mine"]))
        assert counts["mine"] == 2


class TestCombinedSpace:
    def test_namespacing_prevents_collisions(self) -> None:
        space = CombinedSpace([TermSpace(), AnchorTextSpace()])
        counts = space.extract(doc("mining", anchors=["mine"]))
        assert counts["term:mine"] == 1
        assert counts["anchor:mine"] == 1

    def test_empty_space_list_rejected(self) -> None:
        with pytest.raises(ValueError):
            CombinedSpace([])

    def test_combination_is_additive(self) -> None:
        space = CombinedSpace([TermSpace(), TermPairSpace(window=2)])
        counts = space.extract(doc("data mining"))
        assert counts["term:data"] == 1
        assert counts["pair:data~mine"] == 1
