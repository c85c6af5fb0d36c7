"""Tests for archetype selection (paper section 3.2)."""

from __future__ import annotations

from repro.core.archetypes import select_archetypes


def test_union_of_confidence_and_authority_candidates() -> None:
    decision = select_archetypes(
        confidence_candidates=[(1, 0.9), (2, 0.8)],
        authority_candidates=[(3, 0.7), (2, 0.6)],
        training_confidences={100: 0.1},
        document_confidences={1: 0.9, 2: 0.8, 3: 0.75},
    )
    added = {doc_id: source for doc_id, _conf, source in decision.added}
    assert set(added) == {1, 2}  # cap = min(N_auth, N_conf) = 2
    assert added[2] == "both"
    assert added[1] == "confidence"


def test_cap_is_min_of_both_lists() -> None:
    decision = select_archetypes(
        confidence_candidates=[(i, 0.9) for i in range(10)],
        authority_candidates=[(99, 0.5)],
        training_confidences={},
        document_confidences={i: 0.9 for i in range(10)} | {99: 0.4},
    )
    assert len(decision.added) == 1  # min(1, 10)


def test_max_new_also_caps() -> None:
    decision = select_archetypes(
        confidence_candidates=[(i, 0.9) for i in range(10)],
        authority_candidates=[(i, 0.5) for i in range(10)],
        training_confidences={},
        document_confidences={i: 0.9 for i in range(10)},
        max_new=3,
    )
    assert len(decision.added) == 3


def test_mean_confidence_threshold_blocks_weak_candidates() -> None:
    decision = select_archetypes(
        confidence_candidates=[(1, 0.2), (2, 0.9)],
        authority_candidates=[(1, 0.5), (2, 0.4)],
        training_confidences={10: 0.5, 11: 0.7},  # mean 0.6
        document_confidences={1: 0.2, 2: 0.9},
    )
    assert [doc_id for doc_id, _, _ in decision.added] == [2]
    assert decision.previous_mean == 0.6


def test_threshold_can_be_disabled() -> None:
    decision = select_archetypes(
        confidence_candidates=[(1, 0.2), (2, 0.9)],
        authority_candidates=[(1, 0.5), (2, 0.4)],
        training_confidences={10: 0.5, 11: 0.7},
        document_confidences={1: 0.2, 2: 0.9},
        enforce_threshold=False,
    )
    assert set([doc_id for doc_id, _, _ in decision.added]) == {1, 2}
    assert decision.removed == []


def test_existing_training_docs_not_re_added() -> None:
    decision = select_archetypes(
        confidence_candidates=[(10, 0.99)],
        authority_candidates=[(10, 0.9)],
        training_confidences={10: 0.9},
        document_confidences={10: 0.99},
    )
    assert decision.added == []


def test_laggards_removed_but_bounded_by_additions() -> None:
    decision = select_archetypes(
        confidence_candidates=[(1, 0.95)],
        authority_candidates=[(1, 0.9)],
        training_confidences={10: 0.05, 11: 0.06, 12: 0.9},  # mean ~0.34
        document_confidences={1: 0.95},
    )
    assert [doc_id for doc_id, _, _ in decision.added] == [1]
    # two laggards below the previous mean, but only one promotion
    assert len(decision.removed) == 1
    assert decision.removed[0] == 10  # the weakest first


def test_protected_docs_never_removed() -> None:
    decision = select_archetypes(
        confidence_candidates=[(1, 0.95)],
        authority_candidates=[(1, 0.9)],
        training_confidences={10: 0.01, 11: 0.8},
        document_confidences={1: 0.95},
        protected={10},
    )
    assert 10 not in decision.removed


def test_no_candidates_no_changes() -> None:
    decision = select_archetypes(
        confidence_candidates=[],
        authority_candidates=[],
        training_confidences={10: 0.5},
        document_confidences={},
    )
    assert decision.added == []
    assert decision.removed == []


def test_new_mean_reflects_additions() -> None:
    decision = select_archetypes(
        confidence_candidates=[(1, 1.0)],
        authority_candidates=[(1, 1.0)],
        training_confidences={10: 0.5},
        document_confidences={1: 1.0},
    )
    assert decision.new_mean == 0.75
