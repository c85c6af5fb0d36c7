"""Unit and property tests for the red-black tree."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.rbtree import RedBlackTree


class TestBasics:
    def test_empty(self) -> None:
        tree = RedBlackTree()
        assert len(tree) == 0
        assert not tree
        with pytest.raises(IndexError):
            tree.pop_min()
        with pytest.raises(IndexError):
            tree.pop_max()
        with pytest.raises(IndexError):
            tree.peek_max()

    def test_insert_and_pop_order(self) -> None:
        tree = RedBlackTree()
        for key in [5, 1, 9, 3, 7]:
            tree.insert((key,), f"v{key}")
        assert tree.pop_min() == ((1,), "v1")
        assert tree.pop_max() == ((9,), "v9")
        assert tree.pop_max() == ((7,), "v7")
        assert len(tree) == 2

    def test_peek_does_not_remove(self) -> None:
        tree = RedBlackTree()
        tree.insert((1,))
        tree.insert((2,))
        assert tree.peek_max() == ((2,), None)
        assert len(tree) == 2

    def test_duplicates_allowed(self) -> None:
        tree = RedBlackTree()
        tree.insert((1,), "a")
        tree.insert((1,), "b")
        assert len(tree) == 2
        popped = {tree.pop_min()[1], tree.pop_min()[1]}
        assert popped == {"a", "b"}

    def test_items_in_order(self) -> None:
        tree = RedBlackTree()
        for key in [4, 2, 8, 6, 0]:
            tree.insert((key,))
        keys = [k for k, _ in tree.items_in_order()]
        assert keys == sorted(keys)


class TestInvariants:
    @given(st.lists(st.integers(min_value=0, max_value=1000), max_size=200))
    @settings(max_examples=60)
    def test_invariants_hold_after_inserts(self, keys: list[int]) -> None:
        tree = RedBlackTree()
        for key in keys:
            tree.insert((key,))
        tree.check_invariants()
        assert len(tree) == len(keys)

    @given(
        st.lists(st.integers(min_value=0, max_value=100), max_size=120),
        st.lists(st.booleans(), max_size=120),
    )
    @settings(max_examples=60)
    def test_invariants_after_mixed_pops(self, keys, pops) -> None:
        tree = RedBlackTree()
        reference: list[int] = []
        for key in keys:
            tree.insert((key,))
            reference.append(key)
        for take_max in pops:
            if not reference:
                break
            if take_max:
                key, _ = tree.pop_max()
                expected = max(reference)
            else:
                key, _ = tree.pop_min()
                expected = min(reference)
            assert key == (expected,)
            reference.remove(expected)
            tree.check_invariants()
        assert len(tree) == len(reference)

    @given(st.lists(st.integers(), min_size=1, max_size=150))
    @settings(max_examples=60)
    def test_drain_yields_sorted_sequence(self, keys: list[int]) -> None:
        tree = RedBlackTree()
        for key in keys:
            tree.insert((key,))
        drained = [tree.pop_min()[0][0] for _ in range(len(keys))]
        assert drained == sorted(keys)
        assert len(tree) == 0
