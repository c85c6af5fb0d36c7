"""Tests for workspace batching and the bulk loader."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database


def topic_row(i: int) -> tuple:
    """An ``archetypes`` row."""
    return (f"t{i}", i, "seed", 1.0, 0)


class TestBulkLoader:
    def test_batch_size_must_be_positive(self) -> None:
        with pytest.raises(ValueError):
            BulkLoader(Database(), batch_size=0)

    def test_rows_buffered_until_batch_full(self) -> None:
        loader = BulkLoader(Database(), batch_size=10)
        for i in range(9):
            loader.add(0, "archetypes", topic_row(i))
        assert loader.rows_loaded == 0
        assert loader.pending == 9
        loader.add(0, "archetypes", topic_row(9))
        assert loader.rows_loaded == 10
        assert loader.pending == 0
        assert loader.flushes == 1

    def test_flush_all_drains_partial_buffers(self) -> None:
        database = Database()
        loader = BulkLoader(database, batch_size=100)
        for i in range(7):
            loader.add(0, "archetypes", topic_row(i))
        assert loader.flush_all() == 7
        assert len(database["archetypes"]) == 7
        assert loader.flush_all() == 0  # idempotent when empty

    def test_workspaces_are_per_thread(self) -> None:
        loader = BulkLoader(Database(), batch_size=5)
        for thread in range(3):
            for i in range(4):
                loader.add(thread, "archetypes", topic_row(thread * 10 + i))
        # no single workspace reached the batch size
        assert loader.rows_loaded == 0
        assert loader.pending == 12
        assert loader.flush_all() == 12

    def test_batching_reduces_statement_count(self) -> None:
        """The efficiency lesson of section 4.1: one statement per batch."""
        batched = Database()
        loader = BulkLoader(batched, batch_size=50)
        for i in range(200):
            loader.add(0, "archetypes", topic_row(i))
        loader.flush_all()

        row_at_a_time = Database()
        for i in range(200):
            row_at_a_time["archetypes"].insert(topic_row(i))

        assert batched["archetypes"].statements == 4
        assert row_at_a_time["archetypes"].statements == 200
        assert len(batched["archetypes"]) == len(row_at_a_time["archetypes"])

    def test_multiple_relations_per_workspace(self) -> None:
        database = Database()
        loader = BulkLoader(database, batch_size=100)
        loader.add(0, "archetypes", topic_row(1))
        loader.add(0, "crawl_log", (1, "http://h/", "ok", 0.5, 0.0))
        loader.flush_all()
        assert len(database["archetypes"]) == 1
        assert len(database["crawl_log"]) == 1


class _Recorder:
    """A relation that only records the batches it is handed."""

    def __init__(self) -> None:
        self.batches: list[tuple[str, list]] = []

    def __getitem__(self, name: str) -> "_Recorder":
        self.name = name
        return self

    def bulk_insert(self, rows: list) -> int:
        self.batches.append((self.name, list(rows)))
        return len(rows)


# (workspace, relation, row count) per call; rows are numbered across
# calls so every batch names exactly the rows it carries
_CALLS = st.lists(
    st.tuples(
        st.integers(0, 2), st.sampled_from(["terms", "links"]),
        st.integers(0, 40),
    ),
    max_size=12,
)


class TestAddManyCadence:
    @given(calls=_CALLS, batch_size=st.integers(1, 17),
           as_iterator=st.booleans())
    def test_add_many_flushes_the_batches_a_loop_of_add_would(
        self, calls, batch_size: int, as_iterator: bool
    ) -> None:
        one_by_one, sliced = _Recorder(), _Recorder()
        looped = BulkLoader(one_by_one, batch_size=batch_size)
        bulk = BulkLoader(sliced, batch_size=batch_size)
        first = 0
        for thread, relation, count in calls:
            rows = [(n,) for n in range(first, first + count)]
            first += count
            for row in rows:
                looped.add(thread, relation, row)
            bulk.add_many(thread, relation, iter(rows) if as_iterator else rows)
            assert sliced.batches == one_by_one.batches
            assert bulk.pending == looped.pending
        assert bulk.flush_all() == looped.flush_all()
        assert sliced.batches == one_by_one.batches
        assert (bulk.rows_loaded, bulk.flushes) == (
            looped.rows_loaded, looped.flushes
        )
