"""Stateful check of :class:`Relation` against a brute-force model.

The store only appends (``insert``, ``bulk_insert``), replaces by key
(``upsert``) and dumps.  The machine interleaves those writes with
dump -> load round trips at random points and holds the relation to a
dict model kept in the order ``rows()`` promises: insertion order, a
replaced row moving to the end.  It runs on ``archetypes``, the
relation the engine upserts into, with small domains so keys collide.
"""

from __future__ import annotations

import tempfile

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.persistence import dump_database, load_database
from repro.storage.schema import BINGO_SCHEMA

SCHEMA = BINGO_SCHEMA["archetypes"]

_KEYS = st.tuples(
    st.sampled_from(["ROOT/db", "ROOT/ir"]),  # topic
    st.integers(0, 2),  # doc_id
    st.integers(0, 1),  # iteration
)
_ROWS = st.builds(
    lambda key, source, score: {
        "topic": key[0], "doc_id": key[1], "source": source,
        "score": score, "iteration": key[2],
    },
    _KEYS,
    st.sampled_from(["seed", "authority"]),
    st.sampled_from([0.5, 1.0, 2]),  # an int is a legal float value
)


def _key(row: dict) -> tuple:
    return (row["topic"], row["doc_id"], row["iteration"])


def _stored(row: dict) -> tuple:
    return tuple(row[column] for column in SCHEMA.column_names)


class RelationMachine(RuleBasedStateMachine):
    """``model`` maps primary key -> row in the order ``rows`` promises."""

    def __init__(self) -> None:
        super().__init__()
        self.database = Database()
        self.relation = self.database["archetypes"]
        self.model: dict[tuple, dict] = {}

    def _model_insert(self, row: dict) -> None:
        if _key(row) in self.model:
            raise StorageError("duplicate")
        self.model[_key(row)] = row

    @rule(row=_ROWS)
    def insert(self, row: dict) -> None:
        try:
            self._model_insert(row)
        except StorageError:
            with pytest.raises(StorageError, match="duplicate primary key"):
                self.relation.insert(_stored(row))
        else:
            self.relation.insert(_stored(row))

    @rule(rows=st.lists(_ROWS, max_size=8))
    def bulk_insert(self, rows: list[dict]) -> None:
        # the model is the row-at-a-time loop: rows before the first
        # taken key go in, the batch raises on exactly that key
        try:
            for row in rows:
                self._model_insert(row)
        except StorageError:
            taken = _key(row)
            with pytest.raises(StorageError) as raised:
                self.relation.bulk_insert(list(map(_stored, rows)))
            assert repr(taken) in str(raised.value)
        else:
            assert self.relation.bulk_insert(map(_stored, rows)) == len(rows)

    @rule(row=_ROWS)
    def upsert(self, row: dict) -> None:
        self.model.pop(_key(row), None)  # a replaced row moves to the end
        self.model[_key(row)] = row
        self.relation.upsert(_stored(row))

    @rule()
    def dump_and_load(self) -> None:
        # the dump is the store's one reader: what it writes must load
        # back as the same rows, values, types and order
        before = self.relation.rows()
        with tempfile.TemporaryDirectory() as directory:
            dump_database(self.database, directory)
            self.database = load_database(directory)
        self.relation = self.database["archetypes"]
        after = self.relation.rows()
        assert after == before
        assert [list(map(type, row)) for row in after] == [
            list(map(type, row)) for row in before
        ]

    @invariant()
    def rows_match_the_model(self) -> None:
        assert self.relation.rows() == list(map(_stored, self.model.values()))
        assert len(self.relation) == len(self.model)


TestRelationStateful = RelationMachine.TestCase
TestRelationStateful.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None
)
