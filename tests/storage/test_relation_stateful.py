"""Stateful check of :class:`Relation` against a brute-force model.

Secondary indexes are built by the first ``lookup`` that asks for them,
so an index can be born at any point of a relation's life: empty, after
bulk loads, between an upsert and a delete.  The machine interleaves
every mutation with lookups at random points and holds the relation to
the one definition of a lookup that needs no index at all: a filter
over ``scan()``, in scan order.  The relation stores tuples and reads
back dicts; the model keeps the dicts.
"""

from __future__ import annotations

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.errors import StorageError
from repro.storage.database import Relation
from repro.storage.schema import Column, RelationSchema

SCHEMA = RelationSchema(
    name="pages",
    columns=(
        Column("doc_id", int),
        Column("part", str),
        Column("url", str),
        Column("topic", str, nullable=True),
    ),
    primary_key=("doc_id", "part"),
    indexes=(("url",), ("topic",), ("url", "topic")),
)

# small domains: keys collide, buckets fill up and empty again
_URLS = st.sampled_from(["http://a/", "http://b/", "http://c/"])
_TOPICS = st.sampled_from([None, "db", "ir"])
_KEYS = st.tuples(st.integers(0, 5), st.sampled_from(["head", "body"]))
_ROWS = st.builds(
    lambda key, url, topic: {
        "doc_id": key[0], "part": key[1], "url": url, "topic": topic,
    },
    _KEYS, _URLS, _TOPICS,
)
_INDEX_VALUES = {
    ("url",): st.tuples(_URLS),
    ("topic",): st.tuples(_TOPICS),
    ("url", "topic"): st.tuples(_URLS, _TOPICS),
}
_LOOKUPS = st.sampled_from(SCHEMA.indexes).flatmap(
    lambda index: st.tuples(st.just(index), _INDEX_VALUES[index])
)


def _key(row: dict) -> tuple:
    return (row["doc_id"], row["part"])


def _stored(row: dict) -> tuple:
    return tuple(row[column] for column in SCHEMA.column_names)


class RelationMachine(RuleBasedStateMachine):
    """``model`` maps primary key -> row in the order ``scan`` promises."""

    def __init__(self) -> None:
        super().__init__()
        self.relation = Relation(SCHEMA)
        self.model: dict[tuple, dict] = {}
        self.born: set[tuple[str, ...]] = set()

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

    @rule(key=_KEYS, url=_URLS, topic=_TOPICS, both=st.booleans())
    def update(self, key: tuple, url: str, topic: str | None,
               both: bool) -> None:
        changes = {"url": url, "topic": topic} if both else {"topic": topic}
        if key not in self.model:
            with pytest.raises(StorageError, match="no row"):
                self.relation.update(key, **changes)
            return
        self.model[key] = {**self.model[key], **changes}  # keeps its place
        self.relation.update(key, **changes)

    @rule(url=_URLS)
    def delete_by_url(self, url: str) -> None:
        victims = [k for k, row in self.model.items() if row["url"] == url]
        for key in victims:
            del self.model[key]
        assert self.relation.delete(url=url) == len(victims)

    @rule(key=_KEYS)
    def delete_by_key(self, key: tuple) -> None:
        # the primary-key columns pop one key instead of scanning
        removed = self.model.pop(key, None) is not None
        doc_id, part = key
        assert self.relation.delete(part=part, doc_id=doc_id) == removed

    @rule(lookup=_LOOKUPS)
    def lookup(self, lookup: tuple) -> None:
        index, values = lookup
        self.born.add(index)
        self._check_lookup(index, values)

    def _check_lookup(self, index: tuple[str, ...], values: tuple) -> None:
        expected = [
            row for row in self.relation.scan()
            if tuple(row[c] for c in index) == values
        ]
        assert self.relation.lookup(index, *values) == expected

    @invariant()
    def rows_match_the_model(self) -> None:
        assert self.relation.scan() == list(self.model.values())
        assert self.relation.rows() == list(map(_stored, self.model.values()))
        assert len(self.relation) == len(self.model)
        for key, row in self.model.items():
            assert self.relation.get(*key) == row

    @invariant()
    def born_indexes_match_a_scan(self) -> None:
        # only indexes an earlier lookup created: asking the others
        # here would have every index born at step one
        for index in self.born:
            values = {tuple(row[c] for c in index)
                      for row in self.model.values()}
            for value in sorted(values, key=repr):
                self._check_lookup(index, value)


TestRelationStateful = RelationMachine.TestCase
TestRelationStateful.settings = settings(
    max_examples=120, stateful_step_count=30, deadline=None
)
