"""Tests for the embedded relational store."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError, StorageError
from repro.storage.database import Database, Relation
from repro.storage.schema import Column, RelationSchema


def make_relation() -> Relation:
    return Relation(
        RelationSchema(
            name="docs",
            columns=(
                Column("doc_id", int),
                Column("url", str),
                Column("topic", str, nullable=True),
            ),
            primary_key=("doc_id",),
            indexes=(("url",), ("topic",)),
        )
    )


class TestRelation:
    def test_insert_and_get(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", "db"))
        assert rel.get(1)["url"] == "http://a/"
        assert len(rel) == 1

    def test_duplicate_pk_rejected(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", None))
        with pytest.raises(StorageError):
            rel.insert((1, "http://b/", None))

    def test_index_lookup(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", "db"))
        rel.insert((2, "http://b/", "db"))
        rel.insert((3, "http://c/", "ir"))
        assert len(rel.lookup(("topic",), "db")) == 2
        assert rel.lookup(("url",), "http://c/")[0]["doc_id"] == 3
        assert rel.lookup(("topic",), "none-such") == []

    def test_lookup_returns_rows_in_insertion_order(self) -> None:
        # string keys: a set of them iterates in PYTHONHASHSEED order
        rel = make_relation()
        for i in range(40):
            rel.insert((i, f"http://{i}/", "db"))
        born_late = [row["doc_id"] for row in rel.lookup(("topic",), "db")]
        assert born_late == list(range(40))
        # ... and the same once the index is maintained, not rebuilt
        rel.bulk_insert((i, f"http://{i}/", "db") for i in range(40, 80))
        rel.delete(url="http://3/")
        rel.upsert((5, "http://5b/", "db"))
        ids = [row["doc_id"] for row in rel.lookup(("topic",), "db")]
        assert ids == [row["doc_id"] for row in rel.scan()]
        assert ids == [i for i in range(80) if i not in (3, 5)] + [5]

    def test_first_lookup_builds_only_the_index_asked_for(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", "db"))
        assert rel._indexes == {}
        rel.lookup(("topic",), "db")
        assert list(rel._indexes) == [("topic",)]

    def test_lookup_on_undeclared_index_raises(self) -> None:
        rel = make_relation()
        with pytest.raises(StorageError):
            rel.lookup(("doc_id",), 1)

    def test_scan_with_predicate(self) -> None:
        rel = make_relation()
        for i in range(5):
            rel.insert((i, f"http://{i}/", None))
        assert len(rel.scan(lambda r: r["doc_id"] % 2 == 0)) == 3
        assert len(rel.scan()) == 5

    def test_delete_by_primary_key_pops_one_row(self) -> None:
        rel = make_relation()
        rel.bulk_insert((i, f"http://{i}/", "db") for i in range(5))
        rel.lookup(("topic",), "db")  # an index to maintain
        assert rel.delete(doc_id=3) == 1
        assert rel.delete(doc_id=3) == 0
        assert rel.delete(doc_id=3, topic="ir") == 0  # not the key: a scan
        assert [row["doc_id"] for row in rel.lookup(("topic",), "db")] == [
            0, 1, 2, 4,
        ]

    def test_delete_on_an_unknown_column_raises(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", "db"))
        with pytest.raises(SchemaError, match="no column 'zzz'"):
            rel.delete(zzz=1)
        assert len(rel) == 1

    def test_rows_are_stored_as_given_and_named_on_read(self) -> None:
        rel = make_relation()
        row = (1, "http://a/", "db")
        rel.insert(row)
        assert rel.rows()[0] is row
        assert rel.get(1) == {"doc_id": 1, "url": "http://a/", "topic": "db"}
        assert rel.scan() == [rel.get(1)] == rel.lookup(("url",), "http://a/")
        rel.update((1,), url="http://b/")
        assert rel.rows() == [(1, "http://b/", "db")]

    def test_delete_maintains_indexes(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", "db"))
        rel.insert((2, "http://b/", "db"))
        assert rel.delete(topic="db") == 2
        assert rel.lookup(("topic",), "db") == []
        assert len(rel) == 0

    def test_update_reindexes(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", "db"))
        rel.update((1,), topic="ir")
        assert rel.lookup(("topic",), "db") == []
        assert rel.lookup(("topic",), "ir")[0]["doc_id"] == 1

    def test_update_unknown_key_raises(self) -> None:
        with pytest.raises(StorageError):
            make_relation().update((9,), topic="x")

    def test_update_key_column_rejected(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", None))
        with pytest.raises(StorageError):
            rel.update((1,), doc_id=2)

    def test_upsert_replaces(self) -> None:
        rel = make_relation()
        rel.upsert((1, "http://a/", "db"))
        rel.upsert((1, "http://a2/", "ir"))
        assert len(rel) == 1
        assert rel.get(1)["url"] == "http://a2/"
        assert rel.lookup(("url",), "http://a/") == []

    def test_bulk_insert_counts_one_statement(self) -> None:
        rel = make_relation()
        rows = [(i, f"http://{i}/", None) for i in range(50)]
        assert rel.bulk_insert(rows) == 50
        assert rel.statements == 1
        assert len(rel) == 50

    def test_bulk_insert_duplicate_raises_like_single_inserts(self) -> None:
        rows = [(i, f"http://{i}/", None) for i in (1, 2, 3, 2, 4)]
        rel = make_relation()
        with pytest.raises(StorageError, match=r"duplicate primary key \(2,\)"):
            rel.bulk_insert(rows)
        assert [row["doc_id"] for row in rel.scan()] == [1, 2, 3]
        # ... and against a key that is already stored
        with pytest.raises(StorageError, match=r"duplicate primary key \(3,\)"):
            rel.bulk_insert([(7, "http://7/", None), (3, "http://3b/", None)])
        assert [row["doc_id"] for row in rel.scan()] == [1, 2, 3, 7]

    def test_bulk_insert_schema_error_rejects_the_batch(self) -> None:
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.bulk_insert([(1, "http://1/", None), (2, 2, None)])
        assert len(rel) == 0

    def test_contains(self) -> None:
        rel = make_relation()
        rel.insert((7, "http://x/", None))
        assert (7,) in rel
        assert (8,) not in rel

    @given(st.lists(st.integers(min_value=0, max_value=200), unique=True, max_size=60))
    def test_insert_then_get_roundtrip(self, ids: list[int]) -> None:
        rel = make_relation()
        for i in ids:
            rel.insert((i, f"http://{i}/", None))
        for i in ids:
            assert rel.get(i)["doc_id"] == i
        assert len(rel) == len(ids)


class TestDatabase:
    def test_default_schema_loaded(self) -> None:
        database = Database()
        assert len(database.relations) == 6
        assert database["documents"].schema.name == "documents"

    def test_unknown_relation_raises(self) -> None:
        with pytest.raises(StorageError):
            Database().table("nope")

    def test_total_rows_and_statements(self) -> None:
        database = Database()
        database["archetypes"].insert(("db", 1, "seed", 1.0, 0))
        database["archetypes"].insert(("ir", 2, "seed", 1.0, 0))
        assert database.total_rows == 2
        assert database.total_statements == 2

    def test_validate_flag_disables_checks(self) -> None:
        database = Database(validate=False)
        # wrong type slips through when validation is off (fast path)
        database["archetypes"].insert((5, 1, None, "x", 0))
        assert database.total_rows == 1
