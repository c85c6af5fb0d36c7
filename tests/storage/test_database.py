"""Tests for the embedded relational store."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.errors import SchemaError, StorageError
from repro.storage.database import Database, Relation
from repro.storage.schema import Column, RelationSchema

from tests.conftest import named_rows


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
        )
    )


class TestRelation:
    def test_insert_and_get(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", "db"))
        assert named_rows(rel) == [
            {"doc_id": 1, "url": "http://a/", "topic": "db"}
        ]
        assert len(rel) == 1

    def test_duplicate_pk_rejected(self) -> None:
        rel = make_relation()
        rel.insert((1, "http://a/", None))
        with pytest.raises(StorageError):
            rel.insert((1, "http://b/", None))

    def test_rows_are_stored_as_given_and_named_on_read(self) -> None:
        rel = make_relation()
        row = (1, "http://a/", "db")
        rel.insert(row)
        assert rel.rows()[0] is row
        assert named_rows(rel) == [
            {"doc_id": 1, "url": "http://a/", "topic": "db"}
        ]

    def test_upsert_replaces(self) -> None:
        rel = make_relation()
        rel.upsert((1, "http://a/", "db"))
        rel.insert((2, "http://b/", "db"))
        rel.upsert((1, "http://a2/", "ir"))
        assert len(rel) == 2
        # the replaced row moves to the end: dump order depends on it
        assert rel.rows() == [(2, "http://b/", "db"), (1, "http://a2/", "ir")]
        assert rel.statements == 3

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
        assert [row[0] for row in rel.rows()] == [1, 2, 3]
        # ... and against a key that is already stored
        with pytest.raises(StorageError, match=r"duplicate primary key \(3,\)"):
            rel.bulk_insert([(7, "http://7/", None), (3, "http://3b/", None)])
        assert [row[0] for row in rel.rows()] == [1, 2, 3, 7]

    def test_bulk_insert_schema_error_rejects_the_batch(self) -> None:
        rel = make_relation()
        with pytest.raises(SchemaError):
            rel.bulk_insert([(1, "http://1/", None), (2, 2, None)])
        assert len(rel) == 0

    def test_only_the_write_and_dump_surface_is_left(self) -> None:
        public = {name for name in vars(Relation) if not name.startswith("_")}
        assert public == {"insert", "bulk_insert", "upsert", "rows"}
        assert "statements" in vars(make_relation())
        assert "indexes" not in RelationSchema.__dataclass_fields__
        for name in ("get", "lookup", "scan", "update", "delete",
                     "__contains__"):
            assert not hasattr(Relation, name), name
        for name in ("total_rows", "total_statements", "schemas"):
            assert not hasattr(Database(), name), name
        with pytest.raises(TypeError):
            Database(**{"schemas": {}})

    @given(st.lists(st.integers(min_value=0, max_value=200), unique=True, max_size=60))
    def test_insert_then_get_roundtrip(self, ids: list[int]) -> None:
        rel = make_relation()
        for i in ids:
            rel.insert((i, f"http://{i}/", None))
        assert [row["doc_id"] for row in named_rows(rel)] == ids
        assert len(rel) == len(ids)


class TestDatabase:
    def test_default_schema_loaded(self) -> None:
        database = Database()
        assert len(database.relations) == 6
        assert database["documents"].schema.name == "documents"

    def test_unknown_relation_raises(self) -> None:
        with pytest.raises(StorageError):
            Database()["nope"]

    def test_total_rows_and_statements(self) -> None:
        database = Database()
        database["archetypes"].insert(("db", 1, "seed", 1.0, 0))
        database["archetypes"].insert(("ir", 2, "seed", 1.0, 0))
        relations = database.relations.values()
        assert sum(len(relation) for relation in relations) == 2
        assert sum(relation.statements for relation in relations) == 2

    def test_validate_flag_disables_checks(self) -> None:
        database = Database(validate=False)
        # wrong type slips through when validation is off (fast path)
        database["archetypes"].insert((5, 1, None, "x", 0))
        assert len(database["archetypes"]) == 1
