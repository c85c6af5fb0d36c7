"""Tests for relation schema declarations and row validation."""

from __future__ import annotations

import pytest

import repro.storage
import repro.storage.persistence
from repro.errors import SchemaError
from repro.storage.schema import BINGO_SCHEMA, Column, RelationSchema


def simple_schema() -> RelationSchema:
    return RelationSchema(
        name="t",
        columns=(
            Column("id", int),
            Column("name", str),
            Column("score", float, nullable=True),
        ),
        primary_key=("id",),
    )


class TestColumn:
    def test_accepts_matching_type(self) -> None:
        Column("x", int).check(5)

    def test_rejects_wrong_type(self) -> None:
        with pytest.raises(SchemaError):
            Column("x", int).check("five")

    def test_nullable(self) -> None:
        Column("x", str, nullable=True).check(None)
        with pytest.raises(SchemaError):
            Column("x", str).check(None)

    def test_int_accepted_for_float_column(self) -> None:
        Column("x", float).check(3)


class TestRelationSchema:
    def test_validate_rows_ok(self) -> None:
        simple_schema().validate_rows([(1, "a", None), (2, "b", 0.5)])
        simple_schema().validate_rows([(3, "c", 4)])  # an int is a float
        simple_schema().validate_rows([])

    def test_unknown_column_rejected(self) -> None:
        # a fourth value has no column to go in
        with pytest.raises(SchemaError, match="tuple of 3 values"):
            simple_schema().validate_rows([(1, "a", None), (2, "b", 1.0, 1)])

    def test_missing_non_nullable_rejected(self) -> None:
        with pytest.raises(SchemaError, match="tuple of 3 values"):
            simple_schema().validate_rows([(1,)])
        with pytest.raises(SchemaError, match="'name' is not nullable"):
            simple_schema().validate_rows([(1, "a", None), (2, None, None)])

    def test_wrong_type_rejected_in_any_row_of_the_batch(self) -> None:
        rows = [(i, "a", None) for i in range(5)] + [(5, "a", "high")]
        with pytest.raises(SchemaError, match="'score' expects float"):
            simple_schema().validate_rows(rows)

    def test_a_row_is_a_tuple(self) -> None:
        with pytest.raises(SchemaError, match="tuple of 3 values"):
            simple_schema().validate_rows([[1, "a", None]])
        with pytest.raises(SchemaError, match="tuple of 3 values"):
            simple_schema().validate_rows([{"id": 1, "name": "a", "score": None}])

    def test_row_getter_is_positional(self) -> None:
        schema = simple_schema()
        assert schema.row_getter(["id"])((1, "a", None)) == (1,)
        assert schema.row_getter(["name", "score"])((1, "a", 2.0)) == ("a", 2.0)
        assert schema.row_getter(["score", "id"])((1, "a", 2.0)) == (2.0, 1)

    def test_duplicate_columns_rejected(self) -> None:
        with pytest.raises(SchemaError):
            RelationSchema(
                "bad", (Column("a", int), Column("a", int)), ("a",)
            )

    def test_key_over_unknown_column_rejected(self) -> None:
        with pytest.raises(SchemaError):
            RelationSchema("bad", (Column("a", int),), ("zzz",))


class TestBingoSchema:
    def test_holds_the_relations_the_crawl_writes(self) -> None:
        assert list(BINGO_SCHEMA) == [
            "documents", "terms", "links", "anchor_texts", "crawl_log",
            "archetypes",
        ]

    def test_core_relations_present(self) -> None:
        for name in ["documents", "terms", "links", "anchor_texts"]:
            assert name in BINGO_SCHEMA

    def test_unwritten_relations_stay_gone(self) -> None:
        for name in ["term_statistics", "features", "hosts", "feedback"]:
            assert name not in BINGO_SCHEMA
        assert not hasattr(repro.storage, "sync_term_statistics")
        assert not hasattr(repro.storage.persistence, "sync_term_statistics")

    def test_every_relation_has_primary_key(self) -> None:
        for schema in BINGO_SCHEMA.values():
            assert schema.primary_key
