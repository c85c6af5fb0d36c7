"""Tests for database dump/restore."""

from __future__ import annotations

import json

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage.database import Database
from repro.storage.persistence import dump_database, load_database
from repro.storage.schema import BINGO_SCHEMA

from tests.conftest import named_rows


def total_rows(database: Database) -> int:
    return sum(map(len, database.relations.values()))


def populated_database() -> Database:
    database = Database()
    database["archetypes"].insert(("db", 1, "seed", 1.0, 0))
    database["documents"].insert(
        (1, "http://a/", "a", "text/html", 100, "t", "db", 0.5, 0, 1.0, 7)
    )
    database["terms"].insert((1, "databas", 3))
    return database


_SAMPLES = {
    int: [0, -7, 2**40],
    str: ["", "caf\u00e9 \u65e5\u672c\u8a9e \"quoted\"\n", "plain"],
    float: [0.1, -2.5e-9, 3],  # an int is a legal float value
}


def every_relation_populated() -> Database:
    """Three rows in each relation: every column type, None in every
    nullable column, non-ASCII text, an int in a float column."""
    database = Database()
    for name, schema in BINGO_SCHEMA.items():
        # the samples differ per row, so the leading key column does too
        database[name].bulk_insert(
            tuple(
                None if column.nullable and i == 1
                else _SAMPLES[column.type][i]
                for column in schema.columns
            )
            for i in range(3)
        )
    return database


class TestRoundTrip:
    def test_every_relation_round_trips_exactly(self, tmp_path) -> None:
        database = every_relation_populated()
        assert dump_database(database, tmp_path) == 3 * len(BINGO_SCHEMA)
        restored = load_database(tmp_path)
        assert list(restored.relations) == list(BINGO_SCHEMA)
        for name, relation in database.relations.items():
            before, after = relation.rows(), restored[name].rows()
            assert after == before, name
            assert set(map(type, after)) == {tuple}, name
            # == lets 3 pass for 3.0: pin the types too
            assert [list(map(type, row)) for row in after] == [
                list(map(type, row)) for row in before
            ], name

    def test_rows_are_written_in_chunks_not_one_per_line(self, tmp_path) -> None:
        database = Database()
        database["terms"].bulk_insert((i, f"t{i}", 1) for i in range(10_000))
        dump_database(database, tmp_path)
        lines = (tmp_path / "terms.jsonl").read_text().splitlines()
        assert 1 < len(lines) <= 4
        assert json.loads(lines[0])[0] == [0, "t0", 1]
        assert len(load_database(tmp_path)["terms"]) == 10_000

    def test_load_into_an_existing_database(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        target = Database()
        target["archetypes"].insert(("ir", 2, "seed", 1.0, 0))
        assert load_database(tmp_path, into=target) is target
        assert total_rows(target) == 4
        # a second load collides with the rows of the first
        with pytest.raises(StorageError, match="duplicate primary key"):
            load_database(tmp_path, into=target)

    def test_stamp_round_trips_and_is_compared(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path, stamp=4)
        assert total_rows(load_database(tmp_path, stamp=4)) == 3
        assert total_rows(load_database(tmp_path)) == 3
        with pytest.raises(StorageError, match="stamped 4"):
            load_database(tmp_path, stamp=5)

    def test_dump_and_load(self, tmp_path) -> None:
        database = populated_database()
        rows = dump_database(database, tmp_path)
        assert rows == 3
        restored = load_database(tmp_path)
        assert total_rows(restored) == 3
        [document] = named_rows(restored["documents"])
        assert document["doc_id"] == 1 and document["url"] == "http://a/"
        assert [row["term"] for row in named_rows(restored["terms"])] == [
            "databas"
        ]

    def test_empty_database_round_trips(self, tmp_path) -> None:
        dump_database(Database(), tmp_path)
        restored = load_database(tmp_path)
        assert total_rows(restored) == 0


class TestFailureModes:
    def test_missing_manifest(self, tmp_path) -> None:
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_wrong_format_version(self, tmp_path) -> None:
        dump_database(Database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 99
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_schema_mismatch_detected(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["relations"]["documents"]["columns"] = ["doc_id", "zzz"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_row_count_mismatch_detected(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        (tmp_path / "terms.jsonl").write_text("")  # truncate
        with pytest.raises(StorageError):
            load_database(tmp_path)

    def test_version_1_dump_refused(self, tmp_path) -> None:
        # what the previous format looked like: one object per row
        (tmp_path / "terms.jsonl").write_text(
            json.dumps({"doc_id": 1, "term": "databas", "tf": 3}) + "\n"
        )
        (tmp_path / "manifest.json").write_text(json.dumps({
            "format_version": 1,
            "relations": {"terms": {
                "rows": 1, "columns": ["doc_id", "term", "tf"],
            }},
        }))
        with pytest.raises(StorageError, match="unsupported dump format 1"):
            load_database(tmp_path)

    def test_object_rows_under_a_v2_manifest_refused(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        (tmp_path / "terms.jsonl").write_text(
            json.dumps({"doc": 1, "ter": "databas", "tf": 3}) + "\n"
        )
        with pytest.raises(StorageError, match="corrupt dump file"):
            load_database(tmp_path)

    @pytest.mark.parametrize("record", [
        [1, "databas"],            # short
        [1, "databas", 3, "x"],    # long
    ])
    def test_wrong_row_width_refused(self, tmp_path, record) -> None:
        dump_database(populated_database(), tmp_path)
        (tmp_path / "terms.jsonl").write_text(json.dumps([record]) + "\n")
        with pytest.raises(StorageError, match="corrupt dump file"):
            load_database(tmp_path)

    def test_torn_line_refused(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        path = tmp_path / "documents.jsonl"
        path.write_text(path.read_text()[:-20])
        with pytest.raises(StorageError, match="corrupt dump file"):
            load_database(tmp_path)

    def test_extra_row_refused(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        with (tmp_path / "terms.jsonl").open("a") as handle:
            handle.write(json.dumps([[2, "index", 1]]) + "\n")
        with pytest.raises(StorageError, match="expected 1 rows, found 2"):
            load_database(tmp_path)

    def test_unknown_column_in_manifest_refused(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["relations"]["terms"]["columns"].append("weight")
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="do not match"):
            load_database(tmp_path)

    def test_unknown_relation_refused(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["relations"]["nope"] = {"rows": 0, "columns": []}
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="unknown relation"):
            load_database(tmp_path)

    def test_missing_relation_file_refused(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        (tmp_path / "terms.jsonl").unlink()
        with pytest.raises(StorageError, match="missing dump file"):
            load_database(tmp_path)

    def test_wrong_value_type_refused_by_the_target(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        (tmp_path / "terms.jsonl").write_text(
            json.dumps([[1, "databas", "three"]]) + "\n"
        )
        with pytest.raises(SchemaError):
            load_database(tmp_path)

    def test_nothing_is_inserted_when_a_later_file_is_bad(self, tmp_path) -> None:
        dump_database(every_relation_populated(), tmp_path)
        last = list(BINGO_SCHEMA)[-1]
        (tmp_path / f"{last}.jsonl").write_text("[[1, 2")
        target = Database()
        with pytest.raises(StorageError):
            load_database(tmp_path, into=target)
        assert total_rows(target) == 0


class TestChain:
    """Segments: each holds what the relations gained since the one it
    extends; a relation written from row 0 replaces the chain's copy."""

    @staticmethod
    def three_segments(tmp_path):
        database = Database()
        terms, archetypes = database["terms"], database["archetypes"]
        segments = [tmp_path / f"s{i}" for i in range(3)]
        terms.bulk_insert([(1, "a", 1), (1, "b", 2)])
        archetypes.upsert(("db", 1, "seed", 0.5, 0))
        dump_database(database, segments[0], stamp=0)
        terms.bulk_insert([(2, "a", 3)])
        dump_database(
            database, segments[1], stamp=1, after=0,
            since={"terms": 2, "archetypes": 1},
        )
        terms.insert((3, "c", 1))
        archetypes.upsert(("db", 2, "seed", 0.1, 0))
        archetypes.upsert(("db", 1, "seed", 0.9, 0))  # an overwrite
        dump_database(
            database, segments[2], stamp=2, after=1, since={"terms": 3},
        )
        return database, segments

    def test_a_chain_restores_the_database_row_for_row(self, tmp_path) -> None:
        database, segments = self.three_segments(tmp_path)
        written = [
            json.loads((s / "manifest.json").read_text())["relations"]
            for s in segments
        ]
        assert [w["terms"]["rows"] for w in written] == [2, 1, 1]
        assert [w["terms"]["start"] for w in written] == [0, 2, 3]
        # rewritten whole where it saw an overwrite
        assert [w["archetypes"]["rows"] for w in written] == [1, 0, 2]
        assert [w["archetypes"]["start"] for w in written] == [0, 1, 0]
        restored = load_database(segments, stamp=2)
        for name, relation in database.relations.items():
            assert restored[name].rows() == relation.rows(), name
        assert database["archetypes"].replaced == 1
        assert restored["archetypes"].replaced == 0

    def test_a_segment_alone_is_no_dump(self, tmp_path) -> None:
        _, segments = self.three_segments(tmp_path)
        with pytest.raises(StorageError, match="extends 0"):
            load_database(segments[1])
        with pytest.raises(StorageError, match="chain is empty"):
            load_database([])

    def test_a_missing_or_reordered_segment_is_refused(self, tmp_path) -> None:
        _, segments = self.three_segments(tmp_path)
        for chain in (
            [segments[0], segments[2]],
            [segments[1], segments[0], segments[2]],
            [segments[0], segments[1], segments[1], segments[2]],
        ):
            target = Database()
            with pytest.raises(StorageError, match="extends"):
                load_database(chain, into=target)
            assert not any(map(len, target.relations.values()))
        with pytest.raises(StorageError, match="stamped 2, expected 3"):
            load_database(segments, stamp=3)

    def test_a_segment_that_skips_rows_is_refused(self, tmp_path) -> None:
        _, segments = self.three_segments(tmp_path)
        manifest_path = segments[1] / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        manifest["relations"]["terms"]["start"] = 3
        manifest_path.write_text(json.dumps(manifest))
        target = Database()
        with pytest.raises(StorageError, match="starts at row 3"):
            load_database(segments, into=target)
        assert not any(map(len, target.relations.values()))

    def test_version_2_dump_refused(self, tmp_path) -> None:
        dump_database(populated_database(), tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        manifest["format_version"] = 2
        for info in manifest["relations"].values():
            del info["start"]
        del manifest["after"]
        (tmp_path / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(StorageError, match="unsupported dump format 2"):
            load_database(tmp_path)
