"""The embedded relational store.

A :class:`Database` hosts one :class:`Relation` per relation of
:data:`~repro.storage.schema.BINGO_SCHEMA`.  A relation stores the rows
it is given: tuples in column order, checked a batch at a time by
:meth:`RelationSchema.validate_rows`, in a primary-key hash map that
enforces uniqueness.  The store is written, not queried: the crawl
appends rows (``bulk_insert``, ``insert``), the engine replaces an
archetype row by key (``upsert``), and the one reader is
:func:`~repro.storage.persistence.dump_database`, which writes
:meth:`Relation.rows` as they are.  A crawl stores no page-relation
row: those are a view of its pages (:func:`~repro.storage.schema.
page_rows`) that only a full dump writes, and a loaded dump holds; a
checkpoint saves the pages themselves.

``bulk_insert`` is the fast path used by the
:class:`~repro.storage.bulkloader.BulkLoader`: it validates, key-checks
and stores a whole batch with one call, skipping the per-statement and
per-row overhead that the paper found dominated row-at-a-time SQL
inserts.
"""

from __future__ import annotations

from collections.abc import Iterable
from operator import itemgetter
from typing import Any

from repro.errors import StorageError
from repro.storage.schema import BINGO_SCHEMA, RelationSchema, Row

__all__ = ["Relation", "Database"]

Key = tuple[Any, ...]


class Relation:
    """One flat relation: its rows by primary key, in insertion order."""

    def __init__(self, schema: RelationSchema, validate: bool = True) -> None:
        self.schema = schema
        self.validate = validate
        self._rows: dict[Key, Row] = {}
        self._pk = schema.row_getter(schema.primary_key)
        #: one getter per key column: a batch's keys are one C-level zip
        self._key_columns = [
            itemgetter(schema.column_names.index(column))
            for column in schema.primary_key
        ]
        #: simulated per-statement overhead counter (for the throughput bench)
        self.statements = 0
        #: upserts that replaced a stored row: the relation stopped being
        #: an append-only log (a checkpoint then writes it whole)
        self.replaced = 0

    def insert(self, row: Row) -> None:
        """Insert one row; raises on duplicate primary key."""
        self.statements += 1
        if self.validate:
            self.schema.validate_rows((row,))
        self._insert_unchecked(row)

    def _insert_unchecked(self, row: Row) -> None:
        key = self._pk(row)
        if key in self._rows:
            raise StorageError(
                f"{self.schema.name}: duplicate primary key {key!r}"
            )
        self._rows[key] = row

    def bulk_insert(self, rows: Iterable[Row]) -> int:
        """Insert many rows under a single statement; returns the count.

        A schema error rejects the whole batch.  A duplicate primary key
        raises on the exact key with the rows before it inserted, as the
        same sequence of single inserts would.
        """
        self.statements += 1
        if not isinstance(rows, list):
            rows = list(rows)
        if self.validate:
            self.schema.validate_rows(rows)
        keys = list(zip(*[map(column, rows) for column in self._key_columns]))
        stored = self._rows
        if stored.keys().isdisjoint(keys):
            size = len(stored)
            stored.update(zip(keys, rows))
            if len(stored) - size == len(keys):
                return len(rows)
            # a key repeats inside the batch: take the batch back out
            for key in keys:
                stored.pop(key, None)
        for row in rows:
            self._insert_unchecked(row)
        return len(rows)

    def upsert(self, row: Row) -> None:
        """Insert, or replace the row with the same primary key; the
        row goes to the end of :meth:`rows` either way."""
        self.statements += 1
        if self.validate:
            self.schema.validate_rows((row,))
        key = self._pk(row)
        if self._rows.pop(key, None) is not None:
            self.replaced += 1
        self._rows[key] = row

    def rows(self) -> list[Row]:
        """Every stored row, as stored, in insertion order."""
        return list(self._rows.values())

    def __len__(self) -> int:
        return len(self._rows)


class Database:
    """The relations of :data:`BINGO_SCHEMA`, by name."""

    def __init__(self, validate: bool = True) -> None:
        self.validate = validate
        self.relations = {
            name: Relation(schema, validate=validate)
            for name, schema in BINGO_SCHEMA.items()
        }

    def __getitem__(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise StorageError(f"unknown relation {name!r}") from None
