"""The embedded relational store.

A :class:`Database` hosts :class:`Relation` instances built from
:class:`~repro.storage.schema.RelationSchema` declarations.  A relation
stores the rows it is given: tuples in column order, checked a batch at
a time by :meth:`RelationSchema.validate_rows`.  Each relation keeps a
primary-key hash map (uniqueness enforced) and supports point lookups,
index scans, predicate scans, updates and deletes; those readers are
rare and read by column name, so :meth:`Relation.get`,
:meth:`Relation.lookup` and :meth:`Relation.scan` build a dict per row
they return.

A declared secondary index costs nothing until it is read: the first
:meth:`Relation.lookup` on it builds it from the rows, and every
mutation after that maintains it.  The crawl writes millions of rows
into relations whose indexes only an interactive reader ever uses, so
its inserts touch the primary-key map alone.

``bulk_insert`` is the fast path used by the
:class:`~repro.storage.bulkloader.BulkLoader`: it validates, key-checks
and stores a whole batch with one call, skipping the per-statement and
per-row overhead that the paper found dominated row-at-a-time SQL
inserts.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, field
from typing import Any

from repro.errors import SchemaError, StorageError
from repro.storage.schema import BINGO_SCHEMA, RelationSchema, Row

__all__ = ["Relation", "Database"]

Key = tuple[Any, ...]
_Buckets = dict[Key, dict[Key, None]]
"""index key -> the primary keys under it, in insertion order."""


class Relation:
    """One flat relation with primary key and secondary hash indexes."""

    def __init__(self, schema: RelationSchema, validate: bool = True) -> None:
        self.schema = schema
        self.validate = validate
        self._rows: dict[Key, Row] = {}
        self._pk = schema.row_getter(schema.primary_key)
        self._index_keys = {
            index: schema.row_getter(index) for index in schema.indexes
        }
        self._indexes: dict[tuple[str, ...], _Buckets] = {}
        """The indexes some ``lookup`` has asked for so far."""
        #: simulated per-statement overhead counter (for the throughput bench)
        self.statements = 0

    # -- mutation ----------------------------------------------------------

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
        self._index((key,), (row,))

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
        keys = list(map(self._pk, rows))
        stored = self._rows
        if len(set(keys)) == len(keys) and stored.keys().isdisjoint(keys):
            stored.update(zip(keys, rows))
            self._index(keys, rows)
        else:
            for row in rows:
                self._insert_unchecked(row)
        return len(rows)

    def upsert(self, row: Row) -> None:
        """Insert, or replace the existing row with the same primary key."""
        self.statements += 1
        if self.validate:
            self.schema.validate_rows((row,))
        key = self._pk(row)
        if key in self._rows:
            self._remove_key(key)
        self._rows[key] = row
        self._index((key,), (row,))

    def delete(self, **conditions: Any) -> int:
        """Delete rows matching the equality conditions; returns the count.

        Conditions on exactly the primary-key columns pop that one key;
        any other set of columns scans the relation.
        """
        self.statements += 1
        if conditions.keys() == set(self.schema.primary_key):
            key = tuple(conditions[c] for c in self.schema.primary_key)
            if key not in self._rows:
                return 0
            self._remove_key(key)
            return 1
        tests = [
            (self._position(column), value)
            for column, value in conditions.items()
        ]
        victims = [
            key for key, row in self._rows.items()
            if all(row[p] == value for p, value in tests)
        ]
        for key in victims:
            self._remove_key(key)
        return len(victims)

    def update(self, key: Sequence[Any], **changes: Any) -> None:
        """Update non-key columns of the row with primary key ``key``."""
        self.statements += 1
        key = tuple(key)
        row = self._rows.get(key)
        if row is None:
            raise StorageError(f"{self.schema.name}: no row with key {key!r}")
        values = list(row)
        for column, value in changes.items():
            if column in self.schema.primary_key:
                raise StorageError(
                    f"{self.schema.name}: cannot update key column {column!r}"
                )
            values[self._position(column)] = value
        updated = tuple(values)
        if self.validate:
            self.schema.validate_rows((updated,))
        # the row keeps its place in scan order, which is not the end of
        # the bucket it moves to: forget such an index, the next lookup
        # rebuilds it in scan order
        for index in list(self._indexes):
            index_key = self._index_keys[index]
            if index_key(row) != index_key(updated):
                del self._indexes[index]
        self._rows[key] = updated

    def _position(self, column: str) -> int:
        try:
            return self.schema.column_names.index(column)
        except ValueError:
            raise SchemaError(
                f"relation {self.schema.name!r} has no column {column!r}"
            ) from None

    def _index(self, keys: Sequence[Key], rows: Sequence[Row]) -> None:
        """Enter newly stored rows into the indexes that exist."""
        for index, buckets in self._indexes.items():
            index_key = self._index_keys[index]
            for key, row in zip(keys, rows):
                buckets.setdefault(index_key(row), {})[key] = None

    def _remove_key(self, key: Key) -> None:
        row = self._rows.pop(key)
        for index, buckets in self._indexes.items():
            index_key = self._index_keys[index](row)
            bucket = buckets[index_key]
            del bucket[key]
            if not bucket:
                del buckets[index_key]

    # -- access -------------------------------------------------------------

    def rows(self) -> list[Row]:
        """Every stored row, as stored, in insertion order."""
        return list(self._rows.values())

    def _named(self, row: Row) -> dict[str, Any]:
        return dict(zip(self.schema.column_names, row))

    def get(self, *key: Any) -> dict[str, Any] | None:
        """Primary-key point lookup."""
        row = self._rows.get(key)
        return None if row is None else self._named(row)

    def lookup(self, index: Sequence[str], *values: Any) -> list[dict[str, Any]]:
        """Equality scan over a declared secondary index.

        Rows come back in :meth:`scan` order.  The first lookup on an
        index builds it (one pass over the relation).
        """
        index = tuple(index)
        buckets = self._indexes.get(index)
        if buckets is None:
            index_key = self._index_keys.get(index)
            if index_key is None:
                raise StorageError(
                    f"{self.schema.name}: no index on {index!r} "
                    f"(declared: {list(self._index_keys)})"
                )
            buckets = {}
            for key, row in self._rows.items():
                buckets.setdefault(index_key(row), {})[key] = None
            self._indexes[index] = buckets
        return [
            self._named(self._rows[k]) for k in buckets.get(values, ())
        ]

    def scan(
        self, predicate: Callable[[dict[str, Any]], bool] | None = None
    ) -> list[dict[str, Any]]:
        """Full scan, optionally filtered; rows in insertion order."""
        named = list(map(self._named, self._rows.values()))
        if predicate is None:
            return named
        return [row for row in named if predicate(row)]

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, key: Sequence[Any]) -> bool:
        return tuple(key) in self._rows


@dataclass
class Database:
    """A named collection of relations (defaults to :data:`BINGO_SCHEMA`)."""

    schemas: dict[str, RelationSchema] = field(
        default_factory=lambda: dict(BINGO_SCHEMA)
    )
    validate: bool = True
    relations: dict[str, Relation] = field(init=False)

    def __post_init__(self) -> None:
        self.relations = {
            name: Relation(schema, validate=self.validate)
            for name, schema in self.schemas.items()
        }

    def table(self, name: str) -> Relation:
        try:
            return self.relations[name]
        except KeyError:
            raise StorageError(f"unknown relation {name!r}") from None

    def __getitem__(self, name: str) -> Relation:
        return self.table(name)

    @property
    def total_rows(self) -> int:
        return sum(len(rel) for rel in self.relations.values())

    @property
    def total_statements(self) -> int:
        return sum(rel.statements for rel in self.relations.values())
