"""Relational schema of the BINGO! store.

The paper's final design is "a schema with 24 flat relations" (section
4.1).  The exact relation list is not published, so this module declares
the 24 flat relations the system functionally needs -- documents, terms,
features, links, crawl bookkeeping, training data, link-analysis results,
postprocessing artifacts -- each with explicit column types, a primary
key, and the secondary indexes the access paths require.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Sequence
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any

from repro.errors import SchemaError

__all__ = ["Column", "RelationSchema", "BINGO_SCHEMA", "Row", "row_getter"]

Row = dict[str, Any]
"""One stored row: a value (or None) under every declared column."""


def row_getter(columns: Sequence[str]) -> Callable[[Row], tuple[Any, ...]]:
    """``row -> tuple`` of the named columns' values, in that order."""
    getter = itemgetter(*columns)
    if len(columns) == 1:
        # itemgetter yields the bare value for a single column
        return lambda row: (getter(row),)
    return getter


@dataclass(frozen=True)
class Column:
    """One typed column: ``type`` is a Python type, None allowed if
    nullable."""

    name: str
    type: type
    nullable: bool = False

    def check(self, value: Any) -> None:
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return
        if self.type is float and isinstance(value, int):
            return  # ints are acceptable floats
        if not isinstance(value, self.type):
            raise SchemaError(
                f"column {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__}: {value!r}"
            )


@dataclass(frozen=True)
class RelationSchema:
    """A flat relation: columns, primary key, secondary indexes."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    indexes: tuple[tuple[str, ...], ...] = ()
    column_names: tuple[str, ...] = field(init=False, compare=False)
    _known: frozenset[str] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(c.name for c in self.columns)
        known = frozenset(names)
        if len(known) != len(names):
            raise SchemaError(f"duplicate column in relation {self.name!r}")
        for key in (self.primary_key, *self.indexes):
            for column in key:
                if column not in known:
                    raise SchemaError(
                        f"relation {self.name!r}: key column {column!r} "
                        "is not a declared column"
                    )
        object.__setattr__(self, "column_names", names)
        object.__setattr__(self, "_known", known)

    def validate_row(self, row: Row) -> None:
        """Raise :class:`SchemaError` unless ``row`` names exactly the
        declared columns with values of their types."""
        if row.keys() != self._known:
            raise self._wrong_columns(row)
        for column in self.columns:
            value = row[column.name]
            if type(value) is not column.type:
                column.check(value)

    def validate_rows(self, rows: Collection[Row]) -> None:
        """:meth:`validate_row` for a batch, a column at a time: one pass
        over the key sets, then one per column over the value *types*,
        so :meth:`Column.check` (subclasses, ints in float columns, the
        error message) runs only for a column that holds something other
        than its exact type."""
        known = self._known
        if set(map(frozenset, rows)) - {known}:
            raise self._wrong_columns(
                next(row for row in rows if row.keys() != known)
            )
        for column in self.columns:
            name = column.name
            kinds = {type(row[name]) for row in rows}
            kinds.discard(column.type)
            if column.nullable:
                kinds.discard(type(None))
            if kinds:
                for row in rows:
                    column.check(row[name])

    def _wrong_columns(self, row: Row) -> SchemaError:
        return SchemaError(
            f"relation {self.name!r}: unknown columns "
            f"{sorted(row.keys() - self._known)}, missing columns "
            f"{sorted(self._known - row.keys())}"
        )


def _rel(
    name: str,
    columns: Sequence[Column | tuple[Any, ...]],
    pk: Sequence[str],
    indexes: Sequence[Sequence[str]] = (),
) -> RelationSchema:
    return RelationSchema(
        name=name,
        columns=tuple(
            Column(*c) if isinstance(c, tuple) else c for c in columns
        ),
        primary_key=tuple(pk),
        indexes=tuple(tuple(i) for i in indexes),
    )


#: The 24 flat relations of the store.
BINGO_SCHEMA: dict[str, RelationSchema] = {
    schema.name: schema
    for schema in [
        # -- document corpus -------------------------------------------------
        _rel("documents", [
            ("doc_id", int), ("url", str), ("host", str),
            ("mime", str), ("size", int), ("title", str, True),
            ("topic", str, True), ("confidence", float, True),
            ("crawl_depth", int), ("fetched_at", float),
            ("page_id", int, True),
        ], ["doc_id"], [["url"], ["topic"], ["host"]]),
        _rel("document_text", [
            ("doc_id", int), ("text", str),
        ], ["doc_id"]),
        _rel("terms", [
            ("doc_id", int), ("term", str), ("tf", int),
        ], ["doc_id", "term"], [["term"], ["doc_id"]]),
        _rel("term_statistics", [
            ("term", str), ("df", int), ("idf", float),
        ], ["term"]),
        _rel("features", [
            ("topic", str), ("feature", str), ("mi_weight", float),
            ("rank", int),
        ], ["topic", "feature"], [["topic"]]),
        # -- link structure ---------------------------------------------------
        _rel("links", [
            ("src_doc_id", int), ("dst_url", str), ("dst_doc_id", int, True),
        ], ["src_doc_id", "dst_url"], [["dst_url"], ["src_doc_id"]]),
        _rel("anchor_texts", [
            ("src_doc_id", int), ("dst_url", str), ("term", str), ("tf", int),
        ], ["src_doc_id", "dst_url", "term"], [["dst_url"]]),
        _rel("redirects", [
            ("from_url", str), ("to_url", str), ("observed_at", float),
        ], ["from_url"], [["to_url"]]),
        _rel("duplicates", [
            ("url", str), ("canonical_doc_id", int), ("stage", str),
        ], ["url"], [["canonical_doc_id"]]),
        # -- topic tree & training --------------------------------------------
        _rel("topics", [
            ("topic", str), ("parent", str, True), ("depth", int),
        ], ["topic"], [["parent"]]),
        _rel("training_documents", [
            ("topic", str), ("doc_id", int), ("origin", str),
            ("confidence", float, True), ("active", bool),
        ], ["topic", "doc_id"], [["topic"], ["doc_id"]]),
        _rel("archetypes", [
            ("topic", str), ("doc_id", int), ("source", str),
            ("score", float), ("iteration", int),
        ], ["topic", "doc_id", "iteration"], [["topic"]]),
        _rel("classifier_models", [
            ("topic", str), ("iteration", int), ("feature_space", str),
            ("xi_alpha", float), ("trained_at", float),
        ], ["topic", "iteration", "feature_space"], [["topic"]]),
        # -- crawl bookkeeping ------------------------------------------------
        _rel("crawl_frontier", [
            ("url", str), ("topic", str, True), ("priority", float),
            ("depth", int), ("tunnelled", int), ("enqueued_at", float),
        ], ["url"], [["topic"]]),
        _rel("crawl_log", [
            ("seq", int), ("url", str), ("status", str),
            ("latency", float), ("at", float),
        ], ["seq"], [["status"]]),
        _rel("hosts", [
            ("host", str), ("ip", str, True), ("state", str),
            ("failures", int),
        ], ["host"], [["state"]]),
        _rel("dns_cache_entries", [
            ("host", str), ("ip", str), ("expires_at", float),
        ], ["host"]),
        _rel("mime_policies", [
            ("mime", str), ("max_size", int), ("handled", bool),
        ], ["mime"]),
        _rel("crawl_errors", [
            ("seq", int), ("url", str), ("reason", str), ("at", float),
        ], ["seq"], [["reason"]]),
        # -- link analysis & postprocessing -----------------------------------
        _rel("authority_scores", [
            ("topic", str), ("iteration", int), ("doc_id", int),
            ("authority", float), ("hub", float),
        ], ["topic", "iteration", "doc_id"], [["topic"]]),
        _rel("search_sessions", [
            ("session_id", int), ("query", str), ("ranking", str),
            ("at", float),
        ], ["session_id"]),
        _rel("search_results", [
            ("session_id", int), ("rank", int), ("doc_id", int),
            ("score", float),
        ], ["session_id", "rank"], [["doc_id"]]),
        _rel("clusters", [
            ("topic", str), ("cluster_id", int), ("doc_id", int),
            ("label", str),
        ], ["topic", "cluster_id", "doc_id"], [["topic"]]),
        _rel("feedback", [
            ("session_id", int), ("doc_id", int), ("relevant", bool),
            ("at", float),
        ], ["session_id", "doc_id"]),
    ]
}

assert len(BINGO_SCHEMA) == 24, "the paper's store has 24 flat relations"
