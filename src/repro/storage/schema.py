"""Relational schema of the BINGO! store.

The paper's final design is "a schema with 24 flat relations" (section
4.1).  The exact relation list is not published; this module declares
the flat relations the crawl writes -- documents, terms, links, anchor
texts, the fetch log and the archetype history -- each with explicit
column types and a primary key.

A stored row is a tuple of values in declared column order, from the
producer that builds it to the dump file that holds it;
:meth:`RelationSchema.validate_rows` is the one check of that shape.
The page relations (:data:`PAGE_RELATIONS`) have one producer,
:func:`page_rows`, over the stored pages, and one caller, a full dump
(``portal crawl --dump-db``): a checkpoint saves the pages themselves.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from itertools import repeat
from operator import itemgetter
from typing import Any

from repro.errors import SchemaError

__all__ = ["Column", "RelationSchema", "BINGO_SCHEMA", "PAGE_RELATIONS",
           "Row", "page_rows"]

Row = tuple[Any, ...]
"""One stored row: a value (or None) per declared column, in order."""

_NONE = type(None)


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

    def check_all(self, values: Sequence[Any]) -> None:
        """:meth:`check` each value, after one pass over the value
        *types*: it runs only when a value is not of the exact type."""
        kinds = set(map(type, values))
        kinds.discard(self.type)
        if self.nullable:
            kinds.discard(_NONE)
        if kinds:
            for value in values:
                self.check(value)


@dataclass(frozen=True)
class RelationSchema:
    """A flat relation: columns and a primary key."""

    name: str
    columns: tuple[Column, ...]
    primary_key: tuple[str, ...]
    column_names: tuple[str, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        names = tuple(c.name for c in self.columns)
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column in relation {self.name!r}")
        for column in self.primary_key:
            if column not in names:
                raise SchemaError(
                    f"relation {self.name!r}: key column {column!r} "
                    "is not a declared column"
                )
        object.__setattr__(self, "column_names", names)

    def row_getter(self, columns: Sequence[str]) -> Callable[[Row], Row]:
        """``row -> tuple`` of the named columns' values, in that order:
        a positional ``itemgetter`` (a slice when the columns are
        adjacent, so one column still yields a tuple)."""
        positions = [self.column_names.index(column) for column in columns]
        start, stop = positions[0], positions[0] + len(positions)
        if positions == list(range(start, stop)):
            return itemgetter(slice(start, stop))
        return itemgetter(*positions)

    def validate_rows(self, rows: Sequence[Row]) -> None:
        """Raise :class:`SchemaError` unless every row is a tuple with
        one value of its column's type per declared column.

        One pass over the row shapes, then :meth:`Column.check_all`
        per column."""
        width = len(self.columns)
        if set(map(type, rows)) - {tuple} or set(map(len, rows)) - {width}:
            bad = next(
                row for row in rows
                if type(row) is not tuple or len(row) != width
            )
            raise SchemaError(
                f"relation {self.name!r}: expected a tuple of {width} "
                f"values {self.column_names}, got {bad!r}"
            )
        for column, values in zip(self.columns, zip(*rows)):
            column.check_all(values)


def _rel(
    name: str,
    columns: Sequence[tuple[Any, ...]],
    pk: Sequence[str],
) -> RelationSchema:
    return RelationSchema(
        name=name,
        columns=tuple(Column(*c) for c in columns),
        primary_key=tuple(pk),
    )


#: The flat relations the crawl writes.
BINGO_SCHEMA: dict[str, RelationSchema] = {
    schema.name: schema
    for schema in [
        # -- document corpus (page_rows) -------------------------------------
        _rel("documents", [
            ("doc_id", int), ("url", str), ("host", str),
            ("mime", str), ("size", int), ("title", str, True),
            ("topic", str, True), ("confidence", float, True),
            ("crawl_depth", int), ("fetched_at", float),
            ("page_id", int, True),
        ], ["doc_id"]),
        _rel("terms", [
            ("doc_id", int), ("term", str), ("tf", int),
        ], ["doc_id", "term"]),
        # -- link structure (page_rows) --------------------------------------
        _rel("links", [
            ("src_doc_id", int), ("dst_url", str), ("dst_doc_id", int, True),
        ], ["src_doc_id", "dst_url"]),
        _rel("anchor_texts", [
            ("src_doc_id", int), ("dst_url", str), ("term", str), ("tf", int),
        ], ["src_doc_id", "dst_url", "term"]),
        # -- crawl bookkeeping (CrawlContext.log_fetch) -----------------------
        _rel("crawl_log", [
            ("seq", int), ("url", str), ("status", str),
            ("latency", float), ("at", float),
        ], ["seq"]),
        # -- training (BingoEngine's archetype selection) ---------------------
        _rel("archetypes", [
            ("topic", str), ("doc_id", int), ("source", str),
            ("score", float), ("iteration", int),
        ], ["topic", "doc_id", "iteration"]),
    ]
}


PAGE_RELATIONS = ("documents", "terms", "links", "anchor_texts")
"""The relations :func:`page_rows` builds: a view of the stored pages."""


def page_rows(
    documents: Sequence[Any], anchor_terms: Sequence[dict[str, list[str]]],
) -> dict[str, list[Row]]:
    """The rows of :data:`PAGE_RELATIONS` for ``documents``
    (:class:`~repro.core.records.CrawledDocument`, in doc-id order),
    page by page; ``anchor_terms[i]`` maps each link target of
    ``documents[i]`` to its anchor's terms."""
    rows: dict[str, list[Row]] = {name: [] for name in PAGE_RELATIONS}
    document_rows, term_rows, link_rows, anchor_rows = rows.values()
    for document, anchors in zip(documents, anchor_terms, strict=True):
        doc_id = document.doc_id
        document_rows.append((
            doc_id, document.url, document.host, document.mime,
            document.size, document.title, document.topic,
            document.confidence, document.depth, document.fetched_at,
            document.page_id,
        ))
        term_counts = document.counts.get("term", {})
        term_rows.extend(zip(
            repeat(doc_id), term_counts, map(int, term_counts.values())
        ))
        # a repeated target's URL gets its position, as (src, dst) is
        # the key; the seen-set keeps this linear on link-dense hub pages
        seen: set[str] = set()
        for position, dst in enumerate(document.out_urls):
            link_rows.append((
                doc_id, f"{dst}#{position}" if dst in seen else dst, None,
            ))
            seen.add(dst)
        anchor_rows.extend(
            (doc_id, href, term, int(tf))
            for href, terms in anchors.items()
            for term, tf in Counter(terms).items()
        )
    return rows
