"""Batched loading with per-thread workspaces (paper section 4.1).

"Each thread batches the storing of new documents and avoids SQL insert
commands by first collecting a certain number of documents in workspaces
and then invoking the database system's bulk loader."  A workspace is
one crawler thread's buffers, ``relation -> rows``; when a buffer
reaches ``batch_size`` it is flushed through ``Relation.bulk_insert``.
``flush_all`` drains everything; the crawl calls it at its end, at each
shard barrier and at each checkpoint save.  A stored page is queued
(:meth:`BulkLoader.defer`), and so is a ``flush_all`` of its relations
while pages wait; the first read of one replays the queue through
``add_many`` and the buffer flushes, into the rows, in order, that
loading each page when it was stored gives.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from repro.storage.database import Database
from repro.storage.schema import PAGE_RELATIONS, Row, page_rows

__all__ = ["BulkLoader"]


class BulkLoader:
    """Routes buffered rows into the database in batches."""

    def __init__(self, database: Database, batch_size: int = 200) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.database = database
        self.batch_size = batch_size
        #: thread id -> relation -> buffered rows; a row or a page makes one
        self._workspaces: dict[int, dict[str, list[Row]]] = {}
        #: queued pages (thread id, document, anchor terms) and flushes (None)
        self._queue: list[tuple[int, object, dict[str, list[str]]] | None] = []
        self.rows_loaded = 0
        self.flushes = 0

    def _buffer(self, thread_id: int, relation: str) -> list[Row]:
        workspace = self._workspaces.setdefault(thread_id, {})
        return workspace.setdefault(relation, [])

    def add(self, thread_id: int, relation: str, row: Row) -> None:
        """Buffer a row; flushes that buffer if it reached the batch size."""
        try:
            buffer = self._workspaces[thread_id][relation]
        except KeyError:
            buffer = self._buffer(thread_id, relation)
        buffer.append(row)
        if len(buffer) >= self.batch_size:
            self._flush_buffer(thread_id, relation)

    def add_many(self, thread_id: int, relation: str,
                 rows: Iterable[Row]) -> None:
        """Buffer a row sequence with the same flush cadence as repeated
        :meth:`add` calls (every ``batch_size``-th row flushes), so the
        pipeline's batched persist stage writes identical batches.  The
        buffer is extended a slice at a time, each slice filling it up
        to the next batch boundary."""
        rows = iter(rows)
        for row in rows:  # as with add, only a row makes a workspace
            buffer = self._buffer(thread_id, relation)
            buffer.append(row)
            buffer.extend(islice(rows, self.batch_size - len(buffer)))
            if len(buffer) >= self.batch_size:
                self._flush_buffer(thread_id, relation)

    def defer(self, thread_id: int, document: object,
              anchor_terms: dict[str, list[str]]) -> None:
        """Queue a page; its rows (:func:`page_rows`) load on a read."""
        # the page's rows would make the workspace now: keep its place
        self._workspaces.setdefault(thread_id, {})
        self._queue.append((thread_id, document, anchor_terms))
        self.database.owed = self._replay

    def _replay(self) -> None:
        """Load every queued page, honouring the queued flush markers."""
        queue, self._queue = self._queue, []
        for entry in queue:
            if entry is None:
                for thread_id, workspace in self._workspaces.items():
                    for relation in PAGE_RELATIONS:
                        if relation in workspace:
                            self._flush_buffer(thread_id, relation)
                continue
            thread_id, document, anchor_terms = entry
            for relation, rows in page_rows(document, anchor_terms):
                self.add_many(thread_id, relation, rows)

    def _flush_buffer(self, thread_id: int, relation: str) -> None:
        table = self.database.table(relation)  # a read: owed rows go first
        workspace = self._workspaces[thread_id]
        rows = workspace[relation]
        if not rows:
            return
        workspace[relation] = []
        self.rows_loaded += table.bulk_insert(rows)
        self.flushes += 1

    def flush_all(self) -> int:
        """Drain every workspace; returns the number of rows written.
        While pages are queued, their relations' flush is queued too."""
        before = self.rows_loaded
        queued = PAGE_RELATIONS if self._queue else ()
        if queued:
            self._queue.append(None)
        for thread_id, workspace in self._workspaces.items():
            for relation in list(workspace):
                if relation not in queued:
                    self._flush_buffer(thread_id, relation)
        return self.rows_loaded - before

    @property
    def pending(self) -> int:
        return sum(
            len(rows)
            for workspace in self._workspaces.values()
            for rows in workspace.values()
        )

    def stats(self) -> dict[str, float]:
        """Loader counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "rows_loaded": float(self.rows_loaded),
            "flushes": float(self.flushes),
            "pending_rows": float(self.pending),
            "workspaces": float(len(self._workspaces)),
        }
