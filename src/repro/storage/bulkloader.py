"""Batched loading with per-thread workspaces (paper section 4.1).

"Each thread batches the storing of new documents and avoids SQL insert
commands by first collecting a certain number of documents in workspaces
and then invoking the database system's bulk loader."  A workspace is
one crawler thread's buffers, ``relation -> rows``; when a buffer
reaches ``batch_size`` it is flushed through ``Relation.bulk_insert``.
``flush_all`` drains everything; the crawl calls it at its end, at each
shard barrier and at each checkpoint save.  The crawl loads its fetch
log (``crawl_log``) this way; the page relations are a view of the
stored pages (:func:`~repro.storage.schema.page_rows`, which only a full
dump builds) and never pass through a loader.
"""

from __future__ import annotations

from collections.abc import Iterable
from itertools import islice

from repro.storage.database import Database
from repro.storage.schema import Row

__all__ = ["BulkLoader"]


class BulkLoader:
    """Routes buffered rows into the database in batches."""

    def __init__(self, database: Database, batch_size: int = 200) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.database = database
        self.batch_size = batch_size
        #: thread id -> relation -> buffered rows, in the order the
        #: threads first stored something (flush_all drains them so)
        self._workspaces: dict[int, dict[str, list[Row]]] = {}
        self.rows_loaded = 0
        self.flushes = 0

    def open(self, thread_id: int) -> None:
        """Open a thread's workspace when it stores a page (whose rows
        are never buffered): workspaces flush in the order they open."""
        self._workspaces.setdefault(thread_id, {})

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
        :meth:`add` calls (every ``batch_size``-th row flushes), so a
        producer that hands over a batch writes the batches single adds
        would.  The buffer is extended a slice at a time, each slice
        filling it up to the next batch boundary."""
        rows = iter(rows)
        for row in rows:  # as with add, only a row opens a workspace
            buffer = self._buffer(thread_id, relation)
            buffer.append(row)
            buffer.extend(islice(rows, self.batch_size - len(buffer)))
            if len(buffer) >= self.batch_size:
                self._flush_buffer(thread_id, relation)

    def _flush_buffer(self, thread_id: int, relation: str) -> None:
        table = self.database[relation]
        workspace = self._workspaces[thread_id]
        rows = workspace[relation]
        if not rows:
            return
        workspace[relation] = []
        self.rows_loaded += table.bulk_insert(rows)
        self.flushes += 1

    def flush_all(self) -> int:
        """Drain every workspace; returns the number of rows written."""
        before = self.rows_loaded
        for thread_id, workspace in self._workspaces.items():
            for relation in list(workspace):
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
