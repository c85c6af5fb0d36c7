"""Batched loading with per-thread workspaces (paper section 4.1).

"Each thread batches the storing of new documents and avoids SQL insert
commands by first collecting a certain number of documents in workspaces
and then invoking the database system's bulk loader."  A
:class:`Workspace` buffers rows per (thread, relation); when a buffer
reaches ``batch_size`` it is flushed through ``Relation.bulk_insert``.
``flush_all`` drains everything (called at retraining points and at crawl
end).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import islice

from repro.storage.database import Database
from repro.storage.schema import Row

__all__ = ["Workspace", "BulkLoader"]


@dataclass
class Workspace:
    """One crawler thread's private row buffers."""

    thread_id: int
    buffers: dict[str, list[Row]] = field(
        default_factory=lambda: defaultdict(list)
    )

    def add(self, relation: str, row: Row) -> int:
        """Buffer a row; returns the buffer's new length."""
        buffer = self.buffers[relation]
        buffer.append(row)
        return len(buffer)

    def take(self, relation: str) -> list[Row]:
        """Remove and return the buffered rows for one relation."""
        rows = self.buffers[relation]
        self.buffers[relation] = []
        return rows

    @property
    def pending(self) -> int:
        return sum(len(rows) for rows in self.buffers.values())


class BulkLoader:
    """Routes buffered rows into the database in batches."""

    def __init__(self, database: Database, batch_size: int = 200) -> None:
        if batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {batch_size}")
        self.database = database
        self.batch_size = batch_size
        self._workspaces: dict[int, Workspace] = {}
        self.rows_loaded = 0
        self.flushes = 0

    def workspace(self, thread_id: int) -> Workspace:
        """The (auto-created) workspace of one crawler thread."""
        workspace = self._workspaces.get(thread_id)
        if workspace is None:
            workspace = Workspace(thread_id)
            self._workspaces[thread_id] = workspace
        return workspace

    def add(self, thread_id: int, relation: str, row: Row) -> None:
        """Buffer a row; flushes that buffer if it reached the batch size."""
        workspace = self.workspace(thread_id)
        if workspace.add(relation, row) >= self.batch_size:
            self._flush_buffer(workspace, relation)

    def add_many(self, thread_id: int, relation: str,
                 rows: Iterable[Row]) -> None:
        """Buffer a row sequence with the same flush cadence as repeated
        :meth:`add` calls (every ``batch_size``-th row flushes), so the
        pipeline's batched persist stage writes identical batches.  The
        buffer is extended a slice at a time, each slice filling it up
        to the next batch boundary."""
        rows = iter(rows)
        for row in rows:  # as with add, only a row makes a workspace
            workspace = self.workspace(thread_id)
            buffer = workspace.buffers[relation]
            buffer.append(row)
            buffer.extend(islice(rows, self.batch_size - len(buffer)))
            if len(buffer) >= self.batch_size:
                self._flush_buffer(workspace, relation)

    def _flush_buffer(self, workspace: Workspace, relation: str) -> None:
        rows = workspace.take(relation)
        if not rows:
            return
        self.rows_loaded += self.database.table(relation).bulk_insert(rows)
        self.flushes += 1

    def flush_all(self) -> int:
        """Drain every workspace; returns the number of rows written."""
        before = self.rows_loaded
        for workspace in self._workspaces.values():
            for relation in list(workspace.buffers):
                self._flush_buffer(workspace, relation)
        return self.rows_loaded - before

    @property
    def pending(self) -> int:
        return sum(w.pending for w in self._workspaces.values())

    def stats(self) -> dict[str, float]:
        """Loader counters (:class:`repro.obs.api.Instrumented`)."""
        return {
            "rows_loaded": float(self.rows_loaded),
            "flushes": float(self.flushes),
            "pending_rows": float(self.pending),
            "workspaces": float(len(self._workspaces)),
        }
