"""Crawl checkpoint/resume through :mod:`repro.storage.persistence`.

A crawl that dies mid-phase used to lose the frontier, the dedup
fingerprint tables and every host state.  The checkpoint captures the
complete crawl runtime -- frontier (including deferred retries), dedup
tables, host circuit breakers, domain politeness slots, the simulated
clock and worker pool, the DNS cache (with its RNG), the server's
per-URL attempt counters, the document store and the phase counters --
so a crawl restored into the same Web resumes to the *same Table-1
counters* as an uninterrupted run.

The runtime state lives on a :class:`~repro.pipeline.context.
CrawlContext` (``crawler.ctx``); every entry point here takes that
context, and so does the :class:`Checkpointer` hook the crawl loop
calls.

What the checkpoint deliberately does **not** capture is the trained
classifier: models are reconstructed deterministically by re-running the
same training procedure (the repo is seed-deterministic end to end), so
serializing SVM internals would only duplicate state.  Resume therefore
requires the caller to rebuild the crawler with an identically trained
classifier before calling :func:`restore_context`.  If retraining
happened mid-phase, checkpoint at retraining points (the engine flushes
its loader there) so the training set is reproducible from the stored
archetypes.

On-disk layout (all via :func:`repro.storage.persistence.dump_state`
and :func:`~repro.storage.persistence.dump_database`)::

    <directory>/crawl.json     # versioned runtime state blob of save n
    <directory>/database-<n>/  # relational rows of save n (with a loader)

A save is atomic against a kill at any point.  Its rows go into a fresh
``database-<n>`` beside the previous save's, and the one rename that
puts the new ``crawl.json`` in place publishes both: the blob names its
database by the save ordinal ``n``, the database's manifest is stamped
with the same ``n``, and a restore refuses a pair that disagrees.  Until
that rename the previous blob and its untouched database are the
checkpoint; the superseded database is deleted only after it.  (Nothing
is fsynced: this guards against a dying process, not a dying machine.)
"""

from __future__ import annotations

import heapq
import pathlib
import shutil
from collections import Counter
from typing import Any

from repro.core.records import CrawledDocument, CrawlStats
from repro.errors import StorageError
from repro.storage.persistence import (
    dump_database,
    dump_state,
    load_database,
    load_state,
)

__all__ = [
    "snapshot_context",
    "save_checkpoint",
    "load_checkpoint",
    "restore_context",
    "Checkpointer",
]

Context = Any
"""A :class:`~repro.pipeline.context.CrawlContext` (that module imports
this package, so the class cannot be named here)."""
State = dict[str, Any]
Source = str | pathlib.Path | State
"""A checkpoint directory, or a state dict already loaded from one."""

_KIND = "crawl"
_DB_PREFIX = "database-"


def _database_dirs(
    directory: pathlib.Path,
) -> list[tuple[int, pathlib.Path]]:
    """``(save ordinal, path)`` of every database directory under a
    checkpoint directory, oldest first."""
    return sorted(
        (int(ordinal), path)
        for path in directory.glob(f"{_DB_PREFIX}*")
        if (ordinal := path.name.removeprefix(_DB_PREFIX)).isdigit()
    )


# ----------------------------------------------------------------------
# stats (de)serialization
# ----------------------------------------------------------------------

def _stats_to_dict(stats: CrawlStats) -> State:
    data = {
        field: getattr(stats, field)
        for field in stats.__dataclass_fields__
        if field != "hosts_visited"
    }
    data["hosts_visited"] = sorted(stats.hosts_visited)
    return data


def _stats_from_dict(data: State) -> CrawlStats:
    data = dict(data)
    hosts = set(data.pop("hosts_visited"))
    stats = CrawlStats(**data)
    stats.hosts_visited = hosts
    return stats


# ----------------------------------------------------------------------
# whole-context snapshot
# ----------------------------------------------------------------------

def snapshot_context(ctx: Context, stats: CrawlStats) -> State:
    """The complete serializable runtime state of one crawl context.

    The frontier image and the host board are one store each at every
    worker count.  For sharded crawls (``crawl_workers > 1``) a
    ``workers`` section captures each worker pool plus the worker-set
    counters.
    """
    state = {
        "clock_now": ctx.clock.now,
        "pool_free_at": list(ctx.pool._free_at),
        "resolver": ctx.resolver.snapshot(),
        "server": ctx.web.server.snapshot(),
        "frontier": ctx.frontier.snapshot(),
        "dedup": ctx.dedup.snapshot(),
        "hosts": ctx.hosts.to_dict(),
        "domains": {
            domain: list(state.busy_until)
            for domain, state in ctx.domains.items()
        },
        "stats": _stats_to_dict(stats),
        "documents": [doc.to_dict() for doc in ctx.documents],
        "docs_since_retrain": ctx.docs_since_retrain,
        "log_sequence": ctx.log_sequence,
        "converted_formats": dict(ctx.converted_formats),
        "retry_log": list(ctx.retry_log),
    }
    workers = ctx.workers
    if workers is not None:
        state["workers"] = {
            "count": workers.count,
            "pool_free_at": [
                list(pool._free_at) for pool in workers.pools
            ],
            "commits": workers.commits,
            "barriers": workers.barriers,
            "cross_shard_links": workers.cross_shard_links,
            "local_links": workers.local_links,
        }
    return state


def save_checkpoint(
    ctx: Context, stats: CrawlStats, directory: str | pathlib.Path
) -> pathlib.Path:
    """Persist the crawl state (and database rows, if a loader is set)."""
    directory = pathlib.Path(directory)
    ordinal: int | None = None
    superseded: list[tuple[int, pathlib.Path]] = []
    if ctx.loader is not None:
        ctx.loader.flush_all()
        superseded = _database_dirs(directory)
        ordinal = superseded[-1][0] + 1 if superseded else 1
        dump_database(
            ctx.loader.database, directory / f"{_DB_PREFIX}{ordinal}",
            stamp=ordinal,
        )
    state = snapshot_context(ctx, stats)
    state["save_ordinal"] = ordinal
    # this rename publishes the save; everything before it is invisible
    path = dump_state(state, directory, kind=_KIND)
    for _, stale in superseded:
        shutil.rmtree(stale)
    ctx.checkpoint_saves += 1
    return path


def load_checkpoint(directory: str | pathlib.Path) -> State:
    """Read a checkpoint's state blob (without applying it)."""
    return load_state(directory, kind=_KIND)


def restore_context(ctx: Context, source: Source) -> CrawlStats:
    """Apply a checkpoint to a freshly constructed crawl context.

    ``source`` is a checkpoint directory or a state dict from
    :func:`load_checkpoint`; only a directory also loads the saved rows
    into the context's loader.  The context must be bound to the same Web
    (same generator config and seed) and an identically trained
    classifier.  Returns the restored :class:`CrawlStats` to pass back
    into ``crawl(phase, resume=...)``.
    """
    directory: pathlib.Path | None = None
    if isinstance(source, (str, pathlib.Path)):
        directory = pathlib.Path(source)
        state = load_checkpoint(directory)
    else:
        state = source

    # validate the sharding shape before mutating anything: a mismatch
    # would re-route hosts onto different worker pools and silently
    # break the determinism contract
    workers = ctx.workers
    worker_state = state.get("workers")
    if (workers is None) != (worker_state is None):
        raise ValueError(
            "checkpoint and context disagree on sharding -- resume with "
            "the same crawl_workers the checkpoint was saved with"
        )
    if workers is not None and worker_state["count"] != workers.count:
        raise ValueError(
            f"checkpoint has {worker_state['count']} workers, this "
            f"context has {workers.count} -- resume with the same "
            "crawl_workers"
        )
    ctx.frontier.check_image(state["frontier"])

    # rows first: a database that is missing, torn or from another save
    # raises here, before the context has taken anything from the blob
    if directory is not None:
        if "save_ordinal" not in state:
            raise StorageError(
                f"checkpoint in {directory} names no save ordinal: it "
                "predates the atomic layout and cannot be resumed"
            )
        ordinal = state["save_ordinal"]
        if ctx.loader is not None and ordinal is not None:
            load_database(
                directory / f"{_DB_PREFIX}{ordinal}",
                into=ctx.loader.database, stamp=ordinal,
            )

    ctx.clock.now = state["clock_now"]
    ctx.pool._free_at = list(state["pool_free_at"])
    heapq.heapify(ctx.pool._free_at)
    ctx.resolver.restore(state["resolver"])

    ctx.web.server.restore(state["server"])

    ctx.frontier.restore(state["frontier"])
    ctx.dedup.restore(state["dedup"])
    ctx.hosts.restore(state["hosts"])
    ctx.domains = {}
    for domain, busy in state["domains"].items():
        ctx.domain_state(domain).busy_until = list(busy)
    ctx.documents = [
        CrawledDocument.from_dict(d) for d in state["documents"]
    ]
    ctx.url_to_doc = {
        doc.final_url: doc.doc_id for doc in ctx.documents
    }
    ctx.docs_since_retrain = state["docs_since_retrain"]
    ctx.log_sequence = state["log_sequence"]
    ctx.converted_formats = Counter(state["converted_formats"])
    ctx.retry_log = list(state["retry_log"])

    if workers is not None and worker_state is not None:
        for pool, free_at in zip(
            workers.pools, worker_state["pool_free_at"]
        ):
            pool._free_at = list(free_at)
            heapq.heapify(pool._free_at)
        workers.commits = worker_state["commits"]
        workers.barriers = worker_state["barriers"]
        workers.cross_shard_links = worker_state["cross_shard_links"]
        workers.local_links = worker_state["local_links"]

    ctx.checkpoint_restores += 1
    return _stats_from_dict(state["stats"])


class Checkpointer:
    """Periodic checkpoint hook for :meth:`FocusedCrawler.crawl`.

    Saves every ``every`` visits into ``directory`` (atomically -- a
    kill during a save leaves the previous checkpoint intact).
    """

    def __init__(self, directory: str | pathlib.Path, every: int = 50) -> None:
        if every < 1:
            raise ValueError(f"checkpoint interval must be >= 1, got {every}")
        self.directory = pathlib.Path(directory)
        self.every = every
        self.saves = 0
        self._since_save = 0

    def on_visit(self, ctx: Context, stats: CrawlStats) -> bool:
        """Called by the crawl loop after each visit; True if it saved."""
        self._since_save += 1
        if self._since_save < self.every:
            return False
        self.save(ctx, stats)
        return True

    def save(self, ctx: Context, stats: CrawlStats) -> None:
        save_checkpoint(ctx, stats, self.directory)
        self.saves += 1
        self._since_save = 0
