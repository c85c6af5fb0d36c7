"""Crawl checkpoint/resume through :mod:`repro.storage.persistence`.

A crawl that dies mid-phase used to lose the frontier, the dedup
fingerprint tables and every host state.  The checkpoint captures the
complete crawl runtime -- frontier (including deferred retries), dedup
tables, host circuit breakers, domain politeness slots, the simulated
clock and worker pool, the DNS cache (with its RNG), the server's
per-URL attempt counters, the document store and the phase counters --
so a crawl restored into the same Web resumes to the *same Table-1
counters* as an uninterrupted run.

Since the staged-pipeline refactor the runtime state lives on a
:class:`~repro.pipeline.context.CrawlContext`; the snapshot/restore
primitives operate on the context, and every entry point accepts either
a context or a :class:`~repro.core.crawler.FocusedCrawler` facade (whose
``ctx`` attribute is then used).

What the checkpoint deliberately does **not** capture is the trained
classifier: models are reconstructed deterministically by re-running the
same training procedure (the repo is seed-deterministic end to end), so
serializing SVM internals would only duplicate state.  Resume therefore
requires the caller to rebuild the crawler with an identically trained
classifier before calling :func:`restore_crawler`.  If retraining
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

import pathlib
import shutil
from collections import Counter
from typing import TYPE_CHECKING, Any

from repro.errors import StorageError
from repro.storage.persistence import (
    dump_database,
    dump_state,
    load_database,
    load_state,
)

__all__ = [
    "snapshot_context",
    "snapshot_crawler",
    "save_checkpoint",
    "load_checkpoint",
    "restore_context",
    "restore_crawler",
    "Checkpointer",
]

if TYPE_CHECKING:
    from repro.core.crawler import CrawledDocument, CrawlStats

Crawl = Any
"""A :class:`FocusedCrawler` facade or its :class:`CrawlContext`."""
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


def _context_of(obj: Crawl) -> Any:
    """The :class:`CrawlContext` of a crawler facade, or ``obj`` itself
    when it already is a context."""
    return getattr(obj, "ctx", obj)


# ----------------------------------------------------------------------
# stats / document (de)serialization
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
    from repro.core.crawler import CrawlStats

    data = dict(data)
    hosts = set(data.pop("hosts_visited"))
    stats = CrawlStats(**data)
    stats.hosts_visited = hosts
    return stats


def _document_to_dict(doc: CrawledDocument) -> State:
    data = {
        field: getattr(doc, field)
        for field in doc.__dataclass_fields__
        if field != "counts"
    }
    data["counts"] = {
        space: dict(counter) for space, counter in doc.counts.items()
    }
    return data


def _document_from_dict(data: State) -> CrawledDocument:
    from repro.core.crawler import CrawledDocument

    data = dict(data)
    data["counts"] = {
        space: Counter(counts) for space, counts in data["counts"].items()
    }
    return CrawledDocument(**data)


# ----------------------------------------------------------------------
# whole-context snapshot
# ----------------------------------------------------------------------

def snapshot_context(ctx: Crawl, stats: CrawlStats) -> State:
    """The complete serializable runtime state of one crawl context.

    For sharded crawls (``crawl_workers > 1``) the frontier and host
    snapshots are composites with one slice per worker, and a
    ``workers`` section captures each worker pool plus the worker-set
    counters; an N=1 context keeps the historical format untouched.
    """
    ctx = _context_of(ctx)
    server = ctx.web.server
    state = {
        "clock_now": ctx.clock.now,
        "pool_free_at": list(ctx.pool._free_at),
        "resolver": ctx.resolver.snapshot(),
        "server": {
            "attempts": dict(server._attempts),
            "fetch_counts": dict(server.fetch_counts),
        },
        "frontier": ctx.frontier.snapshot(),
        "dedup": ctx.dedup.snapshot(),
        "hosts": ctx.hosts.to_dict(),
        "domains": {
            domain: list(state.busy_until)
            for domain, state in ctx.domains.items()
        },
        "stats": _stats_to_dict(stats),
        "documents": [_document_to_dict(doc) for doc in ctx.documents],
        "docs_since_retrain": ctx.docs_since_retrain,
        "log_sequence": ctx.log_sequence,
        "converted_formats": dict(ctx.converted_formats),
        "retry_log": list(ctx.retry_log),
    }
    workers = getattr(ctx, "workers", None)
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


def snapshot_crawler(crawler: Crawl, stats: CrawlStats) -> State:
    """Facade-level alias of :func:`snapshot_context`."""
    return snapshot_context(crawler, stats)


def save_checkpoint(
    crawler: Crawl, stats: CrawlStats, directory: str | pathlib.Path
) -> pathlib.Path:
    """Persist the crawl state (and database rows, if a loader is set).

    ``crawler`` may be a :class:`FocusedCrawler` or its context.
    """
    ctx = _context_of(crawler)
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
    obs = getattr(ctx, "obs", None)
    if obs is not None:
        obs.registry.counter("robust_checkpoint_saves_total").inc()
    return path


def load_checkpoint(directory: str | pathlib.Path) -> State:
    """Read a checkpoint's state blob (without applying it)."""
    return load_state(directory, kind=_KIND)


def restore_context(
    ctx: Crawl, source: Source, restore_database: bool = True
) -> CrawlStats:
    """Apply a checkpoint to a freshly constructed crawl context.

    ``source`` is a checkpoint directory or a state dict from
    :func:`load_checkpoint`.  The context must be bound to the same Web
    (same generator config and seed) and an identically trained
    classifier.  Returns the restored :class:`CrawlStats` to pass back
    into ``crawl(phase, resume=...)``.
    """
    import heapq

    from repro.pipeline.context import DomainState

    ctx = _context_of(ctx)
    directory: pathlib.Path | None = None
    if isinstance(source, (str, pathlib.Path)):
        directory = pathlib.Path(source)
        state = load_checkpoint(directory)
    else:
        state = source

    # validate the sharding shape before mutating anything: a mismatch
    # would re-route hosts onto different shards and silently break the
    # determinism contract
    workers = getattr(ctx, "workers", None)
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

    # rows first: a database that is missing, torn or from another save
    # raises here, before the context has taken anything from the blob
    if directory is not None:
        if "save_ordinal" not in state:
            raise StorageError(
                f"checkpoint in {directory} names no save ordinal: it "
                "predates the atomic layout and cannot be resumed"
            )
        ordinal = state["save_ordinal"]
        if restore_database and ctx.loader is not None and ordinal is not None:
            load_database(
                directory / f"{_DB_PREFIX}{ordinal}",
                into=ctx.loader.database, stamp=ordinal,
            )

    ctx.clock.now = state["clock_now"]
    ctx.pool._free_at = list(state["pool_free_at"])
    heapq.heapify(ctx.pool._free_at)
    ctx.resolver.restore(state["resolver"])

    server = ctx.web.server
    server._attempts = Counter(state["server"]["attempts"])
    server.fetch_counts = Counter(state["server"]["fetch_counts"])

    ctx.frontier.restore(state["frontier"])
    ctx.dedup.restore(state["dedup"])
    ctx.hosts.restore(state["hosts"])
    ctx.domains = {
        domain: DomainState(busy_until=list(busy))
        for domain, busy in state["domains"].items()
    }
    ctx.documents = [_document_from_dict(d) for d in state["documents"]]
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

    obs = getattr(ctx, "obs", None)
    if obs is not None:
        obs.registry.counter("robust_checkpoint_restores_total").inc()
    return _stats_from_dict(state["stats"])


def restore_crawler(
    crawler: Crawl, source: Source, restore_database: bool = True
) -> CrawlStats:
    """Facade-level alias of :func:`restore_context`."""
    return restore_context(crawler, source, restore_database)


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

    def on_visit(self, crawler: Crawl, stats: CrawlStats) -> bool:
        """Called by the crawl loop after each visit; True if it saved."""
        self._since_save += 1
        if self._since_save < self.every:
            return False
        self.save(crawler, stats)
        return True

    def save(self, crawler: Crawl, stats: CrawlStats) -> None:
        save_checkpoint(crawler, stats, self.directory)
        self.saves += 1
        self._since_save = 0
