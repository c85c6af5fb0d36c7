"""Crawl checkpoint/resume through :mod:`repro.storage.persistence`.

A crawl that dies mid-phase used to lose the frontier, the dedup
fingerprint tables and every host state.  The checkpoint captures the
complete crawl runtime -- frontier (including deferred retries), dedup
tables, host circuit breakers, domain politeness slots, the simulated
clock and worker pool, the DNS cache (with its RNG), the server's
per-URL attempt counters, the stored pages and the phase counters --
so a crawl restored into the same Web resumes to the *same Table-1
counters* as an uninterrupted run.

The runtime state lives on a :class:`~repro.pipeline.context.
CrawlContext` (``crawler.ctx``); every entry point here takes that
context, and so does the :class:`Checkpointer` hook the crawl loop
calls.  A checkpoint always has rows: the context needs a bulk loader.

What the checkpoint deliberately does **not** capture is the trained
classifier: models are reconstructed deterministically by re-running the
same training procedure (the repo is seed-deterministic end to end), so
serializing SVM internals would only duplicate state.  Resume therefore
requires the caller to rebuild the crawler with an identically trained
classifier before calling :func:`restore_context`.  If retraining
happened mid-phase, rebuild it from the ``archetypes`` rows the engine
upserts at each retraining point.

On-disk layout (via :func:`repro.storage.persistence.dump_state` and
:func:`~repro.storage.persistence.dump_database`)::

    <directory>/crawl.json     # runtime state of the newest save and its
                               # chain: segment ordinals, page and row
                               # counts
    <directory>/database-<n>/  # segment n, what save n added: the rows
                               # crawl_log and archetypes gained (a dump
                               # segment stamped n), and pages.json with
                               # each new page whole (its record and its
                               # anchor terms)

A save writes one immutable segment with what changed since the save it
extends, and a page once, as the record
:meth:`~repro.core.records.CrawledDocument.to_dict` gives: restore
replays the chain and rebuilds ``ctx.documents`` and
``ctx.anchor_terms`` from those records.  The page relations' rows
(:func:`~repro.storage.schema.page_rows`) are a view that only a full
dump writes; no checkpoint builds one.  A relation that saw a keyed
overwrite since the save extended is written whole and replaces the
chain's copy on replay; append-only segments hold no garbage (their
sum is a full dump of what the crawl's database holds), so nothing
needs compacting.  A context extends only a chain whose published save
it wrote or restored (``ctx.checkpoint_heads``, by the sha256 of
``crawl.json``); anywhere else it starts a new chain.

A save is atomic against a kill at any point.  The one rename that puts
the new ``crawl.json`` in place publishes its fresh segment; until then
the previous blob and its untouched chain are the checkpoint, and
segments outside the published chain are deleted only after it.  A
restore refuses a chain whose stamps, links, files or page records
disagree before the context takes anything; a save refuses a page
record before it writes a byte.  (Nothing is fsynced: this guards
against a dying process, not a dying machine.)
"""

from __future__ import annotations

import hashlib
import heapq
import json
import pathlib
import shutil
from collections import Counter
from collections.abc import Iterable
from typing import Any

from repro.core.records import CrawledDocument, CrawlStats
from repro.errors import SchemaError, StorageError
from repro.storage.database import Database
from repro.storage.persistence import (
    dump_database,
    dump_state,
    load_database,
    load_state,
)
from repro.storage.schema import BINGO_SCHEMA, PAGE_RELATIONS, Column

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

_KIND = "crawl"
_DB_PREFIX = "database-"
_PAGES = "pages.json"
_SAVED = tuple(name for name in BINGO_SCHEMA if name not in PAGE_RELATIONS)
"""The relations the crawl's database holds: what a segment dumps."""
_FIELDS = frozenset(CrawledDocument.__dataclass_fields__) | {"anchor_terms"}
"""The keys of a page record: the page's fields and its anchor terms."""
_SCALARS = [
    Column(field, column.type, column.nullable)
    for field, column in zip(
        ("doc_id", "url", "host", "mime", "size", "title", "topic",
         "confidence", "depth", "fetched_at", "page_id"),
        BINGO_SCHEMA["documents"].columns, strict=True,
    )
] + [Column("final_url", str), Column("ip", str)]
"""A page record's scalar fields, typed as the ``documents`` columns."""


def _database_dirs(
    directory: pathlib.Path,
) -> list[tuple[int, pathlib.Path]]:
    """``(save ordinal, path)`` of every segment directory under a
    checkpoint directory, oldest first."""
    return sorted(
        (int(ordinal), path)
        for path in directory.glob(f"{_DB_PREFIX}*")
        if (ordinal := path.name.removeprefix(_DB_PREFIX)).isdigit()
    )


def _blob_digest(directory: pathlib.Path) -> str | None:
    """sha256 of the directory's published ``crawl.json`` (None: none)."""
    try:
        blob = (directory / f"{_KIND}.json").read_bytes()
    except FileNotFoundError:
        return None
    return hashlib.sha256(blob).hexdigest()


def _chain(database: Database, segments: list[int], pages: int) -> State:
    """A published save's chain: its segments oldest first, its page
    count, and each saved relation's row count and keyed overwrites
    then -- what a save that extends it need not write again."""
    return {
        "segments": segments,
        "pages": pages,
        "rows": {name: len(database[name]) for name in _SAVED},
        "replaced": {name: database[name].replaced for name in _SAVED},
    }


_NEW_CHAIN: State = {"segments": [], "pages": 0, "rows": {}, "replaced": {}}
"""What a save that extends no chain has already written: nothing."""


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
# pages: one record each
# ----------------------------------------------------------------------

def _only(values: Iterable[Any], kind: type) -> bool:
    return not set(map(type, values)) - {kind}


def _check_pages(records: Any, start: int) -> None:
    """Raise :class:`SchemaError` unless ``records`` are the page
    records of doc ids ``start`` on: every field there, the scalars of
    their ``documents`` column types, term counts mapping ``str`` to
    ``int``, and out-links and anchor terms ``str``."""
    if type(records) is not list or not _only(records, dict):
        raise SchemaError("the page records are not a list of objects")
    if any(record.keys() != _FIELDS for record in records):
        raise SchemaError(f"a page record's fields are not {sorted(_FIELDS)}")
    doc_ids = [record["doc_id"] for record in records]
    if doc_ids != list(range(start, start + len(records))):
        raise SchemaError(
            f"the page records' doc ids do not run from {start} on"
        )
    for column in _SCALARS:
        column.check_all([record[column.name] for record in records])
    for record in records:
        counts, out_urls, anchors = (
            record["counts"], record["out_urls"], record["anchor_terms"]
        )
        if not (
            type(counts) is dict and _only(counts.values(), dict)
            and all(
                _only(terms, str) and _only(terms.values(), int)
                for terms in counts.values()
            )
            and type(out_urls) is list and _only(out_urls, str)
            and type(anchors) is dict and _only(anchors.values(), list)
            and all(_only(terms, str) for terms in anchors.values())
        ):
            raise SchemaError(
                f"page {record['doc_id']}: term counts must map str to "
                "int, out-links and anchor terms must be str"
            )


def _read_pages(
    segments: list[pathlib.Path], stamps: list[int]
) -> list[State]:
    """Every page record of a chain, in doc-id order; raises unless each
    segment's ``pages.json`` is whole, carries the segment's stamp,
    continues the one before and holds well-typed records."""
    pages: list[State] = []
    for segment, stamp in zip(segments, stamps):
        path = segment / _PAGES
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except FileNotFoundError:
            raise StorageError(f"no {_PAGES} in {segment}") from None
        except ValueError as error:
            raise StorageError(f"corrupt {_PAGES} in {segment}") from error
        if type(data) is not dict:
            data = {}
        if data.get("stamp") != stamp:
            raise StorageError(
                f"{_PAGES} in {segment} is stamped {data.get('stamp')!r}, "
                f"expected {stamp!r}"
            )
        if data.get("start") != len(pages):
            raise StorageError(
                f"{_PAGES} in {segment} does not continue the chain's "
                f"{len(pages)} pages"
            )
        try:
            _check_pages(data.get("pages"), len(pages))
        except SchemaError as error:
            raise StorageError(f"{_PAGES} in {segment}: {error}") from error
        pages.extend(data["pages"])
    return pages


# ----------------------------------------------------------------------
# whole-context snapshot
# ----------------------------------------------------------------------

def snapshot_context(ctx: Context, stats: CrawlStats) -> State:
    """The serializable runtime state of one crawl context -- all of it
    but the stored pages, which a save writes as page records.

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
    """Persist the crawl state and what the rows gained as one segment."""
    directory = pathlib.Path(directory)
    if ctx.loader is None:
        raise StorageError(
            "a checkpoint holds the crawl's rows: attach a BulkLoader "
            "(FocusedCrawler(loader=...) or ctx.attach_loader) before "
            "the crawl starts"
        )
    if len(ctx.anchor_terms) != len(ctx.documents):
        raise StorageError(
            f"the crawl holds anchor terms of {len(ctx.anchor_terms)} of "
            f"its {len(ctx.documents)} stored pages: a page is saved "
            "with its anchor terms"
        )
    ctx.loader.flush_all()
    database = ctx.loader.database
    on_disk = _database_dirs(directory)
    ordinal = on_disk[-1][0] + 1 if on_disk else 1
    head = ctx.checkpoint_heads.get(_blob_digest(directory), _NEW_CHAIN)
    start = head["pages"]
    records = [
        document.to_dict() | {"anchor_terms": anchors}
        for document, anchors in zip(
            ctx.documents[start:], ctx.anchor_terms[start:]
        )
    ]
    _check_pages(records, start)
    segment = directory / f"{_DB_PREFIX}{ordinal}"
    segment.mkdir(parents=True)
    dump_database(
        database, segment, stamp=ordinal,
        after=head["segments"][-1] if head["segments"] else None,
        since={
            name: head["rows"][name] for name in _SAVED
            if database[name].replaced == head["replaced"].get(name)
        },
        relations=_SAVED,
    )
    (segment / _PAGES).write_text(json.dumps(
        {"stamp": ordinal, "start": start, "pages": records},
        separators=(",", ":"),
    ), encoding="utf-8")
    state = snapshot_context(ctx, stats)
    state["database"] = chain = _chain(
        database, head["segments"] + [ordinal], len(ctx.documents)
    )
    # this rename publishes the save; everything before it is invisible
    path = dump_state(state, directory, kind=_KIND)
    for number, stale in on_disk:
        if number not in chain["segments"]:
            shutil.rmtree(stale)
    ctx.checkpoint_heads[_blob_digest(directory)] = chain
    ctx.checkpoint_saves += 1
    return path


def load_checkpoint(directory: str | pathlib.Path) -> State:
    """Read a checkpoint's state blob (without applying it)."""
    return load_state(directory, kind=_KIND)


def restore_context(
    ctx: Context, directory: str | pathlib.Path
) -> CrawlStats:
    """Apply the checkpoint in ``directory`` to a freshly constructed
    crawl context.

    The context must be bound to the same Web (same generator config
    and seed) and an identically trained classifier, and its loader's
    database must be empty: the stored pages are rebuilt from the
    chain's page records, and its rows go into that database.
    Every file is read and checked before the context takes anything.
    Returns the restored :class:`CrawlStats` to pass back into
    ``crawl(phase, resume=...)``.
    """
    directory = pathlib.Path(directory)
    if ctx.loader is None:
        raise StorageError(
            "a checkpoint restores the crawl's rows: attach a BulkLoader "
            "before restoring"
        )
    database = ctx.loader.database
    if any(map(len, database.relations.values())):
        raise StorageError(
            "restore_context needs a context whose database is empty"
        )
    digest = _blob_digest(directory)
    state = load_checkpoint(directory)
    chain = state.get("database")
    if chain is None or "pages" not in chain:
        raise StorageError(
            f"checkpoint in {directory} names no database chain of page "
            "records: it predates that layout and must be retaken"
        )

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

    # segments first: one that is missing, torn or from another chain
    # raises here, before the context has taken anything from the blob
    segments = chain["segments"]
    paths = [directory / f"{_DB_PREFIX}{number}" for number in segments]
    pages = _read_pages(paths, segments)
    if len(pages) != chain["pages"]:
        raise StorageError(
            f"checkpoint in {directory} has {len(pages)} page records, "
            f"its blob names {chain['pages']!r}"
        )
    restored = load_database(paths, stamp=segments[-1])
    anchor_terms = [record.pop("anchor_terms") for record in pages]
    documents = list(map(CrawledDocument.from_dict, pages))

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
    ctx.restore_documents(documents, anchor_terms)
    for name in _SAVED:
        database[name].bulk_insert(restored[name].rows())
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

    ctx.checkpoint_heads[digest] = _chain(restored, segments, len(pages))
    ctx.checkpoint_restores += 1
    return _stats_from_dict(state["stats"])


class Checkpointer:
    """Periodic checkpoint hook for :meth:`CrawlPipeline.crawl`
    (:class:`~repro.pipeline.driver.CrawlPipeline`).

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
