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
upserts at each retraining point.  A save flushes the loader and
builds the page relations' rows of the pages it adds
(:func:`~repro.storage.schema.page_rows`), which the crawl never stores.

On-disk layout (via :func:`repro.storage.persistence.dump_state` and
:func:`~repro.storage.persistence.dump_database`)::

    <directory>/crawl.json     # runtime state of the newest save and its
                               # chain: segment ordinals, row counts
    <directory>/database-<n>/  # segment n, what save n added: the rows
                               # each relation gained (a dump segment
                               # stamped n), and pages.json with what no
                               # row carries of each new page (final URL,
                               # IP, non-term counts)

A save writes one immutable segment with what changed since the save it
extends, and a page once: restore replays the chain and rebuilds
``ctx.documents`` from the ``documents`` / ``terms`` / ``links`` rows
plus ``pages.json``, and ``ctx.anchor_terms`` from the ``anchor_texts``
rows.  A relation that saw a keyed overwrite since then is written
whole and replaces the chain's copy on replay; append-only
segments hold no garbage (their sum is a full dump), so nothing needs
compacting.  A context extends only a chain whose published save it
wrote or restored (``ctx.checkpoint_heads``, by the sha256 of
``crawl.json``); anywhere else it starts a new chain.

A save is atomic against a kill at any point.  The one rename that puts
the new ``crawl.json`` in place publishes its fresh segment; until then
the previous blob and its untouched chain are the checkpoint, and
segments outside the published chain are deleted only after it.  A
restore refuses a chain whose stamps, links or files disagree before
the context takes anything.  (Nothing is fsynced: this guards against a
dying process, not a dying machine.)
"""

from __future__ import annotations

import hashlib
import heapq
import json
import pathlib
import shutil
from collections import Counter
from itertools import groupby, repeat
from operator import itemgetter
from typing import Any

from repro.core.records import CrawledDocument, CrawlStats
from repro.errors import StorageError
from repro.storage.database import Database
from repro.storage.persistence import (
    dump_database,
    dump_state,
    load_database,
    load_state,
)
from repro.storage.schema import PAGE_RELATIONS, page_rows

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
_TERM_SPACE = "term"
"""The feature space whose counts are the ``terms`` rows."""
_DOC_ID = itemgetter(0)
_TERM_TF = itemgetter(1, 2)


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


def _chain(database: Database, segments: list[int], held: State) -> State:
    """A published save's chain: its segments oldest first, and each
    relation's row count (``held`` for those ``database`` lacks) and
    keyed overwrites then -- what a save that extends it need not write
    again."""
    relations = database.relations
    return {
        "segments": segments,
        "rows": {name: len(r) for name, r in relations.items()} | held,
        "replaced": {name: r.replaced for name, r in relations.items()},
    }


_NEW_CHAIN: State = {"segments": [], "rows": {}, "replaced": {}}
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
# pages: what the rows do not carry
# ----------------------------------------------------------------------

def _write_pages(
    path: pathlib.Path, stamp: int, start: int,
    documents: list[CrawledDocument],
) -> None:
    """``pages.json`` of segment ``stamp``: per page from doc id
    ``start`` on, its final URL, IP and counts -- ``None`` for the space
    the ``terms`` rows hold."""
    pages = [
        [
            document.final_url,
            document.ip,
            {
                space: None if space == _TERM_SPACE else counts
                for space, counts in document.counts.items()
            },
        ]
        for document in documents
    ]
    with path.open("w", encoding="utf-8") as out:
        out.write(json.dumps(
            {"stamp": stamp, "start": start, "pages": pages},
            separators=(",", ":"),
        ))


def _read_pages(
    segments: list[pathlib.Path], stamps: list[int]
) -> list[list[Any]]:
    """Every page entry of a chain, in doc-id order; raises unless each
    segment's ``pages.json`` is whole, carries the segment's stamp and
    continues the one before."""
    pages: list[list[Any]] = []
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
        entries = data.get("pages")
        if (
            data.get("start") != len(pages)
            or type(entries) is not list
            or set(map(type, entries)) - {list}
            or set(map(len, entries)) - {3}
        ):
            raise StorageError(
                f"{_PAGES} in {segment} does not continue the chain's "
                f"{len(pages)} pages"
            )
        pages.extend(entries)
    return pages


def _rebuild_documents(
    database: Database, pages: list[list[Any]]
) -> tuple[list[CrawledDocument], list[dict[str, list[str]]]]:
    """The stored pages and their anchor terms, from the page relations'
    rows (matched by doc id) and the chain's page entries: :func:`page_rows`
    over them gives those rows back.  A page's ``terms`` rows
    are its term counts in ``Counter`` order, its ``links`` rows its
    out-links in order, a repeated target carrying a ``#position``
    suffix (no normalized URL holds a ``#``), and its ``anchor_texts``
    rows each target's anchor terms, counted in first-seen order."""
    rows = {row[0]: row for row in database["documents"].rows()}
    terms: dict[int, Counter[str]] = {}
    for doc_id, run in groupby(database["terms"].rows(), _DOC_ID):
        dict.update(terms.setdefault(doc_id, Counter()), map(_TERM_TF, run))
    links: dict[int, list[str]] = {}
    for doc_id, run in groupby(database["links"].rows(), _DOC_ID):
        links.setdefault(doc_id, []).extend(
            target.partition("#")[0] for _, target, _ in run
        )
    anchors: dict[int, dict[str, list[str]]] = {}
    for doc_id, target, term, tf in database["anchor_texts"].rows():
        anchors.setdefault(doc_id, {}).setdefault(target, []).extend(
            repeat(term, tf)
        )
    documents: list[CrawledDocument] = []
    for doc_id, (final_url, ip, spaces) in enumerate(pages):
        try:
            (_, url, host, mime, size, title, topic, confidence, depth,
             fetched_at, page_id) = rows[doc_id]
        except KeyError:
            raise StorageError(f"no documents row for page {doc_id}") from None
        documents.append(CrawledDocument(
            doc_id=doc_id, url=url, final_url=final_url, page_id=page_id,
            host=host, ip=ip, mime=mime, size=size, title=title,
            depth=depth, topic=topic, confidence=confidence,
            counts={
                space: (
                    terms.get(doc_id, Counter()) if counts is None
                    else Counter(counts)
                )
                for space, counts in spaces.items()
            },
            out_urls=links.get(doc_id, []),
            fetched_at=fetched_at,
        ))
    return documents, [
        anchors.get(doc_id, {}) for doc_id in range(len(pages))
    ]


# ----------------------------------------------------------------------
# whole-context snapshot
# ----------------------------------------------------------------------

def snapshot_context(ctx: Context, stats: CrawlStats) -> State:
    """The serializable runtime state of one crawl context -- all of it
    but the stored pages, which a save writes as rows.

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
            f"its {len(ctx.documents)} stored pages: a page stored outside "
            "the crawl pipeline (a recrawl) has no rows to save"
        )
    ctx.loader.flush_all()
    database = ctx.loader.database
    on_disk = _database_dirs(directory)
    ordinal = on_disk[-1][0] + 1 if on_disk else 1
    head = ctx.checkpoint_heads.get(_blob_digest(directory), _NEW_CHAIN)
    segment = directory / f"{_DB_PREFIX}{ordinal}"
    segment.mkdir(parents=True)
    start = head["rows"].get("documents", 0)
    pages = page_rows(ctx.documents[start:], ctx.anchor_terms[start:])
    since = {
        name: head["rows"][name]
        for name, relation in database.relations.items()
        if relation.replaced == head["replaced"].get(name)
    }
    dump_database(
        database, segment, stamp=ordinal,
        after=head["segments"][-1] if head["segments"] else None,
        since=since, pages=pages,
    )  # checks the page rows before it writes a byte
    _write_pages(segment / _PAGES, ordinal, start, ctx.documents[start:])
    state = snapshot_context(ctx, stats)
    state["database"] = chain = _chain(
        database, head["segments"] + [ordinal],
        {name: since.get(name, 0) + len(rows) for name, rows in pages.items()},
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
    chain's page relations, and its other rows go into that database.
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
    if chain is None:
        raise StorageError(
            f"checkpoint in {directory} names no database chain: it "
            "predates the segment layout and must be retaken"
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

    # rows first: a segment that is missing, torn or from another chain
    # raises here, before the context has taken anything from the blob
    segments = chain["segments"]
    paths = [directory / f"{_DB_PREFIX}{number}" for number in segments]
    pages = _read_pages(paths, segments)
    if len(pages) != chain["rows"]["documents"]:
        raise StorageError(
            f"checkpoint in {directory} has {len(pages)} page entries for "
            f"{chain['rows']['documents']} documents rows"
        )
    restored = load_database(paths, stamp=segments[-1])
    documents, anchor_terms = _rebuild_documents(restored, pages)

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
    ctx.documents, ctx.anchor_terms = documents, anchor_terms
    for name, relation in database.relations.items():
        if name not in PAGE_RELATIONS:
            relation.bulk_insert(restored[name].rows())
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

    ctx.checkpoint_heads[digest] = _chain(restored, segments, {})
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
