"""The crawl service container shared by every pipeline stage.

:class:`CrawlContext` owns the complete runtime state of one crawl --
the simulated clock and worker pool, the frontier, the three-stage
dedup tables, the host circuit-breaker board, domain politeness slots,
the cached DNS resolver, the bulk loader, the classifier and feature
spaces, the fault injector and the document store.  Stages receive the
context with every batch and are otherwise stateless, so the stage
graph can be rearranged (or individual stages swapped out) without
threading a dozen constructor arguments around.

Checkpoint/resume (:mod:`repro.robust.checkpoint`) serializes and
restores the context: everything a resumed crawl needs lives here.
"""

from __future__ import annotations

from bisect import insort
from collections import Counter
from dataclasses import dataclass, field, replace

from repro.core.config import BingoConfig
from repro.core.dedup import DuplicateDetector
from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.errors import DNSError
from repro.obs import MetricsRegistry
from repro.perf.text import TermInterner
from repro.robust.breaker import DEFER_QUARANTINE, BreakerBoard
from repro.robust.faults import FaultInjector
from repro.shard import ShardedFrontier, WorkerSet
from repro.text.features import TERM_SPACES
from repro.text.handlers import default_registry
from repro.web.clock import SimulatedClock, WorkerPool
from repro.web.dns import CachingResolver, DnsServer
from repro.web.urls import parse_url

__all__ = ["DomainState", "CrawlContext"]

MAX_PARALLEL_PER_HOST = 2
"""Concurrent fetches per host (paper 5.1: 2 parallel accesses)."""
MAX_PARALLEL_PER_DOMAIN = 5
"""Concurrent fetches per registrable domain (paper 5.1: 5)."""


@dataclass
class DomainState:
    """Per-registrable-domain politeness slots (busy-until end times)."""

    busy_until: list[float] = field(default_factory=list)


class CrawlContext:
    """Every service and piece of runtime state one crawl needs."""

    def __init__(
        self,
        web,
        classifier,
        config: BingoConfig | None = None,
        clock: SimulatedClock | None = None,
        spaces=None,
        loader=None,
        on_document=None,
        on_retrain=None,
    ) -> None:
        self.web = web
        self.classifier = classifier
        self.config = config or BingoConfig()
        self.config.validate()
        self.clock = clock or SimulatedClock()
        self.obs = MetricsRegistry(clock=lambda: self.clock.now)
        """The crawl's metrics registry (:mod:`repro.obs`): a directory
        of the ``stats()`` sources registered below, stamped by the
        simulated clock.  Reads crawl state, never mutates it."""
        self.pool = WorkerPool(self.config.crawler_threads, self.clock)
        self.spaces = spaces or dict(TERM_SPACES)
        self.loader = None
        if loader is not None:
            self.attach_loader(loader)
        self.on_document = on_document
        self.on_retrain = on_retrain
        self.handlers = default_registry()
        self.converted_formats: Counter = Counter()
        self.interner = TermInterner()
        """The crawl's term interner: shared word and stem memo
        tables for every document the convert stage scans.  Created
        fresh per context so its hit/miss counters (surfaced through
        obs) are deterministic for the crawl."""

        self.resolver = CachingResolver(
            [
                DnsServer(self.web.zone, latency=0.15, name=f"dns{i}")
                for i in range(self.config.dns_servers)
            ],
            self.clock,
            seed=self.config.seed,
        )
        self.workers: WorkerSet | None = None
        """The sharded runtime (:class:`repro.shard.WorkerSet`) when
        ``crawl_workers > 1``; None keeps the single-worker objects
        (one pool, no barriers)."""
        frontier_class = CrawlFrontier
        if self.config.crawl_workers > 1:
            self.workers = WorkerSet(
                self.config.crawl_workers,
                clock=self.clock,
                threads_per_worker=self.config.crawler_threads,
            )
            frontier_class = ShardedFrontier
        self.frontier = frontier_class(
            prefetch=self.prefetch_dns,
            now=lambda: self.clock.now,
        )
        self.hosts = BreakerBoard(self.config.breaker_policy())
        self.dedup = DuplicateDetector()
        self.domains: dict[str, DomainState] = {}
        self.retry_policy = self.config.retry_policy()
        self.retry_log: list[dict] = []
        """Audit trail of scheduled retries: url, attempt, scheduled_at,
        not_before -- lets tests prove no retry bypassed the backoff."""
        self.documents: list = []
        #: per stored page, its link targets' anchor terms
        self.anchor_terms: list[dict[str, list[str]]] = []
        # the three indexes below are derived from ``documents``, by
        # ``_index`` for a store and a restore, and kept by a revisit
        self.url_to_doc: dict[str, int] = {}
        """Final URL -> doc id (the last page stored under it)."""
        self.topic_docs: dict[str, list[int]] = {}
        """Topic -> its stored pages' doc ids, ascending."""
        self.in_links: dict[str, list[int]] = {}
        """Link target URL -> the doc ids of the stored pages whose
        out-links name it, ascending, each once."""
        self.docs_since_retrain = 0
        self.log_sequence = 0
        self.checkpoint_saves = 0
        self.checkpoint_restores = 0
        """Checkpoints written from / applied to this context
        (:mod:`repro.robust.checkpoint`)."""
        self.checkpoint_heads: dict = {}
        """The published checkpoint saves this context wrote or
        restored, by the sha256 of their state blob: a save into a
        directory that holds one of them extends its chain."""
        # per-crawl slots the driver rebinds at the start of each phase
        self.stats = None
        self.phase = None
        self.faults: FaultInjector | None = None
        if self.config.fault_windows:
            self.faults = FaultInjector(
                self.config.fault_windows,
                seed=self.config.seed,
                clock=self.clock,
            )
            self.web.server.faults = self.faults
            for server in self.resolver.servers:
                server.faults = self.faults

        self.obs.register_source("robust", self.hosts)
        self.obs.register_source("frontier", self.frontier)
        if self.workers is not None:
            self.obs.register_source("shard", self.workers)
        self.obs.register_source("text", self.interner)
        if hasattr(self.classifier, "stats"):
            self.obs.register_source("perf", self.classifier)
        self.obs.register_source(
            "crawl",
            lambda: self.stats.stats() if self.stats is not None else {},
        )

    def attach_loader(self, loader) -> None:
        """Bind the bulk loader and register it as a source."""
        self.loader = loader
        if loader is not None and hasattr(loader, "stats"):
            self.obs.register_source("storage", loader)

    # ------------------------------------------------------------------
    # frontier helpers
    # ------------------------------------------------------------------

    def prefetch_dns(self, url: str) -> bool:
        """Frontier refill hook: warm the DNS cache; False drops the URL."""
        parsed = parse_url(url)
        if parsed is None:
            return False
        try:
            self.resolver.resolve(parsed.host)
        except DNSError:
            return False
        return True

    # ------------------------------------------------------------------
    # host / domain politeness state
    # ------------------------------------------------------------------

    def host_state(self, host: str):
        """The host's circuit breaker (carries the politeness slots)."""
        return self.hosts.get(host)

    def host_has_capacity(self, host: str) -> bool:
        state = self.host_state(host)
        now = self.clock.now
        state.busy_until = [t for t in state.busy_until if t > now]
        return len(state.busy_until) < MAX_PARALLEL_PER_HOST

    def domain_state(self, domain: str) -> DomainState:
        state = self.domains.get(domain)
        if state is None:
            state = DomainState()
            self.domains[domain] = state
        return state

    def domain_has_capacity(self, domain: str) -> bool:
        """Politeness cap per registrable domain."""
        state = self.domain_state(domain)
        now = self.clock.now
        state.busy_until = [t for t in state.busy_until if t > now]
        return len(state.busy_until) < MAX_PARALLEL_PER_DOMAIN

    # ------------------------------------------------------------------
    # fetch scheduling / merge barriers (repro.shard)
    # ------------------------------------------------------------------

    def run_fetch(self, host: str, duration: float) -> tuple[float, float]:
        """Schedule a fetch on the pool that owns ``host`` -- the single
        shared pool, or the host's worker pool in a sharded crawl."""
        if self.workers is not None:
            return self.workers.run_fetch(host, duration)
        return self.pool.run(duration)

    def drain_pools(self) -> float:
        """Advance the clock until every fetch pool is idle."""
        if self.workers is not None:
            return self.workers.drain()
        return self.pool.drain()

    def shard_barrier(self) -> None:
        """Merge barrier: every worker's committed state is flushed, so
        global phases (link analysis, archetype promotion) read the
        merged view."""
        if self.workers is None:
            return
        if self.loader is not None:
            self.loader.flush_all()
        self.workers.run_barrier()

    def maybe_shard_barrier(self) -> None:
        """Count one committed micro-batch; run the periodic merge
        barrier when ``shard_barrier_interval`` commits have passed."""
        if self.workers is None:
            return
        if self.workers.note_commit(self.config.shard_barrier_interval):
            self.shard_barrier()

    # ------------------------------------------------------------------
    # retry / deferral scheduling (repro.robust)
    # ------------------------------------------------------------------

    def schedule_retry(self, entry: QueueEntry, actual_url: str,
                       stats) -> None:
        """Defer a failed URL back into the frontier with backoff.

        The retry carries a not-before timestamp the frontier respects,
        so no retry can hit the host before its backoff elapsed.
        """
        if not self.retry_policy.allows(entry.attempt, stats.retries):
            return
        now = self.clock.now
        not_before = now + self.retry_policy.delay(
            entry.attempt, actual_url, seed=self.config.seed
        )
        stats.retries += 1
        self.retry_log.append({
            "url": actual_url,
            "attempt": entry.attempt + 1,
            "scheduled_at": now,
            "not_before": not_before,
        })
        self.frontier.requeue(
            replace(
                entry,
                url=actual_url,
                attempt=entry.attempt + 1,
                priority=entry.priority * 0.8,
                not_before=not_before,
            )
        )

    def defer_entry(self, entry: QueueEntry, breaker, verdict: str,
                    ready_at: float, stats) -> None:
        """Push an entry back because its host is quarantined or cooling
        down; quarantine deferrals are bounded, slow-host deferrals are
        not (one entry proceeds per cool-down window, so they drain)."""
        if verdict == DEFER_QUARANTINE:
            if entry.deferrals >= breaker.policy.max_deferrals:
                stats.bad_host_skipped += 1
                return
            stats.quarantine_deferred += 1
            priority = entry.priority
        else:
            stats.slow_deferred += 1
            priority = entry.priority * breaker.policy.slow_priority_factor
        self.frontier.requeue(
            replace(
                entry,
                priority=priority,
                not_before=ready_at,
                deferrals=entry.deferrals + 1,
            )
        )

    # ------------------------------------------------------------------
    # storage
    # ------------------------------------------------------------------

    def workspace_for(self, key: int, host: str | None = None) -> int:
        """The bulk-loader workspace a row shards into.

        Fetch-log rows (keyed by log sequence) and stored pages (keyed
        by doc id) agree on it.  In a sharded crawl each worker owns a
        contiguous range of ``crawler_threads`` workspaces and ``host``
        picks the range, so a host's rows stay worker-local.
        """
        if self.workers is not None and host is not None:
            return self.workers.workspace_for(key, host)
        return key % self.config.crawler_threads

    def log_fetch(self, url: str, status: str, latency: float,
                  host: str | None = None) -> None:
        if self.loader is None:
            return
        self.log_sequence += 1
        self.loader.add(
            self.workspace_for(self.log_sequence, host),
            "crawl_log",
            (self.log_sequence, url, status, float(latency), self.clock.now),
        )

    # ------------------------------------------------------------------
    # document store
    # ------------------------------------------------------------------

    def register_document(self, document, anchor_terms) -> None:
        """Append a stored page and its anchor terms, index it, and
        open its loader workspace (flushes go in that order)."""
        self.documents.append(document)
        self.anchor_terms.append(anchor_terms)
        if self.loader is not None:
            self.loader.open(
                self.workspace_for(document.doc_id, document.host)
            )
        self._index(document)

    def restore_documents(self, documents: list, anchor_terms: list) -> None:
        """Replace the document store wholesale (a checkpoint restore)
        and index every page again, in doc id order."""
        self.documents, self.anchor_terms = documents, anchor_terms
        self.url_to_doc, self.topic_docs, self.in_links = {}, {}, {}
        for document in documents:
            self._index(document)

    def replace_document(self, document, anchor_terms) -> None:
        """Swap in a revisited page: same doc id, final URL and topic,
        new content and out-links."""
        doc_id = document.doc_id
        before = self.documents[doc_id]
        assert (before.final_url, before.topic) == (
            document.final_url, document.topic
        )
        for url in dict.fromkeys(before.out_urls):
            sources = self.in_links[url]
            sources.remove(doc_id)
            if not sources:
                del self.in_links[url]
        self.documents[doc_id] = document
        self.anchor_terms[doc_id] = anchor_terms
        for url in dict.fromkeys(document.out_urls):
            insort(self.in_links.setdefault(url, []), doc_id)

    def _index(self, document) -> None:
        """Enter a page stored after every indexed one in the URL map,
        its topic's list and the in-link index."""
        doc_id = document.doc_id
        self.url_to_doc[document.final_url] = doc_id
        self.topic_docs.setdefault(document.topic, []).append(doc_id)
        for url in dict.fromkeys(document.out_urls):
            self.in_links.setdefault(url, []).append(doc_id)

    def document_by_url(self, url: str):
        doc_id = self.url_to_doc.get(url)
        return self.documents[doc_id] if doc_id is not None else None
