"""The recrawl scheduler: revisit work prioritised by staleness x authority.

Feeds the *existing* frontier machinery -- a
:class:`~repro.core.frontier.CrawlFrontier` -- with revisit entries
whose priority is

    ``staleness * (normalised HITS authority + epsilon)``

so high-authority pages are refreshed first but every stale page
eventually wins on staleness alone.  Change detection runs on content
digests (:class:`~repro.portal.digests.DigestStore`): an unchanged
fetch costs one digest comparison, a changed fetch is re-analysed
through the engine's ``analyze_page`` (the crawl's own convert, scan
and feature-space path), a vanished page becomes a removal.  The
resulting :class:`~repro.portal.incremental.DocumentDelta` is what the
portal folds into the search index and the classifier.  A new page is
stored through the crawl's own funnel,
:meth:`~repro.pipeline.context.CrawlContext.register_document`, and a
changed one through
:meth:`~repro.pipeline.context.CrawlContext.replace_document`, so the
context's URL map, topic lists and in-link index follow both.
"""

from __future__ import annotations

import dataclasses
from collections import Counter
from dataclasses import dataclass

from repro.analysis.graph import LinkGraph
from repro.analysis.hits import hits
from repro.core.engine import HARVESTING_DECISION_MODE, BingoEngine
from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.core.records import CrawledDocument
from repro.portal.digests import DigestStore, content_digest
from repro.portal.incremental import DocumentDelta
from repro.web.server import FetchResult, FetchStatus
from repro.web.urls import parse_url, resolve_links

__all__ = ["RecrawlReport", "RecrawlScheduler"]

#: transient statuses worth a retry with backoff
_TRANSIENT = (FetchStatus.TIMEOUT, FetchStatus.HTTP_ERROR)

AUTHORITY_EPSILON = 0.05
"""Added to a page's normalised authority so staleness alone eventually
wins a revisit."""
MAX_RETRIES = 2
RETRY_BACKOFF = 30.0
"""Simulated seconds before a transient failure's first retry; grows
linearly with the attempt."""


#: the report counts a scheduler keeps a lifetime total of
_LIFETIME_COUNTS = (
    "scheduled", "fetched", "changed", "unchanged", "discovered", "dead",
    "errors",
)


@dataclass
class RecrawlReport:
    """Outcome of one :meth:`RecrawlScheduler.run` call.

    Counts fetches executed by *this call*; the document delta
    accumulates on the scheduler (:meth:`RecrawlScheduler.collect_delta`).
    """

    scheduled: int = 0
    fetched: int = 0
    changed: int = 0
    unchanged: int = 0
    discovered: int = 0
    dead: int = 0
    errors: int = 0
    simulated_seconds: float = 0.0

    def add(self, other: "RecrawlReport") -> None:
        """Add ``other``'s counts (not its simulated seconds) to this
        report's."""
        for name in _LIFETIME_COUNTS:
            setattr(self, name, getattr(self, name) + getattr(other, name))

    def stats(self) -> dict[str, float]:
        return {
            "recrawl_scheduled": float(self.scheduled),
            "recrawl_fetched": float(self.fetched),
            "recrawl_changed": float(self.changed),
            "recrawl_unchanged": float(self.unchanged),
            "recrawl_discovered": float(self.discovered),
            "recrawl_dead": float(self.dead),
            "recrawl_errors": float(self.errors),
            "recrawl_simulated_seconds": float(self.simulated_seconds),
        }


class RecrawlScheduler:
    """Schedules and executes revisit crawls over an engine's corpus."""

    def __init__(self, engine: BingoEngine) -> None:
        self.engine = engine
        self.ctx = engine.ctx
        self.clock = self.ctx.clock
        self.web = engine.web
        self.digests = DigestStore()
        self.frontier = CrawlFrontier(now=lambda: self.clock.now)
        self.last_crawled: dict[str, float] = {}
        self.retired: set[int] = set()
        """doc_ids of documents observed dead (skipped by scheduling)."""
        self.pending = DocumentDelta()
        """Delta accumulated since the last :meth:`collect_delta`."""
        self._primed = False
        # lifetime counters (freshness bookkeeping across cycles)
        self.lifetime = RecrawlReport()
        """The counts of every :meth:`run`'s report, added up."""

    # -- bootstrap -----------------------------------------------------------

    def prime(self) -> int:
        """Record baseline digests for every stored document.

        Must run *before* the web starts evolving: the digest of the
        page's current payload then equals the digest of the content the
        crawl actually stored.  Idempotent; returns the digests recorded.
        """
        if self._primed:
            return 0
        recorded = 0
        for doc in self.ctx.documents:
            if doc.page_id is None:
                continue
            page = self.web.pages[doc.page_id]
            payload = self.web.renderer.payload(page)
            if payload is None:
                continue
            self.digests.record(doc.final_url, content_digest(payload))
            self.last_crawled[doc.final_url] = doc.fetched_at
            recorded += 1
        self._primed = True
        return recorded

    # -- prioritisation ------------------------------------------------------

    def _authorities(self) -> dict[int, float]:
        """Min-max normalised HITS authority over the crawled graph."""
        url_to_doc = self.ctx.url_to_doc
        graph = LinkGraph()
        for doc in self.ctx.documents:
            if doc.doc_id in self.retired:
                continue
            graph.add_node(doc.doc_id, host=doc.host)
        for doc in self.ctx.documents:
            if doc.doc_id in self.retired:
                continue
            for url in doc.out_urls:
                target = url_to_doc.get(url)
                if (
                    target is not None
                    and target != doc.doc_id
                    and target not in self.retired
                ):
                    graph.add_edge(doc.doc_id, target)
        authority = hits(graph).authority
        if not authority:
            return {}
        values = [authority[doc_id] for doc_id in sorted(authority)]
        lo, hi = min(values), max(values)
        if hi <= lo:
            return {doc_id: 0.0 for doc_id in authority}
        return {
            doc_id: (score - lo) / (hi - lo)
            for doc_id, score in authority.items()
        }

    def schedule(self, budget: int) -> int:
        """Queue the ``budget`` most urgent revisits into the frontier.

        Urgency is ``staleness * (authority + epsilon)``: staleness is
        the simulated time since the document was last fetched, the
        epsilon keeps zero-authority pages refreshable.
        """
        if budget <= 0:
            return 0
        now = self.clock.now
        authorities = self._authorities()
        scored = []
        for doc in self.ctx.documents:
            if doc.doc_id in self.retired:
                continue
            url = doc.final_url
            staleness = max(
                now - self.last_crawled.get(url, doc.fetched_at), 0.0
            )
            priority = staleness * (
                authorities.get(doc.doc_id, 0.0) + AUTHORITY_EPSILON
            )
            scored.append((priority, doc.doc_id, url, doc.topic, doc.depth))
        scored.sort(key=lambda item: (-item[0], item[1]))
        queued = 0
        for priority, doc_id, url, topic, depth in scored[:budget]:
            # revisits re-admit URLs the frontier has already seen, so
            # they go through the documented re-admission path
            self.frontier.requeue(
                QueueEntry(
                    url=url, topic=topic, priority=priority,
                    depth=depth, referrer_doc_id=doc_id,
                )
            )
            queued += 1
        return queued

    # -- execution -----------------------------------------------------------

    def _analyze(
        self, result: FetchResult, base_url: str, report: RecrawlReport
    ) -> tuple[
        dict[str, Counter], list[str], str, dict[str, list[str]]
    ] | None:
        """Convert + scan + feature-extract + resolve links; with them
        the page's anchor terms, which the context stores beside it.

        A payload no content handler claims is not analysed (the
        crawl's ``mime_rejected`` policy): it counts as an error and
        the caller leaves its stored document as it was.
        """
        analysis = self.engine.analyze_page(result.html, result.mime)
        if analysis is None:
            report.errors += 1
            return None
        counts, page = analysis
        links = [link.url for link in resolve_links(base_url, page.links)]
        return counts, links, page.title, page.anchor_terms

    def _discover(self, doc: CrawledDocument) -> int:
        """Push a refreshed document's unseen out-links (new pages born
        since the original crawl reach the corpus through these).

        Only *changed revisits* discover -- newly stored pages do not,
        so discovery is one hop deep per cycle and a revisit budget
        cannot snowball into a fresh full crawl of the web.
        """
        pushed = 0
        for url in doc.out_urls:
            if self.ctx.document_by_url(url) is not None:
                continue
            if self.frontier.has_seen(url):
                continue
            if self.frontier.push(
                QueueEntry(
                    url=url, topic=doc.topic,
                    priority=max(doc.confidence, 0.0),
                    depth=doc.depth + 1, referrer_doc_id=doc.doc_id,
                )
            ):
                pushed += 1
        return pushed

    def _retire(self, url: str, report: RecrawlReport) -> None:
        doc_id = self.ctx.url_to_doc.get(url)
        if doc_id is None or doc_id in self.retired:
            return
        self.retired.add(doc_id)
        self.digests.forget(url)
        self.last_crawled[url] = self.clock.now
        self.pending.record_removed(self.ctx.documents[doc_id])
        report.dead += 1

    def _store_new(
        self, entry: QueueEntry, result: FetchResult,
        report: RecrawlReport,
    ) -> None:
        analysis = self._analyze(
            result, result.final_url or entry.url, report
        )
        if analysis is None:
            return
        counts, out_urls, title, anchor_terms = analysis
        classified = self.engine.classifier.classify(
            counts, mode=HARVESTING_DECISION_MODE
        )
        parsed = parse_url(result.final_url or entry.url)
        doc_id = len(self.ctx.documents)
        doc = CrawledDocument(
            doc_id=doc_id,
            url=entry.url,
            final_url=result.final_url or entry.url,
            page_id=result.page_id,
            host=parsed.host if parsed is not None else "",
            ip=result.ip or "",
            mime=result.mime or "text/html",
            size=result.size,
            title=title,
            depth=entry.depth,
            topic=classified.topic,
            confidence=classified.confidence,
            counts=counts,
            out_urls=out_urls,
            fetched_at=self.clock.now,
        )
        self.ctx.register_document(doc, anchor_terms)
        self.digests.record(doc.final_url, content_digest(result.html))
        self.last_crawled[doc.final_url] = self.clock.now
        self.pending.record_added(doc)
        report.discovered += 1

    def _refresh(
        self, entry: QueueEntry, result: FetchResult,
        report: RecrawlReport,
    ) -> None:
        url = result.final_url or entry.url
        doc = self.ctx.document_by_url(url)
        if doc is None:
            self._store_new(entry, result, report)
            return
        status = self.digests.record(url, content_digest(result.html))
        self.last_crawled[url] = self.clock.now
        if status == DigestStore.UNCHANGED:
            report.unchanged += 1
            return
        analysis = self._analyze(result, url, report)
        if analysis is None:
            return
        counts, out_urls, title, anchor_terms = analysis
        updated = dataclasses.replace(
            doc,
            mime=result.mime or doc.mime,
            size=result.size,
            title=title or doc.title,
            counts=counts,
            out_urls=out_urls,
            fetched_at=self.clock.now,
        )
        self.ctx.replace_document(updated, anchor_terms)
        self.pending.record_changed(doc, updated)
        report.changed += 1
        self._discover(updated)

    def run(self, budget: int) -> RecrawlReport:
        """One recrawl cycle: schedule ``budget`` revisits, drain the
        frontier; the document delta accumulates on :attr:`pending`.
        ``budget=0`` queues nothing and drains what the frontier holds.
        """
        report = RecrawlReport()
        report.scheduled = self.schedule(budget)
        started = self.clock.now
        while True:
            entry = self.frontier.pop()
            if entry is None:
                ready_at = self.frontier.next_ready_at()
                if ready_at is None:
                    break
                self.clock.advance_to(ready_at)
                continue
            result = self.web.server.fetch(entry.url)
            self.clock.advance(result.latency)
            report.fetched += 1
            if result.status in _TRANSIENT:
                if entry.attempt < MAX_RETRIES:
                    backoff = RETRY_BACKOFF * (entry.attempt + 1)
                    self.frontier.requeue(
                        dataclasses.replace(
                            entry,
                            attempt=entry.attempt + 1,
                            not_before=self.clock.now + backoff,
                        )
                    )
                else:
                    report.errors += 1
                continue
            if not result.ok or result.html is None:
                # NOT_FOUND and friends: the page is gone
                self._retire(entry.url, report)
                continue
            self._refresh(entry, result, report)
        report.simulated_seconds = self.clock.now - started
        self.lifetime.add(report)
        return report

    def collect_delta(self) -> DocumentDelta:
        """Harvest (and reset) the accumulated document delta.

        The caller folds it into the search engine
        (:meth:`~repro.search.engine.LocalSearchEngine.apply_delta`) and
        the classifier
        (:func:`~repro.portal.incremental.fold_into_classifier`).
        """
        delta = self.pending
        self.pending = DocumentDelta()
        return delta

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Lifetime freshness counters
        (:class:`repro.obs.api.Instrumented`)."""
        merged: dict[str, float] = {}
        for name in _LIFETIME_COUNTS:
            merged[f"recrawl_total_{name}"] = float(
                getattr(self.lifetime, name)
            )
        merged["recrawl_retired_documents"] = float(len(self.retired))
        for name, value in self.digests.stats().items():
            merged[name] = value
        return merged
