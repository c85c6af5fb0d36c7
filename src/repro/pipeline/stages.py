"""The seven named crawl stages (paper section 4.2, made explicit).

Each stage implements the :class:`Stage` protocol -- ``run(batch, ctx)
-> batch`` over a list of :class:`CrawlItem` -- and is stateless apart
from what it reads and writes on the :class:`~repro.pipeline.context.
CrawlContext`.  An item that a stage rejects (bad URL, quarantined
host, duplicate, unhandled MIME type, ...) is simply dropped from the
returned batch after the relevant counter was charged, exactly like
the historical monolith returned early from ``_visit``.

Data flow::

    admit -> fetch -> convert -> analyze -> classify -> persist -> expand

**admit** and **fetch** are order-sensitive (politeness slots, breaker
verdicts and worker-pool scheduling depend on the fetch that came
before), so the driver feeds them entry by entry while accumulating a
micro-batch.  **convert**/**analyze**/**classify** are batch stages --
classify issues *one* :meth:`~repro.core.classifier.
HierarchicalClassifier.classify_batch` call per micro-batch, the
wave-based kernel path from :mod:`repro.perf.compiled`.  **persist**
and **expand** replay their batch in document order so doc ids, frontier
pushes and retrain triggers match the per-document formulation.

Simulated time: the full per-document cost (DNS + network +
:data:`PROCESSING_COST`) is charged on the fetching worker, as the
paper's crawler threads fetch and process inline -- accounting, not
scheduling.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Protocol, runtime_checkable

from repro.core.frontier import QueueEntry
from repro.core.records import SHARP, CrawledDocument
from repro.errors import DNSError
from repro.perf.text import scan_html
from repro.robust.breaker import DEFER_QUARANTINE, DEFER_SLOW
from repro.text.features import needs_ordered_stems, space_counts
from repro.web.model import MimeType
from repro.web.server import FetchStatus
from repro.web.urls import crawlable_parse, resolve_links

__all__ = [
    "STAGE_NAMES",
    "CrawlItem",
    "Stage",
    "AdmitStage",
    "FetchStage",
    "ConvertStage",
    "AnalyzeStage",
    "ClassifyStage",
    "PersistStage",
    "ExpandStage",
]

PROCESSING_COST = 0.05
"""Simulated seconds of convert + analyze + classify work per document."""

_MEGA = 1 << 20
MIME_SIZE_CAPS: dict[str, int] = {
    MimeType.HTML: 2 * _MEGA,
    MimeType.PDF: 10 * _MEGA,
    MimeType.WORD: 6 * _MEGA,
    MimeType.POWERPOINT: 10 * _MEGA,
    MimeType.ZIP: 20 * _MEGA,
    MimeType.GZIP: 20 * _MEGA,
}
"""Handled document types and their size caps ("based on large-scale
Google evaluations", paper 4.2); any other type -- video, audio, images
-- is rejected unread."""

MAX_TUNNELLING_DISTANCE = 2
"""Rejected pages in a row whose links are still followed (paper 3.3)."""
TUNNEL_PRIORITY_DECAY = 0.5
"""Priority multiplier per tunnelled step: a link ``k`` rejected pages
deep is queued at ``confidence * TUNNEL_PRIORITY_DECAY ** k``."""

#: canonical stage order
STAGE_NAMES = (
    "admit", "fetch", "convert", "analyze", "classify", "persist", "expand",
)


@dataclass
class CrawlItem:
    """One URL's state as it moves through the stages."""

    entry: object
    """The :class:`~repro.core.frontier.QueueEntry` being visited."""
    parsed: object = None
    actual_url: str = ""
    """The entry URL with any fragment stripped."""
    host_state: object = None
    """The host's circuit breaker (carries politeness slots)."""
    dns: object = None
    result: object = None
    """The server's fetch result."""
    html_doc: object = None
    counts: dict | None = None
    """Per-feature-space term multisets extracted by analyze."""
    links: list | None = None
    """Resolved, crawlable link targets, parsed
    (:class:`~repro.web.urls.ParsedUrl`); their URLs are the stored
    document's ``out_urls``."""
    classification: object = None
    document: object = None
    """The stored :class:`~repro.core.records.CrawledDocument`."""
    fetched_at: float = 0.0
    """Simulated clock reading when the fetch completed.  Captured in
    the fetch stage so a document stored later in the micro-batch keeps
    its own fetch time rather than the commit-time clock."""


@runtime_checkable
class Stage(Protocol):
    """One composable pipeline stage."""

    name: str

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        """Transform a micro-batch; dropped items simply disappear."""
        ...


class AdmitStage:
    """Politeness, capacity and circuit-breaker verdicts.

    Screens URL sanity and locked domains, asks the host's breaker for
    an admission verdict (deferring quarantined / cooling-down hosts
    back into the frontier), then blocks until both a host politeness
    slot and a domain politeness slot are free.
    """

    name = "admit"

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        stats = ctx.stats
        admitted: list[CrawlItem] = []
        for item in batch:
            url = item.entry.url
            parsed = crawlable_parse(url)
            if parsed is None:
                stats.url_rejected += 1
                continue
            if parsed.domain in ctx.config.locked_domains:
                stats.locked_skipped += 1
                continue
            host_state, verdict, ready_at = ctx.hosts.admit(
                parsed.host, ctx.clock.now
            )
            if verdict in (DEFER_SLOW, DEFER_QUARANTINE):
                ctx.defer_entry(item.entry, host_state, verdict, ready_at,
                                stats)
                continue
            item.parsed = parsed
            item.host_state = host_state
            item.actual_url = url.split("#", 1)[0]
            # Politeness: wait until a host slot AND a domain slot are
            # both actually free.  A single advance is not enough -- the
            # slot that opened at the earliest busy-until time may be
            # taken by the same deadline as another, or freeing the host
            # can still leave the domain saturated -- so loop until both
            # capacity checks pass (each check prunes expired slots at
            # the advanced clock).
            while True:
                waits = []
                if not ctx.host_has_capacity(parsed.host):
                    waits.append(min(host_state.busy_until))
                if not ctx.domain_has_capacity(parsed.domain):
                    waits.append(
                        min(ctx.domain_state(parsed.domain).busy_until)
                    )
                if not waits:
                    break
                stats.politeness_defers += 1
                ctx.clock.advance_to(min(waits))
            admitted.append(item)
        return admitted


class FetchStage:
    """DNS resolution and the server round trip, with retry scheduling.

    Charges the fetch duration (plus the configured processing cost) to
    the worker pool, records the fetch outcome on the host breaker,
    schedules backoff retries for retryable failures and screens the
    response: duplicate stages 2 (IP+path) and 3 (IP+size), redirect
    targets, MIME-type policies and size caps.
    """

    name = "fetch"

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        stats = ctx.stats
        fetched: list[CrawlItem] = []
        for item in batch:
            entry = item.entry
            parsed = item.parsed
            host_state = item.host_state
            actual_url = item.actual_url
            # DNS resolution (usually a cache hit thanks to prefetch)
            try:
                dns = ctx.resolver.resolve(parsed.host)
            except DNSError:
                stats.dns_failures += 1
                host_state.record_failure(ctx.clock.now)
                ctx.schedule_retry(entry, actual_url, stats)
                continue
            # duplicate stage 2: IP + path
            if ctx.dedup.is_known_ip_path(dns.ip, actual_url):
                stats.duplicates_skipped += 1
                continue

            result = ctx.web.server.fetch(actual_url)
            # the whole per-document cost rides on the fetching worker
            # (the paper's threads fetch and process inline)
            duration = dns.latency + result.latency + PROCESSING_COST
            start, end = ctx.run_fetch(parsed.host, duration)
            host_state.busy_until.append(end)
            host_state.note_fetch_end(end)
            ctx.domain_state(parsed.domain).busy_until.append(end)
            stats.visited_urls += 1
            stats.hosts_visited.add(parsed.host)
            stats.max_depth = max(stats.max_depth, entry.depth)
            ctx.log_fetch(
                actual_url, result.status, result.latency, host=parsed.host
            )
            item.fetched_at = ctx.clock.now

            if result.status in (FetchStatus.TIMEOUT, FetchStatus.HTTP_ERROR):
                stats.fetch_errors += 1
                host_state.record_failure(ctx.clock.now)
                # allow the retry back through duplicate stage 2
                ctx.dedup.forget_ip_path(dns.ip, actual_url)
                ctx.schedule_retry(entry, actual_url, stats)
                continue
            # the host answered: anything below is not a host fault
            host_state.record_success(ctx.clock.now)
            if result.status == FetchStatus.LOCKED:
                stats.locked_skipped += 1
                continue
            if result.status == FetchStatus.NOT_FOUND:
                stats.not_found += 1
                continue
            if result.status == FetchStatus.TOO_MANY_REDIRECTS:
                stats.redirect_loops += 1
                continue
            if result.status != FetchStatus.OK:
                stats.fetch_errors += 1
                continue

            # redirects: register the chain, dedup the final URL (stage 1)
            if result.redirect_chain and result.final_url != actual_url:
                if ctx.dedup.register_redirect_target(result.final_url):
                    stats.duplicates_skipped += 1
                    continue
            # duplicate stage 3: IP + filesize -- only when the server
            # could attribute an IP; hashing under "" would collapse
            # unrelated hosts
            if result.ip and ctx.dedup.is_known_ip_size(
                result.ip, result.size
            ):
                stats.duplicates_skipped += 1
                continue

            # document-type management
            size_cap = MIME_SIZE_CAPS.get(result.mime or "")
            if size_cap is None or result.html is None:
                stats.mime_rejected += 1
                continue
            if result.size > size_cap:
                stats.size_rejected += 1
                continue

            if entry.url != actual_url:
                item.entry = replace(entry, url=actual_url)
            item.dns = dns
            item.result = result
            fetched.append(item)
        return fetched


class ConvertStage:
    """Content handlers: recognised formats become HTML, then terms.

    The analyzer is the single-pass scanner, called through this
    module's ``scan_html`` name (where the benchmark tracer and the
    parity tests wrap it) and fed the context's shared
    :class:`~repro.perf.text.TermInterner`.  The ordered token stream
    is only materialised when a configured feature space needs it
    (:func:`~repro.text.features.needs_ordered_stems`); the default
    term-only configuration runs on the scanner's ``stem_counts``
    alone.  A payload no handler claims is not analysed: it counts as
    ``mime_rejected`` and leaves the batch.
    """

    name = "convert"

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        stats = ctx.stats
        interner = ctx.interner
        # recomputed per batch so swapped-in spaces are honoured
        with_tokens = needs_ordered_stems(ctx.spaces.values())
        converted_items: list[CrawlItem] = []
        for item in batch:
            converted = ctx.handlers.convert(
                item.result.html, item.result.mime
            )
            if converted is None:
                stats.mime_rejected += 1
                continue
            ctx.converted_formats[converted.source_format] += 1
            item.html_doc = scan_html(
                converted.html,
                interner,
                with_tokens=with_tokens,
                with_text=False,
            )
            converted_items.append(item)
        return converted_items


class AnalyzeStage:
    """Feature-space extraction plus link resolution.

    Per-space counts come from :func:`~repro.text.features.space_counts`
    -- the same function the engine's ``analyze_page`` uses, so a page
    analysed in the crawl and one analysed at bootstrap or on a revisit
    cannot diverge.  Link resolution happens here (not in expand)
    because the stored document record and its link rows need the
    resolved targets before the batch reaches persist.
    """

    name = "analyze"

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        stats = ctx.stats
        for item in batch:
            item.counts = space_counts(item.html_doc, ctx.spaces)
            item.links = resolve_links(
                item.result.final_url or item.entry.url, item.html_doc.links
            )
            stats.extracted_links += len(item.links)
        return batch


class ClassifyStage:
    """One wave-based ``classify_batch`` call for the whole micro-batch.

    The per-document idf ``ingest`` is deliberately deferred to persist
    (commit order): ingest only mutates the *live* df counters, never
    the idf snapshot classification reads, so classifying first is
    result-identical -- but a retraining point inside the batch must see
    exactly the documents committed before it.
    """

    name = "classify"

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        if not batch:
            return batch
        results = ctx.classifier.classify_batch(
            [item.counts for item in batch], mode=ctx.phase.decision_mode
        )
        for item, classification in zip(batch, results):
            item.classification = classification
        return batch


class PersistStage:
    """Document assembly in document order: each page, with its anchor
    terms, joins the context's stored pages (which the page relations
    are a view of)."""

    name = "persist"

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        stats = ctx.stats
        for item in batch:
            ctx.classifier.ingest(item.counts)
            entry = item.entry
            result = item.result
            classification = item.classification
            doc_id = len(ctx.documents)
            document = CrawledDocument(
                doc_id=doc_id,
                url=entry.url,
                final_url=result.final_url or entry.url,
                page_id=result.page_id,
                host=item.parsed.host,
                ip=result.ip or "",
                mime=result.mime or "",
                size=result.size,
                title=item.html_doc.title,
                depth=entry.depth,
                topic=classification.topic,
                confidence=classification.confidence,
                counts=item.counts,
                out_urls=[link.url for link in item.links],
                fetched_at=item.fetched_at,
            )
            ctx.register_document(document, item.html_doc.anchor_terms)
            stats.stored_pages += 1
            if classification.accepted:
                stats.positively_classified += 1
            item.document = document
        return batch


class ExpandStage:
    """Frontier pushes under the phase's focusing policy (paper 3.3)."""

    name = "expand"

    def run(self, batch: list[CrawlItem], ctx) -> list[CrawlItem]:
        for item in batch:
            self.enqueue_links(
                ctx, item.entry, item.document, item.classification,
                ctx.phase, item.links,
            )
        return batch

    def enqueue_links(self, ctx, entry, document, classification,
                      phase, links) -> None:
        """Push ``document``'s out-links; ``links`` are their parses, in
        ``document.out_urls`` order."""
        accepted = classification.accepted
        topic = classification.topic
        if accepted:
            if phase.focus == SHARP and topic != entry.topic:
                # sharp focus: only links whose source stayed in the
                # queue's class are followed (class(p) == class(q)).
                follow = False
            else:
                follow = True
            tunnelled = 0
        else:
            follow = phase.tunnelling and (
                entry.tunnelled < MAX_TUNNELLING_DISTANCE
            )
            tunnelled = entry.tunnelled + 1
            topic = entry.topic  # tunnelled links stay in the source queue
        if not follow:
            return
        depth = entry.depth + 1
        if phase.max_depth is not None and depth > phase.max_depth:
            return
        if phase.depth_first:
            priority = float(depth)
        else:
            priority = max(classification.confidence, 0.0)
        if tunnelled:
            priority *= TUNNEL_PRIORITY_DECAY ** tunnelled
        for url, parsed in zip(document.out_urls, links):
            if parsed.domain in ctx.config.locked_domains:
                continue
            if (
                phase.allowed_domains is not None
                and parsed.domain not in phase.allowed_domains
            ):
                continue
            if ctx.dedup.is_known_url(url):
                continue
            admitted = ctx.frontier.push(
                QueueEntry(
                    url=url,
                    topic=topic,
                    # links into slow hosts enter the queue demoted
                    priority=priority * ctx.hosts.priority_factor(parsed.host),
                    depth=depth,
                    tunnelled=tunnelled,
                    referrer_doc_id=document.doc_id,
                )
            )
            if admitted and ctx.workers is not None:
                # cross-shard link handoff accounting (obs only)
                ctx.workers.note_link(document.host, parsed.host)
