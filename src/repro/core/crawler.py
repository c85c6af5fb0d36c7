"""The focused crawler (paper sections 2.1, 3.3 and 4.2).

One :class:`FocusedCrawler` drives fetches against the simulated Web
under a :class:`PhaseSettings` policy -- the learning phase runs with a
sharp focus, depth-first priorities and seed-domain restriction, the
harvesting phase with a soft focus, confidence priorities and tunnelling
(section 3.3).  All crawl-management machinery of section 4.2 is here:

* URL sanity limits (length caps), locked-domain exclusion;
* three-stage duplicate detection (URL hash -> IP+path -> IP+filesize);
* cached asynchronous DNS with prefetch on frontier refill;
* MIME-type policies with per-type size caps;
* host failure management via :mod:`repro.robust`: failed fetches are
  retried with exponential backoff through frontier ``not_before``
  timestamps, slow hosts get demoted priority and a longer politeness
  interval, and "bad" hosts are quarantined by a circuit breaker with
  probation re-probes instead of being excluded forever;
* politeness: bounded parallel fetches per host and per domain;
* batched storage through the bulk loader;
* optional checkpoint/resume (:mod:`repro.robust.checkpoint`) and
  deterministic fault injection (:mod:`repro.robust.faults`).

The runtime state lives on a :class:`~repro.pipeline.context.
CrawlContext` (``crawler.ctx``) and the crawl loop is
:class:`~repro.pipeline.driver.CrawlPipeline` (``crawler.pipeline``),
which drains micro-batches of ``config.pipeline_batch_size`` entries
through the named stages admit / fetch / convert / analyze / classify /
persist / expand.  At batch size 1 (the default) the staged loop is
bit-identical to the historical per-document monolith.

Time is simulated: every fetch charges DNS + network + processing time
to a :class:`~repro.web.clock.WorkerPool` of ``crawler_threads`` workers,
so budgets like "90 minutes" replay deterministically in milliseconds.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.core.classifier import HierarchicalClassifier
from repro.core.config import BingoConfig
from repro.core.frontier import QueueEntry
from repro.core.records import CrawlStats, PhaseSettings
from repro.pipeline.context import CrawlContext
from repro.pipeline.driver import CrawlPipeline
from repro.storage.bulkloader import BulkLoader
from repro.text.features import FeatureSpace
from repro.web.clock import SimulatedClock
from repro.web.urls import normalize_url

__all__ = ["FocusedCrawler"]


class FocusedCrawler:
    """Fetches, classifies and stores pages under a phase policy.

    Builds the :class:`~repro.pipeline.context.CrawlContext` (``ctx``:
    frontier, documents, hosts, clock, ...) and the
    :class:`~repro.pipeline.driver.CrawlPipeline` (``pipeline``) and
    drives phases; everything else is read from those two directly.
    """

    def __init__(
        self,
        web,
        classifier: HierarchicalClassifier,
        config: BingoConfig | None = None,
        clock: SimulatedClock | None = None,
        spaces: dict[str, FeatureSpace] | None = None,
        loader: BulkLoader | None = None,
        on_document: Callable | None = None,
        on_retrain: Callable | None = None,
    ) -> None:
        self.ctx = CrawlContext(
            web,
            classifier,
            config=config,
            clock=clock,
            spaces=spaces,
            loader=loader,
            on_document=on_document,
            on_retrain=on_retrain,
        )
        self.pipeline = CrawlPipeline(self.ctx)
        self.ctx.obs.register_source("pipeline", self.pipeline)

    def seed(self, urls: list[str], topic: str, depth: int = 0,
             priority: float = 1.0) -> None:
        """Enqueue seed URLs for a topic."""
        for url in urls:
            normalized = normalize_url(url)
            if normalized is None:
                continue
            self.ctx.frontier.push(
                QueueEntry(
                    url=normalized, topic=topic, priority=priority,
                    depth=depth,
                )
            )

    def crawl(
        self,
        phase: PhaseSettings,
        resume: CrawlStats | None = None,
        checkpointer=None,
    ) -> CrawlStats:
        """Run one phase until its budget or the frontier is exhausted.

        ``resume`` continues counting into stats restored by
        :func:`repro.robust.checkpoint.restore_context` (fetch budgets
        are cumulative across the interruption).  ``checkpointer`` is an
        object with ``on_visit(ctx, stats)`` -- typically a
        :class:`repro.robust.checkpoint.Checkpointer` -- called after
        every visit.

        When every remaining URL is deferred (backoff retries, host
        quarantines), the loop advances the simulated clock to the
        earliest ready time instead of giving up.
        """
        return self.pipeline.crawl(
            phase, resume=resume, checkpointer=checkpointer
        )
