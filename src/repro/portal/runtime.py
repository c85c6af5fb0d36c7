"""The living portal: evolve the web, recrawl it, keep search fresh.

:class:`LivingPortal` ties the subsystem together around one
:class:`~repro.core.engine.BingoEngine` that has already crawled:

* :meth:`LivingPortal.open` records baseline content digests (before
  any evolution, so the baseline equals what the crawl stored) and
  stands up the :class:`~repro.search.engine.LocalSearchEngine` that
  serves the corpus;
* :meth:`LivingPortal.evolve` advances the simulated clock and lets
  :class:`~repro.portal.evolution.WebEvolution` mutate the web
  underneath the stored corpus;
* :meth:`LivingPortal.recrawl` runs one budgeted
  :class:`~repro.portal.scheduler.RecrawlScheduler` cycle and folds the
  resulting delta into the inverted index
  (:meth:`~repro.search.engine.LocalSearchEngine.apply_delta`, proven
  bit-identical to a full rebuild) and the classifier
  (:func:`~repro.portal.incremental.fold_into_classifier`), advancing
  the engine's :class:`~repro.search.epoch.Epoch`;
* :meth:`LivingPortal.freshness` measures how stale the *served* corpus
  is against ground truth -- the freshness-lag-vs-budget gate
  (``tests/portal/test_freshness_budget.py``) is built on this report;
* :meth:`LivingPortal.checkpoint` / :meth:`~LivingPortal.restore`
  round-trip the whole lifecycle (clock, evolution schedule, scheduler
  state including the mid-cycle pending delta, and the search epoch),
  so a recrawl killed mid-flight resumes with identical counters.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.engine import BingoEngine
from repro.portal.digests import content_digest
from repro.portal.evolution import EvolutionConfig, WebEvolution
from repro.portal.incremental import fold_into_classifier
from repro.portal.scheduler import RecrawlReport, RecrawlScheduler
from repro.search.engine import DeltaReport, LocalSearchEngine
from repro.search.epoch import Epoch

__all__ = ["CycleReport", "FreshnessReport", "LivingPortal"]


@dataclass(frozen=True)
class FreshnessReport:
    """How stale the served corpus is, against evolution ground truth.

    A served document is **fresh** when the digest the scheduler last
    stored for it matches the digest of the page's current rendering;
    **stale** when the page has changed since; **dead-indexed** when the
    page no longer exists but is still being served.  ``lag_mean`` /
    ``lag_max`` aggregate, over the stale and dead-indexed documents,
    the simulated seconds between the page's last observable change and
    the report's horizon ``at``.
    """

    at: float
    documents: int
    fresh_documents: int
    stale_documents: int
    dead_indexed: int
    lag_mean: float
    lag_max: float

    def stats(self) -> dict[str, float]:
        return {
            "freshness_at": float(self.at),
            "freshness_documents": float(self.documents),
            "freshness_fresh": float(self.fresh_documents),
            "freshness_stale": float(self.stale_documents),
            "freshness_dead_indexed": float(self.dead_indexed),
            "freshness_lag_mean": float(self.lag_mean),
            "freshness_lag_max": float(self.lag_max),
        }


@dataclass(frozen=True)
class CycleReport:
    """Outcome of one :meth:`LivingPortal.recrawl` call.

    ``folded`` is False for a partial (``fetch_limit``-interrupted)
    cycle: the delta stays pending on the scheduler and ``search`` /
    ``models_retrained`` report nothing.
    """

    recrawl: RecrawlReport
    search: DeltaReport | None
    models_retrained: int
    epoch: Epoch
    folded: bool

    def stats(self) -> dict[str, float]:
        merged = dict(self.recrawl.stats())
        if self.search is not None:
            merged.update(self.search.stats())
        merged["cycle_models_retrained"] = float(self.models_retrained)
        merged["cycle_folded"] = 1.0 if self.folded else 0.0
        merged["cycle_epoch_ordinal"] = float(self.epoch.ordinal)
        return merged


class LivingPortal:
    """One engine's corpus, kept alive against an evolving web."""

    def __init__(
        self,
        engine: BingoEngine,
        search: LocalSearchEngine | None = None,
        evolution: WebEvolution | None = None,
        evolution_config: EvolutionConfig | None = None,
    ) -> None:
        self.engine = engine
        self.ctx = engine.ctx
        self.clock = self.ctx.clock
        self.web = engine.web
        self.evolution = evolution or WebEvolution(
            engine.web, evolution_config
        )
        self.scheduler = RecrawlScheduler(engine)
        self.search = search
        self.cycles_run = 0
        self._opened = False

    # -- lifecycle -----------------------------------------------------------

    def open(self) -> "LivingPortal":
        """Prime baseline digests and stand up the serving tier.

        Must be called before the first :meth:`evolve`: the baseline
        digest of each page has to equal the content the crawl actually
        stored.  Idempotent.
        """
        if self._opened:
            return self
        self.scheduler.prime()
        if self.search is None:
            self.search = LocalSearchEngine(self.ctx.documents)
        self._opened = True
        return self

    def evolve(self, seconds: float) -> int:
        """Advance simulated time and apply the due evolution ticks."""
        self.open()
        self.clock.advance(seconds)
        return self.evolution.advance_to(self.clock.now)

    def recrawl(
        self,
        budget: int | None,
        fetch_limit: int | None = None,
    ) -> CycleReport:
        """One recrawl cycle: revisit, detect changes, fold the delta.

        ``budget`` is the number of revisits scheduled (None drains an
        interrupted cycle's leftover frontier -- the resume path).  When
        ``fetch_limit`` stops the cycle mid-drain, the delta stays
        pending on the scheduler and nothing is folded; a later
        ``recrawl(None)`` finishes the cycle and folds everything.
        """
        self.open()
        report = self.scheduler.run(budget=budget, fetch_limit=fetch_limit)
        if fetch_limit is not None and len(self.scheduler.frontier) > 0:
            return CycleReport(
                recrawl=report, search=None, models_retrained=0,
                epoch=self.search.epoch, folded=False,
            )
        delta = self.scheduler.collect_delta()
        search_report = None
        retrained = 0
        if not delta.empty:
            search_report = self.search.apply_delta(
                added=delta.added,
                changed=delta.changed,
                removed=delta.removed,
                reason="recrawl",
            )
            retrained = fold_into_classifier(self.engine, delta)
        self.cycles_run += 1
        return CycleReport(
            recrawl=report,
            search=search_report,
            models_retrained=retrained,
            epoch=self.search.epoch,
            folded=True,
        )

    # -- measurement ---------------------------------------------------------

    def freshness(self, at: float | None = None) -> FreshnessReport:
        """Measure the served corpus against evolution ground truth.

        ``at`` fixes the lag horizon (defaults to the clock); passing
        the same horizon across runs with different recrawl budgets
        makes their lag numbers directly comparable.
        """
        self.open()
        at = self.clock.now if at is None else at
        documents = fresh = stale = dead = 0
        lags: list[float] = []
        for doc in self.search.documents:
            documents += 1
            page_id = doc.page_id
            if page_id is None:
                fresh += 1
                continue
            changed_at = self.evolution.changed_at.get(
                page_id, doc.fetched_at
            )
            if not self.evolution.alive(page_id):
                dead += 1
                lags.append(max(at - changed_at, 0.0))
                continue
            payload = self.web.renderer.payload(self.web.pages[page_id])
            stored = self.scheduler.digests.digest_of(doc.final_url)
            if stored is not None and stored == content_digest(payload):
                fresh += 1
            else:
                stale += 1
                lags.append(max(at - changed_at, 0.0))
        return FreshnessReport(
            at=at,
            documents=documents,
            fresh_documents=fresh,
            stale_documents=stale,
            dead_indexed=dead,
            lag_mean=sum(lags) / len(lags) if lags else 0.0,
            lag_max=max(lags) if lags else 0.0,
        )

    # -- checkpoint ----------------------------------------------------------

    def checkpoint(self) -> dict:
        """Serializable image of the whole portal lifecycle."""
        self.open()
        return {
            "clock": self.clock.now,
            "cycles_run": self.cycles_run,
            "evolution": self.evolution.snapshot(),
            "scheduler": self.scheduler.snapshot(),
            "server": self.web.server.snapshot(),
            "epoch": self.search.epoch.to_dict(),
        }

    def _served_documents(self) -> list:
        """The document set the search engine held at checkpoint time.

        The scheduler patches the crawl context eagerly, but the search
        engine only sees a delta when a cycle *folds* -- so served state
        is the patched context rolled back by the still-pending delta:
        pending additions dropped, pending changes reverted to their
        pre-delta records, and only already-folded removals excluded.
        """
        pending = self.scheduler.pending
        pending_removed = set(pending.removed)
        folded_removed = self.scheduler.retired - pending_removed
        pending_added = {doc.doc_id for doc in pending.added}
        rollback = dict(pending.previous)
        documents = []
        for doc in self.ctx.documents:
            if doc.doc_id in pending_added:
                continue
            if doc.doc_id in folded_removed:
                continue
            documents.append(rollback.get(doc.doc_id, doc))
        return documents

    def restore(self, state: dict) -> "LivingPortal":
        """Rebuild the portal from a :meth:`checkpoint` image.

        Call on a *freshly constructed* portal whose engine re-ran the
        deterministic crawl and whose web was freshly generated: the
        evolution schedule is replayed, the scheduler patches the
        context back to its checkpointed shape, and the search engine is
        rebuilt over exactly the documents it was serving -- adopting
        the checkpointed epoch so invalidation continues seamlessly.
        """
        self.evolution.restore(state["evolution"])
        self.clock.advance_to(state["clock"])
        self.scheduler.restore(state["scheduler"])
        self.web.server.restore(state["server"])
        self.search = LocalSearchEngine(self._served_documents())
        self.search.restore_epoch(Epoch.from_dict(state["epoch"]))
        self.cycles_run = state["cycles_run"]
        self._opened = True
        return self

    # -- observability -------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Portal counters (:class:`repro.obs.api.Instrumented`)."""
        merged = {"portal_cycles_run": float(self.cycles_run)}
        for name, value in self.evolution.stats().items():
            merged[f"evolution_{name}"] = value
        for name, value in self.scheduler.stats().items():
            merged[name] = value
        return merged
