"""The micro-batch crawl driver.

:class:`CrawlPipeline` drains micro-batches of up to
``config.pipeline_batch_size`` frontier entries per round and pushes
them through the seven stages.  The round has two halves:

* the **front half** (admit -> fetch) runs per entry, in pop order,
  even inside a batch: politeness slots, breaker verdicts, the DNS
  cache and worker-pool scheduling all depend on the fetch that came
  before, so these stages see size-1 batches while the round
  accumulates;
* the **back half** (convert -> analyze -> classify -> persist ->
  expand) runs once per round over the accumulated batch.  Classify
  issues a single ``classify_batch`` call; persist and expand then
  replay the batch in document order.

A retraining point inside a batch splits it: documents up to the
trigger are committed, the retrain callback fires, and the remainder
is *re-classified* under the new model before its own commit -- so a
batched crawl never classifies a document with a model older than the
one the per-document formulation would have used.

At ``pipeline_batch_size=1`` every round is one frontier pop and the
driver is operation-for-operation the historical monolithic loop: the
Table-1 counters, the simulated clock, the frontier and every stored
row come out bit-identical.  At larger sizes the strict
visit-by-visit interleaving of commit and pop is relaxed (documents
fetched together are committed together), which is the documented
trade for the kernel speedup.

Observability (:mod:`repro.obs`): a stage run is recorded once, as
one typed :class:`~repro.obs.api.StageEvent`.  The driver sums it into
its per-stage counters (:meth:`CrawlPipeline.stats`, the ``pipeline``
metrics source) and delivers it to hooks registered via
:meth:`CrawlPipeline.add_hook`; a classify decision is the stored
:class:`~repro.core.records.CrawledDocument` itself.  Events and
counters carry only deterministic counts; per-stage wall seconds are
measured from outside, by ``benchmarks/e2e``
(``pipeline.<stage>.busy_s``).  A hook that raises is isolated: the
exception is counted as ``hook_errors`` and the batch continues.
"""

from __future__ import annotations

from repro.core.records import CrawlStats
from repro.obs.api import StageEvent
from repro.pipeline.stages import (
    AdmitStage,
    AnalyzeStage,
    ClassifyStage,
    ConvertStage,
    CrawlItem,
    ExpandStage,
    FetchStage,
    PersistStage,
)

__all__ = ["CrawlPipeline"]


class CrawlPipeline:
    """Drains the frontier through the staged pipeline."""

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.admit = AdmitStage()
        self.fetch = FetchStage()
        self.convert = ConvertStage()
        self.analyze = AnalyzeStage()
        self.classify = ClassifyStage()
        self.persist = PersistStage()
        self.expand = ExpandStage()
        self.stages = (
            self.admit, self.fetch, self.convert, self.analyze,
            self.classify, self.persist, self.expand,
        )
        self.hooks: list = []
        self.batch_index = 0
        """Index of the current micro-batch round (monotonic across
        phases); stamped onto every :class:`StageEvent`."""
        self.stage_counts: dict[str, list[int]] = {
            stage.name: [0, 0, 0] for stage in self.stages
        }
        """Per stage: invocations, documents in, documents out."""
        self.docs_accepted = 0
        self.convert_tokens = 0
        """Body terms (after stopping and stemming) of every page the
        convert stage analysed."""
        self.hook_errors = 0

    def add_hook(self, hook) -> None:
        """Register an observability hook.

        ``hook(event: StageEvent)`` is the only supported signature;
        the historical 4-argument positional form and its deprecation
        adapter were removed after their one-release grace window.
        """
        self.hooks.append(hook)

    def _run_stage(self, stage, batch: list[CrawlItem]) -> list[CrawlItem]:
        out = stage.run(batch, self.ctx)
        extras: dict[str, float] = {}
        if stage.name == "classify":
            extras["accepted"] = sum(
                1 for item in out
                if item.classification is not None
                and item.classification.accepted
            )
        elif stage.name == "convert":
            self.convert_tokens += sum(
                sum(item.html_doc.stem_counts.values()) for item in out
            )
        self._emit(StageEvent(
            stage=stage.name,
            batch_index=self.batch_index,
            in_size=len(batch),
            out_size=len(out),
            extras=extras,
        ))
        return out

    def _emit(self, event: StageEvent) -> None:
        """Count one event and deliver it to every hook.

        Hook exceptions must never abort a micro-batch: a raising hook
        is charged to ``hook_errors`` and skipped.
        """
        counts = self.stage_counts[event.stage]
        counts[0] += 1
        counts[1] += event.in_size
        counts[2] += event.out_size
        self.docs_accepted += event.extras.get("accepted", 0)
        for hook in self.hooks:
            try:
                hook(event)
            except Exception:
                self.hook_errors += 1

    def stats(self) -> dict[str, float]:
        """Driver counters (:class:`repro.obs.api.Instrumented`): the
        sums of the :class:`StageEvent` stream, per stage."""
        stats = {
            "docs_accepted": float(self.docs_accepted),
            "convert_tokens": float(self.convert_tokens),
            "hook_errors": float(self.hook_errors),
            "checkpoint_saves": float(self.ctx.checkpoint_saves),
            "checkpoint_restores": float(self.ctx.checkpoint_restores),
        }
        for stage, (batches, docs_in, docs_out) in self.stage_counts.items():
            stats[f"{stage}_batches"] = float(batches)
            stats[f"{stage}_docs_in"] = float(docs_in)
            stats[f"{stage}_docs_out"] = float(docs_out)
        return stats

    # ------------------------------------------------------------------
    # the crawl loop
    # ------------------------------------------------------------------

    def crawl(self, phase, resume=None, checkpointer=None):
        """Run one phase until its budget or the frontier is exhausted.

        ``resume`` continues counting into stats restored by
        :func:`repro.robust.checkpoint.restore_context` (fetch budgets
        are cumulative across the interruption).  ``checkpointer`` is
        an object with ``on_visit(ctx, stats)`` called once per
        popped entry, after that entry's batch was committed -- at
        batch size 1 that is after every single visit, exactly the
        historical cadence.

        When every remaining URL is deferred (backoff retries, host
        quarantines), the loop advances the simulated clock to the
        earliest ready time instead of giving up.
        """
        ctx = self.ctx
        stats = resume if resume is not None else CrawlStats()
        ctx.stats = stats
        ctx.phase = phase
        base_seconds = stats.simulated_seconds
        started_at = ctx.clock.now
        deadline = (
            started_at + phase.time_budget
            if phase.time_budget is not None
            else None
        )
        batch_size = ctx.config.pipeline_batch_size
        exhausted = False
        while not exhausted:
            batch: list[CrawlItem] = []
            pops = 0
            while pops < batch_size:
                if phase.fetch_budget is not None and (
                    stats.visited_urls >= phase.fetch_budget
                ):
                    exhausted = True
                    break
                if deadline is not None and ctx.clock.now >= deadline:
                    exhausted = True
                    break
                entry = ctx.frontier.pop()
                if entry is None:
                    if pops:
                        # commit what we have first; expanding it may
                        # refill the frontier
                        break
                    ready_at = ctx.frontier.next_ready_at()
                    if ready_at is None:
                        exhausted = True
                        break
                    if deadline is not None and ready_at >= deadline:
                        exhausted = True
                        break
                    ctx.clock.advance_to(ready_at)
                    continue
                pops += 1
                admitted = self._run_stage(
                    self.admit, [CrawlItem(entry=entry)]
                )
                if admitted:
                    batch.extend(self._run_stage(self.fetch, admitted))
            if batch:
                self._commit(batch)
                # sharded crawls count committed micro-batches and run
                # the periodic merge barrier here, at a point where no
                # worker holds an in-flight batch
                ctx.maybe_shard_barrier()
            if pops:
                self.batch_index += 1
            stats.simulated_seconds = base_seconds + (
                ctx.clock.now - started_at
            )
            if checkpointer is not None:
                for _ in range(pops):
                    checkpointer.on_visit(ctx, stats)
        ctx.drain_pools()
        stats.simulated_seconds = base_seconds + (ctx.clock.now - started_at)
        if ctx.loader is not None:
            ctx.loader.flush_all()
        return stats

    # ------------------------------------------------------------------
    # batch commit
    # ------------------------------------------------------------------

    def _commit(self, batch: list[CrawlItem]) -> None:
        """Run the back half over a fetched batch, honouring retrains."""
        ctx = self.ctx
        batch = self._run_stage(self.convert, batch)
        pending = self._run_stage(self.analyze, batch)
        while pending:
            pending = self._run_stage(self.classify, pending)
            span, pending = self._split_at_retrain(pending)
            self._run_stage(self.persist, span)
            self._run_stage(self.expand, span)
            for item in span:
                if ctx.on_document is not None:
                    ctx.on_document(item.document, item.classification)
                if item.classification.accepted:
                    ctx.docs_since_retrain += 1
                    if (
                        ctx.on_retrain is not None
                        and ctx.docs_since_retrain
                        >= ctx.config.retrain_interval
                    ):
                        ctx.docs_since_retrain = 0
                        ctx.on_retrain()
            # anything after the split is re-classified under the
            # retrained model on the next pass

    def _split_at_retrain(self, batch: list[CrawlItem]):
        """Split a classified batch at the first retraining trigger.

        Returns ``(span, rest)`` where ``span`` ends with the document
        whose acceptance will fire the retrain callback; ``rest`` must
        be re-classified under the new model.
        """
        ctx = self.ctx
        if ctx.on_retrain is None:
            return batch, []
        accepted_so_far = ctx.docs_since_retrain
        for index, item in enumerate(batch):
            if item.classification.accepted:
                accepted_so_far += 1
                if accepted_so_far >= ctx.config.retrain_interval:
                    return batch[: index + 1], batch[index + 1:]
        return batch, []
