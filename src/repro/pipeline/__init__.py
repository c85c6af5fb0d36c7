"""The staged batch crawl pipeline (paper section 4.2 as architecture).

The paper describes the crawler as a pipeline -- fetch, format
conversion, duplicate elimination, classification, storage, link
expansion -- and production crawlers (BUbiNG et al.) get their
throughput from exactly this decomposition into batched, independently
schedulable stages.  This package makes the decomposition explicit:

* :class:`~repro.pipeline.context.CrawlContext` -- the service
  container every stage reads from and writes to (clock, frontier,
  dedup tables, breaker board, resolver, bulk loader, classifier,
  fault injector, config);
* :class:`~repro.pipeline.stages.Stage` -- the ``run(batch, ctx) ->
  batch`` protocol, with the seven named stages **admit**, **fetch**,
  **convert**, **analyze**, **classify**, **persist**, **expand**;
* :class:`~repro.pipeline.driver.CrawlPipeline` -- drains micro-batches
  from the frontier through the stages.  Every stage invocation emits a
  typed :class:`repro.obs.StageEvent` to hooks registered with
  :meth:`~repro.pipeline.driver.CrawlPipeline.add_hook`, is summed into
  the driver's own ``stats()`` (the ``pipeline`` metrics source) and is
  traced as a nested span (:mod:`repro.obs`).

:class:`repro.core.crawler.FocusedCrawler` builds the context and the
pipeline and drives phases; the per-document monolith it used to be
lives on only as the degenerate ``pipeline_batch_size=1``
configuration, which reproduces the historical visit-by-visit
behaviour bit-identically.
"""

from repro.pipeline.context import CrawlContext
from repro.pipeline.driver import CrawlPipeline
from repro.pipeline.stages import (
    STAGE_NAMES,
    AdmitStage,
    AnalyzeStage,
    ClassifyStage,
    ConvertStage,
    CrawlItem,
    ExpandStage,
    FetchStage,
    PersistStage,
    Stage,
)

__all__ = [
    "STAGE_NAMES",
    "AdmitStage",
    "AnalyzeStage",
    "ClassifyStage",
    "ConvertStage",
    "CrawlContext",
    "CrawlItem",
    "CrawlPipeline",
    "ExpandStage",
    "FetchStage",
    "PersistStage",
    "Stage",
]
