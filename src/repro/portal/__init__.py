"""The living portal: an evolving web served by a continuously
maintained BINGO! installation.

The paper's two-phase crawl terminates, but its stated goal is a
*continuously maintained* information portal.  This package supplies
the missing half of that lifecycle:

* :mod:`repro.portal.evolution` -- a deterministic web evolution model:
  pages mutate, appear and die, and links rot, on a seeded mutation
  schedule driven by the simulated clock;
* :mod:`repro.portal.scheduler` -- a recrawl scheduler feeding one
  :class:`~repro.core.frontier.CrawlFrontier` with revisit work
  prioritised by ``staleness x HITS authority``, with change detection
  via content digests stored through :mod:`repro.storage`;
* :mod:`repro.portal.incremental` -- folding new/changed/deleted
  documents into the inverted index, the idf snapshot and the SVM
  classifier without a full retrain;
* :mod:`repro.portal.runtime` -- the :class:`LivingPortal` orchestrator
  tying evolution, recrawl and incremental updates together behind the
  engine's :class:`~repro.search.epoch.Epoch` lifecycle API, with
  freshness-lag measurement.

A portal has no checkpoint of its own: a recrawl cycle runs whole, and
only the crawl underneath it checkpoints (:mod:`repro.robust.checkpoint`).
"""

from repro.portal.digests import DigestStore, content_digest
from repro.portal.evolution import EvolutionConfig, WebEvolution
from repro.portal.incremental import DocumentDelta, fold_into_classifier
from repro.portal.runtime import CycleReport, FreshnessReport, LivingPortal
from repro.portal.scheduler import RecrawlScheduler
from repro.search.epoch import Epoch

__all__ = [
    "CycleReport",
    "DigestStore",
    "DocumentDelta",
    "Epoch",
    "EvolutionConfig",
    "FreshnessReport",
    "LivingPortal",
    "RecrawlScheduler",
    "WebEvolution",
    "content_digest",
    "fold_into_classifier",
]
