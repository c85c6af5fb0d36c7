"""BINGO! core: the focused crawler and its orchestration.

This package is the paper's primary contribution: the topic tree, the
MI feature selection, the hierarchical SVM classifier with meta
decision modes, archetype selection, the red-black-tree crawl frontier
with DNS prefetch, three-stage duplicate detection, the focused crawler
with sharp/soft focus and tunnelling, and the two-phase engine.
"""

from repro._lazy import lazy_exports
from repro.core.archetypes import ArchetypeDecision, select_archetypes
from repro.core.classifier import (
    ClassificationResult,
    HierarchicalClassifier,
    NodeClassifier,
    TopicDecisionModel,
)
from repro.core.config import BingoConfig
from repro.core.dedup import DedupStats, DuplicateDetector
from repro.core.feature_selection import (
    FeatureScore,
    mutual_information,
    select_features,
)
from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.core.ontology import OTHERS_SUFFIX, ROOT, TopicNode, TopicTree
from repro.core.rbtree import RedBlackTree
from repro.core.records import (
    SHARP,
    SOFT,
    CrawledDocument,
    CrawlStats,
    PhaseSettings,
)

#: names resolved lazily (PEP 562): the crawler and the engine import
#: :mod:`repro.pipeline`, whose context imports ``repro.core.config``
#: and friends.  Imported eagerly here they would close that cycle, and
#: ``import repro.pipeline`` (or ``repro.shard``) as a process's first
#: import would meet a half-initialised ``repro.pipeline.context``.
__getattr__ = lazy_exports(__name__, {
    "FocusedCrawler": "repro.core.crawler",
    "ArchetypeReview": "repro.core.engine",
    "BingoEngine": "repro.core.engine",
    "CrawlReport": "repro.core.engine",
    "PhaseReport": "repro.core.engine",
})

__all__ = [
    "ArchetypeDecision",
    "ArchetypeReview",
    "BingoConfig",
    "BingoEngine",
    "ClassificationResult",
    "CrawlFrontier",
    "CrawlReport",
    "CrawlStats",
    "CrawledDocument",
    "DedupStats",
    "DuplicateDetector",
    "FeatureScore",
    "FocusedCrawler",
    "HierarchicalClassifier",
    "NodeClassifier",
    "OTHERS_SUFFIX",
    "PhaseReport",
    "PhaseSettings",
    "QueueEntry",
    "ROOT",
    "RedBlackTree",
    "SHARP",
    "SOFT",
    "TopicDecisionModel",
    "TopicNode",
    "TopicTree",
    "mutual_information",
    "select_archetypes",
    "select_features",
]
