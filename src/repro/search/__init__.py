"""Result postprocessing: the local search engine (paper section 3.6).

After a crawl, "the human user needs additional assistance for filtering
and analyzing such result sets".  This package provides the local search
engine with its exact/vague topic filters and combinable rankings
(cosine, classifier confidence, HITS authority), the static portal
export, the query-serving tier, and the external-search stand-in used
to pick expert-query seeds (Figure 4).
"""

from repro.search.engine import (
    DeltaReport,
    LocalSearchEngine,
    RankedHit,
    RankingWeights,
)
from repro.search.epoch import Epoch
from repro.search.index import InvertedIndex, QueryCache
from repro.search.portal_export import PortalExporter, PortalPage
from repro.search.seed_queries import ExternalSearchEngine, SeedHit
from repro.search.serving import (
    LoadConfig,
    LoadReport,
    QueryRequest,
    QueryResponse,
    QueryServer,
    TokenBucket,
    build_query_pool,
    run_query_load,
)

__all__ = [
    "DeltaReport",
    "Epoch",
    "ExternalSearchEngine",
    "InvertedIndex",
    "LoadConfig",
    "LoadReport",
    "LocalSearchEngine",
    "PortalExporter",
    "PortalPage",
    "QueryCache",
    "QueryRequest",
    "QueryResponse",
    "QueryServer",
    "RankedHit",
    "RankingWeights",
    "SeedHit",
    "TokenBucket",
    "build_query_pool",
    "run_query_load",
]
