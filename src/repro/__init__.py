"""repro -- a full reproduction of the BINGO! focused crawler (CIDR 2003).

BINGO! interleaves crawling, SVM classification against a topic tree,
Mutual-Information feature selection, HITS-style link analysis, archetype
promotion with periodic retraining, and a two-phase (learning/harvesting)
crawl strategy.  This package rebuilds the whole system plus every
substrate it needs (synthetic Web, embedded store, ML, link analysis) and
a local search engine for result postprocessing.

Quickstart::

    from repro import SyntheticWeb, BingoEngine, BingoConfig
    web = SyntheticWeb.generate(seed=7)
    engine = BingoEngine.for_portal(web, topics=["databases"], config=BingoConfig())
    report = engine.run()

See ``examples/`` for runnable end-to-end scenarios and ``DESIGN.md`` for
the subsystem inventory.
"""

from repro._lazy import lazy_exports
from repro.errors import (
    ConfigError,
    CrawlError,
    DNSError,
    FetchError,
    OntologyError,
    ReproError,
    SchemaError,
    SearchError,
    StorageError,
    TrainingError,
)

__version__ = "1.0.0"

__all__ = [
    "ConfigError",
    "CrawlError",
    "DNSError",
    "FetchError",
    "OntologyError",
    "ReproError",
    "SchemaError",
    "SearchError",
    "StorageError",
    "TrainingError",
    "__version__",
]


#: the headline API, re-exported lazily to keep import cost low
__getattr__ = lazy_exports(__name__, {
    "SyntheticWeb": "repro.web",
    "WebGraphConfig": "repro.web",
    "BingoEngine": "repro.core",
    "BingoConfig": "repro.core",
    "FocusedCrawler": "repro.core",
    "TopicTree": "repro.core",
    "LocalSearchEngine": "repro.search",
})
