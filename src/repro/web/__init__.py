"""Synthetic Web substrate: graph, corpus, DNS, HTTP server, ground truth.

This package replaces the live 2003 Web the paper crawled.  See
``DESIGN.md`` for the substitution rationale; in short, the generator
reproduces the statistical properties focused crawling exploits (topical
locality, hub/authority structure, noisy hosts) with deterministic,
seed-driven construction, so every experiment replays exactly.
"""

from repro.web.clock import SimulatedClock, WorkerPool
from repro.web.corpus import PageRenderer
from repro.web.dblp import DblpRegistry, PortalScores
from repro.web.dns import CachingResolver, DnsResult, DnsServer, DnsZone
from repro.web.generator import (
    GeneratedWeb,
    WebGraphConfig,
    default_expert_config,
    generate_expert_web,
    generate_web,
    scale_web_config,
)
from repro.web.model import Host, MimeType, PageRole, PageSpec, Researcher
from repro.web.server import FetchResult, FetchStatus, SimulatedServer
from repro.web.urls import (
    MAX_HOSTNAME_LENGTH,
    MAX_URL_LENGTH,
    ParsedUrl,
    is_crawlable_url,
    join_parsed,
    normalize_url,
    parse_url,
    url_hash,
)
from repro.web.vocab import TopicUniverse, Vocabulary, WordFactory
from repro.web.web import SyntheticWeb

__all__ = [
    "CachingResolver",
    "DblpRegistry",
    "DnsResult",
    "DnsServer",
    "DnsZone",
    "FetchResult",
    "FetchStatus",
    "GeneratedWeb",
    "Host",
    "MAX_HOSTNAME_LENGTH",
    "MAX_URL_LENGTH",
    "MimeType",
    "PageRenderer",
    "PageRole",
    "PageSpec",
    "ParsedUrl",
    "PortalScores",
    "Researcher",
    "SimulatedClock",
    "SimulatedServer",
    "SyntheticWeb",
    "TopicUniverse",
    "Vocabulary",
    "WebGraphConfig",
    "WordFactory",
    "WorkerPool",
    "default_expert_config",
    "generate_expert_web",
    "generate_web",
    "is_crawlable_url",
    "join_parsed",
    "normalize_url",
    "parse_url",
    "scale_web_config",
    "url_hash",
]
