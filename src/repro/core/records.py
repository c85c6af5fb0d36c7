"""The crawl's plain records: phase policy, counters, stored pages.

A leaf module -- it imports nothing from the rest of the package -- so
the pipeline stages, the checkpoint layer, the recrawl scheduler and
the crawler can all name these types at module level.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any

__all__ = [
    "SHARP",
    "SOFT",
    "PhaseSettings",
    "CrawlStats",
    "CrawledDocument",
]

SHARP = "sharp"
SOFT = "soft"


@dataclass
class PhaseSettings:
    """Focusing policy of one crawl phase (learning vs harvesting)."""

    name: str = "harvesting"
    focus: str = SOFT
    """SHARP accepts only links staying in the source's class (3.3)."""
    decision_mode: str = "single"
    """Classifier combination mode for this phase (3.5)."""
    tunnelling: bool = True
    depth_first: bool = False
    """True -> deeper links get higher priority (learning phase)."""
    max_depth: int | None = None
    allowed_domains: frozenset[str] | None = None
    """Restrict the crawl to these registrable domains (learning phase)."""
    fetch_budget: int | None = None
    time_budget: float | None = None
    """Simulated seconds for this phase."""


@dataclass
class CrawlStats:
    """The counters of Table 1 plus diagnostic detail."""

    visited_urls: int = 0
    stored_pages: int = 0
    extracted_links: int = 0
    positively_classified: int = 0
    hosts_visited: set[str] = field(default_factory=set)
    max_depth: int = 0
    # diagnostics
    fetch_errors: int = 0
    """Timeouts and 5xx responses (the retryable failures)."""
    not_found: int = 0
    """404-style responses (dead links; not retried, not a host fault)."""
    redirect_loops: int = 0
    """Fetches abandoned after too many redirect hops."""
    dns_failures: int = 0
    duplicates_skipped: int = 0
    mime_rejected: int = 0
    size_rejected: int = 0
    url_rejected: int = 0
    locked_skipped: int = 0
    bad_host_skipped: int = 0
    """URLs dropped because their host's quarantine outlasted the
    deferral budget."""
    quarantine_deferred: int = 0
    """URLs pushed back into the frontier by an open circuit breaker."""
    slow_deferred: int = 0
    """URLs pushed back by a slow host's politeness cool-down."""
    politeness_defers: int = 0
    retries: int = 0
    simulated_seconds: float = 0.0

    @property
    def visited_hosts(self) -> int:
        return len(self.hosts_visited)

    def table1_row(self) -> dict[str, int]:
        """The six summary properties the paper's Table 1 reports."""
        return {
            "visited_urls": self.visited_urls,
            "stored_pages": self.stored_pages,
            "extracted_links": self.extracted_links,
            "positively_classified": self.positively_classified,
            "visited_hosts": self.visited_hosts,
            "max_crawling_depth": self.max_depth,
        }

    def stats(self) -> dict[str, float]:
        """Every numeric counter (:class:`repro.obs.api.Instrumented`)."""
        out = {
            name: float(getattr(self, name))
            for name in sorted(self.__dataclass_fields__)
            if name != "hosts_visited"
        }
        out["visited_hosts"] = float(self.visited_hosts)
        return out


@dataclass
class CrawledDocument:
    """In-memory record of one stored page (mirrors the documents rows)."""

    doc_id: int
    url: str
    final_url: str
    page_id: int | None
    host: str
    ip: str
    mime: str
    size: int
    title: str
    depth: int
    topic: str
    confidence: float
    counts: dict[str, Counter[str]]
    out_urls: list[str]
    fetched_at: float

    def to_dict(self) -> dict[str, Any]:
        """The JSON shape checkpoints store a page in."""
        data = {
            name: getattr(self, name) for name in self.__dataclass_fields__
        }
        data["counts"] = {
            space: dict(counts) for space, counts in self.counts.items()
        }
        data["out_urls"] = list(self.out_urls)
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CrawledDocument":
        data = dict(data)
        data["counts"] = {
            space: Counter(counts) for space, counts in data["counts"].items()
        }
        return cls(**data)
