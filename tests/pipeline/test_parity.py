"""Golden parity: the staged pipeline vs the historical monolith.

The golden values below were captured from the per-document monolithic
``FocusedCrawler`` immediately before the staged-pipeline refactor
(same Web seed, same configs).  At the default
``pipeline_batch_size=1`` the staged loop must reproduce them **bit
for bit**: every Table-1 counter, every diagnostic counter, the
simulated clock, the stored document sequence, the frontier state and
the bulk-loaded row counts.

Two scenarios are pinned:

* ``soft``  -- a standalone soft-focus crawl (no retraining callback);
* ``portal`` -- the full engine run (bootstrap, sharp learning phase,
  6 mid-crawl retrainings, soft harvesting phase), which exercises the
  retrain-split path of the batch commit.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import BingoEngine, FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web import SyntheticWeb

from tests.conftest import crawl_store, small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier

SOFT_STATS = {
    "visited_urls": 120,
    "stored_pages": 111,
    "extracted_links": 572,
    "positively_classified": 96,
    "max_depth": 3,
    "fetch_errors": 0,
    "not_found": 0,
    "redirect_loops": 0,
    "dns_failures": 0,
    "duplicates_skipped": 8,
    "mime_rejected": 1,
    "size_rejected": 0,
    "url_rejected": 0,
    "locked_skipped": 0,
    "bad_host_skipped": 0,
    "quarantine_deferred": 0,
    "slow_deferred": 0,
    "politeness_defers": 96,
    "retries": 0,
    "simulated_seconds": 119.651833482,
    "visited_hosts": 18,
    "hosts_sha": "425cb0d9830d97c3",
}
SOFT_CRAWLER = {
    "documents": 111,
    "doc_urls_sha": "f036c52661d1097b",
    "doc_topics_sha": "6db1566d7713a729",
    "frontier_len": 141,
    "frontier_enqueued": 261,
    "frontier_seen_sha": "809e44e1d72e9950",
    "clock": 119.651833482,
    "converted_formats": {
        "html": 69, "pdf": 29, "powerpoint": 3, "word": 9, "archive": 1,
    },
    "retry_log": 0,
}
SOFT_DB = {"documents": 111, "terms": 17172, "links": 572, "crawl_log": 120}

PORTAL_LEARNING = {
    "visited_urls": 80,
    "stored_pages": 80,
    "extracted_links": 356,
    "positively_classified": 70,
    "max_depth": 3,
    "fetch_errors": 0,
    "not_found": 0,
    "redirect_loops": 0,
    "dns_failures": 0,
    "duplicates_skipped": 0,
    "mime_rejected": 0,
    "size_rejected": 0,
    "url_rejected": 0,
    "locked_skipped": 0,
    "bad_host_skipped": 0,
    "quarantine_deferred": 0,
    "slow_deferred": 0,
    "politeness_defers": 64,
    "retries": 0,
    "simulated_seconds": 39.587595612,
    "visited_hosts": 10,
    "hosts_sha": "f9669c8cb41b9905",
}
PORTAL_HARVESTING = {
    "visited_urls": 300,
    "stored_pages": 278,
    "extracted_links": 1175,
    "positively_classified": 194,
    "max_depth": 6,
    "fetch_errors": 3,
    "not_found": 0,
    "redirect_loops": 0,
    "dns_failures": 0,
    "duplicates_skipped": 12,
    "mime_rejected": 7,
    "size_rejected": 0,
    "url_rejected": 0,
    "locked_skipped": 0,
    "bad_host_skipped": 0,
    "quarantine_deferred": 0,
    "slow_deferred": 0,
    "politeness_defers": 212,
    "retries": 3,
    "simulated_seconds": 409.842243561,
    "visited_hosts": 34,
    "hosts_sha": "e388a16c0a1ef34d",
}
PORTAL_RETRAININGS = 6
PORTAL_ARCHETYPES_ADDED = 64
PORTAL_CRAWLER = {
    "documents": 358,
    "doc_urls_sha": "9353f085949d6d56",
    "doc_topics_sha": "a64f6a204c3d31aa",
    "frontier_len": 175,
    "frontier_enqueued": 552,
    "frontier_seen_sha": "b645dbe69d8f8b4b",
    "clock": 449.429839173,
    "converted_formats": {
        "html": 247, "pdf": 63, "word": 27, "powerpoint": 12, "archive": 9,
    },
    "retry_log": 3,
}
PORTAL_DB = {
    "documents": 358, "terms": 56365, "links": 1531, "crawl_log": 380,
}


def sha(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def stats_fingerprint(stats) -> dict:
    data = {
        field: getattr(stats, field)
        for field in stats.__dataclass_fields__
        if field != "hosts_visited"
    }
    data["visited_hosts"] = stats.visited_hosts
    data["hosts_sha"] = sha(sorted(stats.hosts_visited))
    data["simulated_seconds"] = round(data["simulated_seconds"], 9)
    return data


def crawler_fingerprint(crawler) -> dict:
    return {
        "documents": len(crawler.ctx.documents),
        "doc_urls_sha": sha([d.final_url for d in crawler.ctx.documents]),
        "doc_topics_sha": sha([d.topic for d in crawler.ctx.documents]),
        "frontier_len": len(crawler.ctx.frontier),
        "frontier_enqueued": crawler.ctx.frontier.enqueued,
        "frontier_seen_sha": sha(
            sorted(u for u in crawler.ctx.frontier.seen_urls)
        ),
        "clock": round(crawler.ctx.clock.now, 9),
        "converted_formats": dict(crawler.ctx.converted_formats),
        "retry_log": len(crawler.ctx.retry_log),
    }


class TestSoftCrawlParity:
    """Standalone soft-focus crawl: staged == monolith, bit for bit."""

    @pytest.fixture(scope="class")
    def soft_run(self):
        web = SyntheticWeb.generate(small_web_config())
        config = fast_engine_config(max_retries=2)
        classifier = make_trained_classifier(web, config)
        database = Database(validate=True)
        loader = BulkLoader(database, batch_size=10)
        crawler = FocusedCrawler(web, classifier, config, loader=loader)
        crawler.seed(
            web.seed_homepages(3), topic="ROOT/databases", priority=10.0
        )
        stats = crawler.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=120)
        )
        return crawler, stats, database

    def test_stats_bit_identical(self, soft_run) -> None:
        _, stats, _ = soft_run
        assert stats_fingerprint(stats) == SOFT_STATS

    def test_crawler_state_bit_identical(self, soft_run) -> None:
        crawler, _, _ = soft_run
        assert crawler_fingerprint(crawler) == SOFT_CRAWLER

    def test_database_rows_identical(self, soft_run) -> None:
        crawler, _, _ = soft_run
        store = crawl_store(crawler.ctx)
        rows = {name: len(store[name]) for name in SOFT_DB}
        assert rows == SOFT_DB


class TestPortalRunParity:
    """Full engine run (learning + retrains + harvesting) reproduces the
    monolith exactly, including the mid-batch retrain-split path."""

    @pytest.fixture(scope="class")
    def portal_run(self):
        web = SyntheticWeb.generate(small_web_config())
        engine = BingoEngine.for_portal(web, config=fast_engine_config())
        learning = engine.run_learning_phase()
        harvesting = engine.run_harvesting_phase(fetch_budget=300)
        return engine, learning, harvesting

    def test_learning_stats_bit_identical(self, portal_run) -> None:
        _, learning, _ = portal_run
        assert stats_fingerprint(learning.stats) == PORTAL_LEARNING

    def test_harvesting_stats_bit_identical(self, portal_run) -> None:
        _, _, harvesting = portal_run
        assert stats_fingerprint(harvesting.stats) == PORTAL_HARVESTING

    def test_retraining_trajectory_identical(self, portal_run) -> None:
        engine, _, _ = portal_run
        assert engine.retrainings == PORTAL_RETRAININGS
        assert engine.archetypes_added == PORTAL_ARCHETYPES_ADDED

    def test_crawler_state_bit_identical(self, portal_run) -> None:
        engine, _, _ = portal_run
        assert crawler_fingerprint(engine.crawler) == PORTAL_CRAWLER

    def test_database_rows_identical(self, portal_run) -> None:
        engine, _, _ = portal_run
        store = crawl_store(engine.ctx)
        rows = {name: len(store[name]) for name in PORTAL_DB}
        assert rows == PORTAL_DB
