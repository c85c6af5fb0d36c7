"""Crawler extras: domain politeness, logging rows, format conversion,
and whole-run determinism."""

from __future__ import annotations

import pytest

from repro.core import BingoEngine, FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.pipeline import context
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database

from tests.conftest import crawl_store, named_rows
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier


@pytest.fixture(scope="module")
def logged_crawl(small_web):
    config = fast_engine_config()
    classifier = make_trained_classifier(small_web, config)
    database = Database(validate=True)
    loader = BulkLoader(database, batch_size=25)
    crawler = FocusedCrawler(small_web, classifier, config, loader=loader)
    crawler.seed(
        small_web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    stats = crawler.crawl(
        PhaseSettings(name="t", focus=SOFT, tunnelling=True, fetch_budget=200)
    )
    return crawler, stats, database


class TestStoredRows:
    def test_crawl_log_has_one_row_per_visit(self, logged_crawl) -> None:
        crawler, stats, database = logged_crawl
        assert len(database["crawl_log"]) == stats.visited_urls
        statuses = {row["status"] for row in named_rows(database["crawl_log"])}
        assert "ok" in statuses

    def test_anchor_text_rows_stored(self, logged_crawl) -> None:
        crawler, _, _ = logged_crawl
        rows = named_rows(crawl_store(crawler.ctx)["anchor_texts"])
        assert rows, "crawled pages carry anchor texts"
        for row in rows[:20]:
            assert row["tf"] >= 1
            assert row["dst_url"].startswith("http")

    def test_formats_converted_during_crawl(self, logged_crawl) -> None:
        crawler, _, _ = logged_crawl
        formats = crawler.ctx.converted_formats
        assert formats["html"] > 0
        # the synthetic web publishes papers in several formats
        assert sum(
            formats[name] for name in ("pdf", "word", "powerpoint", "archive")
        ) > 0

    def test_non_html_documents_classified(self, logged_crawl, small_web) -> None:
        """PDF/Word/slides count for recall (paper 2.2)."""
        crawler, _, _ = logged_crawl
        non_html = [
            d for d in crawler.ctx.documents if d.mime != "text/html"
        ]
        assert non_html
        accepted = [
            d for d in non_html if not d.topic.endswith("/OTHERS")
        ]
        assert accepted, "some converted documents classify positively"


class TestDomainPoliteness:
    def test_domain_cap_limits_parallelism(
        self, small_web, monkeypatch
    ) -> None:
        monkeypatch.setattr(context, "MAX_PARALLEL_PER_HOST", 50)
        monkeypatch.setattr(context, "MAX_PARALLEL_PER_DOMAIN", 1)
        config = fast_engine_config()
        classifier = make_trained_classifier(small_web, config)
        crawler = FocusedCrawler(small_web, classifier, config)
        # seed many URLs of one registrable domain
        urls = [
            p.url for p in small_web.pages if p.host.endswith("edu.example")
        ][:30]
        crawler.seed(urls, topic="ROOT/databases", priority=10.0)
        crawler.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=30)
        )
        state = crawler.ctx.domain_state("edu.example")
        # never more than one concurrent fetch was in flight per domain:
        # the busy list is pruned each check, so it stays tiny
        assert len(state.busy_until) <= 1 + 1  # current + just-finished


class TestDeterminism:
    def test_identical_runs_store_identical_documents(self, small_web) -> None:
        def run():
            engine = BingoEngine.for_portal(
                small_web, config=fast_engine_config()
            )
            engine.run(harvesting_fetch_budget=120)
            return [d.final_url for d in engine.ctx.documents]

        assert run() == run()
