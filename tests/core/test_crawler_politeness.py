"""Politeness-wait and link-storage fixes in the crawl hot path.

Two regressions guarded here: (1) ``_visit`` must *loop* until a host
slot and a domain slot are simultaneously free -- a single clock advance
can land on a moment where the host freed up but the domain is still
saturated (or several slots share one deadline); (2) ``page_rows``
must disambiguate repeated link targets by position without the
quadratic ``list.count``-style scan it used per out-link.
"""

from __future__ import annotations

from collections import Counter

from repro.core import FocusedCrawler
from repro.core.records import SOFT, CrawlStats, CrawledDocument, PhaseSettings
from repro.pipeline import context
from repro.storage.database import Database
from repro.storage.schema import page_rows
from repro.web.urls import parse_url

from tests.conftest import named_rows
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier


def make_crawler(web, **config_overrides) -> FocusedCrawler:
    config = fast_engine_config(**config_overrides)
    classifier = make_trained_classifier(web, config)
    return FocusedCrawler(web, classifier, config)


def visit(crawler, url: str) -> CrawlStats:
    """Crawl ``url`` alone: seeded, then a phase whose budget is one
    fetch."""
    crawler.seed([url], topic="ROOT/databases")
    return crawler.crawl(PhaseSettings(
        name="test", focus=SOFT, tunnelling=False, fetch_budget=1
    ))


class TestPolitenessWait:
    def test_waits_past_every_busy_host_slot(
        self, small_web, monkeypatch
    ) -> None:
        """With capacity 1 and staggered deadlines, one advance is not
        enough: after the earliest slot expires the host is still full."""
        monkeypatch.setattr(context, "MAX_PARALLEL_PER_HOST", 1)
        crawler = make_crawler(small_web)
        url = small_web.seed_homepages(1)[0]
        host = parse_url(url).host
        start = crawler.ctx.clock.now
        state = crawler.ctx.host_state(host)
        state.busy_until = [start + 5.0, start + 9.0]
        stats = visit(crawler, url)
        assert stats.visited_urls == 1
        assert crawler.ctx.clock.now >= start + 9.0
        assert stats.politeness_defers >= 2

    def test_waits_for_domain_after_host_frees(
        self, small_web, monkeypatch
    ) -> None:
        """Freeing the host slot must not bypass a saturated domain."""
        monkeypatch.setattr(context, "MAX_PARALLEL_PER_DOMAIN", 2)
        crawler = make_crawler(small_web)
        url = small_web.seed_homepages(1)[0]
        parsed = parse_url(url)
        start = crawler.ctx.clock.now
        crawler.ctx.host_state(parsed.host).busy_until = [start + 2.0]
        crawler.ctx.domain_state(parsed.domain).busy_until = [
            start + 4.0, start + 8.0,
        ]
        stats = visit(crawler, url)
        assert stats.visited_urls == 1
        # the domain only has a free slot after its earliest deadline
        assert crawler.ctx.clock.now >= start + 4.0
        assert stats.politeness_defers >= 1

    def test_capacity_respected_at_fetch_time(
        self, small_web, monkeypatch
    ) -> None:
        """After the wait loop, both capacity checks must pass (the slot
        taken by this fetch may then fill them again)."""
        monkeypatch.setattr(context, "MAX_PARALLEL_PER_HOST", 1)
        crawler = make_crawler(small_web)
        url = small_web.seed_homepages(1)[0]
        parsed = parse_url(url)
        start = crawler.ctx.clock.now
        crawler.ctx.host_state(parsed.host).busy_until = [
            start + 1.0, start + 1.0, start + 3.0,
        ]
        visit(crawler, url)
        state = crawler.ctx.host_state(parsed.host)
        # exactly the one slot belonging to the fetch we just issued
        assert len([t for t in state.busy_until if t > crawler.ctx.clock.now]) <= 1

    def test_no_wait_when_slots_free(self, small_web) -> None:
        crawler = make_crawler(small_web)
        url = small_web.seed_homepages(1)[0]
        stats = visit(crawler, url)
        assert stats.visited_urls == 1
        assert stats.politeness_defers == 0


class TestStoreRowsLinkPositions:
    def _document(self, out_urls: list[str]) -> CrawledDocument:
        return CrawledDocument(
            doc_id=0,
            url="http://src.example/page.html",
            final_url="http://src.example/page.html",
            page_id=None,
            host="src.example",
            ip="10.0.0.1",
            mime="text/html",
            size=100,
            title="source",
            depth=0,
            topic="ROOT/databases",
            confidence=0.5,
            counts={"term": Counter({"x": 1})},
            out_urls=out_urls,
            fetched_at=0.0,
        )

    def _stored_links(self, out_urls: list[str]) -> list[str]:
        database = Database()  # a repeated (src, dst) key would raise
        pages = page_rows([self._document(out_urls)], [{}])
        for relation, rows in pages.items():
            database[relation].bulk_insert(rows)
        return [row["dst_url"] for row in named_rows(database["links"])]

    def test_first_occurrence_keeps_plain_url(self) -> None:
        links = self._stored_links(
            ["http://a.example/", "http://b.example/", "http://a.example/"],
        )
        assert links == [
            "http://a.example/",
            "http://b.example/",
            "http://a.example/#2",
        ]

    def test_every_repeat_gets_unique_position(self) -> None:
        target = "http://hub.example/page.html"
        links = self._stored_links([target] * 5)
        assert links == [target] + [f"{target}#{i}" for i in range(1, 5)]
        assert len(set(links)) == 5

    def test_link_dense_page_stays_linear(self) -> None:
        """800 out-links (many repeated) store quickly and uniquely --
        the seen-set replaced a per-link quadratic scan."""
        out_urls = [
            f"http://hub{i % 40}.example/p{i % 80}.html" for i in range(800)
        ]
        links = self._stored_links(out_urls)
        assert len(links) == 800
        assert len(set(links)) == 800
