"""Integration tests for the focused crawler against the synthetic Web."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import BingoConfig, FocusedCrawler, HierarchicalClassifier
from repro.core.records import SHARP, SOFT, PhaseSettings
from repro.core.ontology import TopicTree
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.text.features import analyze_page
from repro.web import PageRole

from tests.conftest import crawl_store
from tests.core.conftest import fast_engine_config


def make_trained_classifier(web, config: BingoConfig) -> HierarchicalClassifier:
    """Train a single-topic classifier directly from web page contents."""
    tree = TopicTree.from_leaves(["databases"])
    classifier = HierarchicalClassifier(tree, config)

    def counts_for(page):
        return analyze_page(web.renderer.render(page))[0]

    positives = [
        counts_for(p)
        for p in web.pages_by_topic("databases")
        if p.role == PageRole.PAPER
    ][:20]
    negatives = [counts_for(p) for p in web.negative_example_pages(20)]
    training = {"ROOT/databases": positives, "ROOT/OTHERS": negatives}
    for docs in training.values():
        for d in docs:
            classifier.ingest(d)
    classifier.train(training)
    return classifier


@pytest.fixture(scope="module")
def crawl_result(small_web):
    config = fast_engine_config()
    classifier = make_trained_classifier(small_web, config)
    database = Database(validate=True)
    loader = BulkLoader(database, batch_size=50)
    crawler = FocusedCrawler(
        small_web, classifier, config, loader=loader,
    )
    crawler.seed(
        small_web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    settings = PhaseSettings(
        name="test", focus=SOFT, tunnelling=True, fetch_budget=250,
    )
    stats = crawler.crawl(settings)
    return crawler, stats, database


class TestCrawlerSurface:
    def test_only_constructor_seed_and_crawl(self, crawl_result) -> None:
        """The delegating facade stays gone: state is read from
        ``crawler.ctx``, single visits go through ``crawler.pipeline``."""
        members = {
            name for name in vars(FocusedCrawler)
            if not (name.startswith("__") and name != "__init__")
        }
        assert members == {"__init__", "seed", "crawl"}
        crawler, _, _ = crawl_result
        assert set(vars(crawler)) == {"ctx", "pipeline"}
        for removed in ("frontier", "documents", "_visit", "_hosts",
                        "loader", "obs", "document_by_url"):
            assert not hasattr(crawler, removed), removed
        assert not hasattr(crawler.ctx, "owner")

    def test_checkpoint_hook_receives_the_context(self, small_web) -> None:
        config = fast_engine_config()
        crawler = FocusedCrawler(
            small_web, make_trained_classifier(small_web, config), config
        )
        crawler.seed(small_web.seed_homepages(2), topic="ROOT/databases")
        seen = []

        class Hook:
            def on_visit(self, ctx, stats) -> None:
                seen.append(ctx)

        crawler.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=3),
            checkpointer=Hook(),
        )
        assert seen and all(ctx is crawler.ctx for ctx in seen)


class TestCrawlRun:
    def test_visits_and_stores_pages(self, crawl_result) -> None:
        crawler, stats, _ = crawl_result
        assert stats.visited_urls > 50
        assert 0 < stats.stored_pages <= stats.visited_urls
        assert stats.extracted_links > stats.stored_pages

    def test_simulated_time_advances(self, crawl_result) -> None:
        _, stats, _ = crawl_result
        assert stats.simulated_seconds > 0

    def test_documents_have_urls_and_topics(self, crawl_result) -> None:
        crawler, _, _ = crawl_result
        for doc in crawler.ctx.documents[:20]:
            assert doc.final_url.startswith("http://")
            assert doc.topic.startswith("ROOT/")

    def test_positively_classified_counted(self, crawl_result) -> None:
        crawler, stats, _ = crawl_result
        accepted = sum(
            1 for d in crawler.ctx.documents if not d.topic.endswith("/OTHERS")
        )
        assert stats.positively_classified == accepted
        assert accepted > 0

    def test_rows_reached_database(self, crawl_result) -> None:
        crawler, stats, _ = crawl_result
        store = crawl_store(crawler.ctx)
        assert len(store["documents"]) == stats.stored_pages
        assert len(store["terms"]) > 0
        assert len(store["links"]) > 0

    def test_no_document_from_locked_host(self, crawl_result, small_web) -> None:
        crawler, _, _ = crawl_result
        for doc in crawler.ctx.documents:
            assert not small_web.hosts[doc.host].locked

    def test_no_media_documents_stored(self, crawl_result) -> None:
        crawler, stats, _ = crawl_result
        mimes = {doc.mime for doc in crawler.ctx.documents}
        assert "video/mpeg" not in mimes

    def test_trap_does_not_dominate(self, crawl_result) -> None:
        crawler, stats, _ = crawl_result
        trap_docs = [
            d for d in crawler.ctx.documents if "trap" in d.host
        ]
        # URL length cap kills the chain quickly
        assert len(trap_docs) < 25

    def test_duplicates_were_caught(self, crawl_result) -> None:
        crawler, _, _ = crawl_result
        urls = [d.final_url for d in crawler.ctx.documents]
        assert len(urls) == len(set(urls)), "no page stored twice"

    def test_page_ids_unique_across_documents(self, crawl_result) -> None:
        crawler, _, _ = crawl_result
        page_ids = [d.page_id for d in crawler.ctx.documents if d.page_id is not None]
        assert len(page_ids) == len(set(page_ids))

    def test_depth_recorded(self, crawl_result) -> None:
        _, stats, _ = crawl_result
        assert stats.max_depth >= 2


class TestFocusRules:
    def run_crawl(self, web, focus: str, tunnelling: bool, budget: int = 150):
        config = fast_engine_config()
        classifier = make_trained_classifier(web, config)
        crawler = FocusedCrawler(web, classifier, config)
        crawler.seed(
            web.seed_homepages(3), topic="ROOT/databases", priority=10.0
        )
        settings = PhaseSettings(
            name="t", focus=focus, tunnelling=tunnelling, fetch_budget=budget,
        )
        return crawler, crawler.crawl(settings)

    def test_sharp_without_tunnelling_can_starve(self, small_web) -> None:
        """Paper section 3.3: with a strict focus and no tunnelling the
        crawler 'would quickly run out of links to be visited' when the
        seed neighbourhood is rejected -- the motivation for tunnelling."""
        _, sharp = self.run_crawl(small_web, SHARP, tunnelling=False)
        _, soft = self.run_crawl(small_web, SOFT, tunnelling=True)
        assert soft.visited_urls >= sharp.visited_urls
        assert soft.positively_classified >= sharp.positively_classified

    def test_tunnelling_reaches_more_pages(self, small_web) -> None:
        _, without = self.run_crawl(small_web, SHARP, tunnelling=False, budget=400)
        _, with_tunnel = self.run_crawl(small_web, SHARP, tunnelling=True, budget=400)
        assert (
            with_tunnel.positively_classified >= without.positively_classified
        )

    def test_max_depth_respected(self, small_web) -> None:
        config = fast_engine_config()
        classifier = make_trained_classifier(small_web, config)
        crawler = FocusedCrawler(small_web, classifier, config)
        crawler.seed(
            small_web.seed_homepages(2), topic="ROOT/databases", priority=10.0
        )
        settings = PhaseSettings(
            name="t", focus=SOFT, tunnelling=True, max_depth=2,
            fetch_budget=200,
        )
        stats = crawler.crawl(settings)
        assert stats.max_depth <= 2

    def test_domain_restriction_respected(self, small_web) -> None:
        config = fast_engine_config()
        classifier = make_trained_classifier(small_web, config)
        crawler = FocusedCrawler(small_web, classifier, config)
        seeds = small_web.seed_homepages(2)
        from repro.web.urls import parse_url

        allowed = frozenset(parse_url(u).domain for u in seeds)
        crawler.seed(seeds, topic="ROOT/databases", priority=10.0)
        settings = PhaseSettings(
            name="t", focus=SOFT, tunnelling=True,
            allowed_domains=allowed, fetch_budget=200,
        )
        crawler.crawl(settings)
        for doc in crawler.ctx.documents:
            domain = parse_url(doc.final_url).domain
            assert domain in allowed


class TestHostManagement:
    def test_bad_hosts_excluded_after_retries(self, small_web) -> None:
        config = fast_engine_config(max_retries=2)
        classifier = make_trained_classifier(small_web, config)
        crawler = FocusedCrawler(small_web, classifier, config)
        # force one university host to always fail
        host = next(
            h for h in small_web.hosts.values() if h.name.startswith("u")
        )
        old_rate = host.error_rate
        host.error_rate = 1.0
        try:
            urls = [
                p.url for p in small_web.pages if p.host == host.name
            ][:6]
            crawler.seed(urls, topic="ROOT/databases", priority=10.0)
            settings = PhaseSettings(name="t", focus=SOFT, fetch_budget=60)
            stats = crawler.crawl(settings)
            state = crawler.ctx.host_state(host.name)
            assert state.bad
            assert stats.fetch_errors >= config.max_retries
        finally:
            host.error_rate = old_rate
