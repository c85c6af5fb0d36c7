"""Deterministic-seed tests for every fetch failure path.

Each test forces one failure mode (timeout, 5xx, DNS failure, redirect
loop, 404, locked host) and asserts the crawler's accounting, the retry
scheduling and the final host state.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, CrawlStats, PhaseSettings
from repro.errors import DNSError
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web.urls import parse_url

from tests.conftest import named_rows
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier


def make_crawler(web, **overrides):
    config = fast_engine_config(**overrides)
    classifier = make_trained_classifier(web, config)
    database = Database(validate=True)
    loader = BulkLoader(database, batch_size=10)
    crawler = FocusedCrawler(web, classifier, config, loader=loader)
    return crawler, database


def failing_host(web, attribute: str):
    """Force one university host to always fail; returns (host, undo)."""
    host = next(h for h in web.hosts.values() if h.name.startswith("u"))
    old = getattr(host, attribute)
    setattr(host, attribute, 1.0)
    return host, lambda: setattr(host, attribute, old)


def host_urls(web, host, count: int) -> list[str]:
    return [p.url for p in web.pages if p.host == host.name][:count]


def crawl_log_rows(database, url: str) -> list[dict]:
    return sorted(
        (row for row in named_rows(database["crawl_log"]) if row["url"] == url),
        key=lambda row: row["at"],
    )


SETTINGS = PhaseSettings(name="t", focus=SOFT, fetch_budget=60)


class TestTimeoutRetries:
    @pytest.fixture(scope="class")
    def timeout_crawl(self, small_web):
        host, undo = failing_host(small_web, "timeout_rate")
        crawler, database = make_crawler(small_web, max_retries=3)
        try:
            urls = host_urls(small_web, host, 4)
            crawler.seed(urls, topic="ROOT/databases", priority=10.0)
            stats = crawler.crawl(SETTINGS)
        finally:
            undo()
        return crawler, database, stats, host, urls

    def test_failures_and_retries_counted(self, timeout_crawl) -> None:
        _, _, stats, _, urls = timeout_crawl
        assert stats.fetch_errors > 0
        assert 0 < stats.retries <= 3 * len(urls)
        assert stats.stored_pages == 0

    def test_every_retry_waited_for_backoff(self, timeout_crawl) -> None:
        crawler, database, _, _, _ = timeout_crawl
        policy = crawler.ctx.retry_policy
        assert crawler.ctx.retry_log, "retries were scheduled"
        for record in crawler.ctx.retry_log:
            delay = record["not_before"] - record["scheduled_at"]
            attempt = record["attempt"]  # 1-based
            raw = min(
                policy.base_delay * policy.multiplier ** (attempt - 1),
                policy.max_delay,
            )
            assert raw * (1 - policy.jitter) <= delay <= raw * (1 + policy.jitter)
            # the actual re-fetch (crawl_log row `attempt`) came no
            # earlier than the scheduled not-before time
            rows = crawl_log_rows(database, record["url"])
            if attempt < len(rows):
                assert rows[attempt]["at"] >= record["not_before"]

    def test_host_ends_quarantined(self, timeout_crawl) -> None:
        crawler, _, _, host, _ = timeout_crawl
        state = crawler.ctx.host_state(host.name)
        assert state.bad
        assert state.trips >= 1

    def test_no_retry_fragment_urls(self, timeout_crawl) -> None:
        """The attempt number is a QueueEntry field now, not a synthetic
        ``#retryN`` fragment smuggled through the URL."""
        crawler, database, _, _, _ = timeout_crawl
        assert all("#retry" not in row["url"]
                   for row in named_rows(database["crawl_log"]))
        assert all("#retry" not in url for url in crawler.ctx.frontier.seen_urls)

    def test_quarantine_deferrals_accounted(self, timeout_crawl) -> None:
        _, _, stats, _, urls = timeout_crawl
        # once the breaker opened, the remaining entries were deferred
        # and eventually dropped, never fetched through the quarantine
        assert stats.quarantine_deferred + stats.bad_host_skipped > 0


class TestHttpErrorRetries:
    def test_server_errors_are_retried_then_give_up(self, small_web) -> None:
        host, undo = failing_host(small_web, "error_rate")
        crawler, database = make_crawler(small_web, max_retries=2)
        try:
            urls = host_urls(small_web, host, 3)
            crawler.seed(urls, topic="ROOT/databases", priority=10.0)
            stats = crawler.crawl(SETTINGS)
        finally:
            undo()
        assert stats.fetch_errors > 0
        assert stats.retries > 0
        assert crawler.ctx.host_state(host.name).bad
        # a retried URL really was fetched again (duplicate stage 2 was
        # told to forget the failed fetch)
        refetched = [u for u in urls if len(crawl_log_rows(database, u)) > 1]
        assert refetched

    def test_retry_budget_caps_phase_retries(self, small_web) -> None:
        host, undo = failing_host(small_web, "error_rate")
        crawler, _ = make_crawler(small_web, max_retries=3)
        crawler.ctx.retry_policy = replace(crawler.ctx.retry_policy, budget=1)
        try:
            crawler.seed(
                host_urls(small_web, host, 4),
                topic="ROOT/databases", priority=10.0,
            )
            stats = crawler.crawl(SETTINGS)
        finally:
            undo()
        assert stats.retries <= 1


class TestDnsFailurePath:
    def test_dns_error_schedules_backoff_retry(self, small_web) -> None:
        crawler, _ = make_crawler(small_web)
        university = next(
            h for h in small_web.hosts.values() if h.name.startswith("u")
        )
        url = host_urls(small_web, university, 1)[0]
        host = parse_url(url).host

        resolve = crawler.ctx.resolver.resolve
        lookups = []

        def fail_after_prefetch(hostname):
            # the frontier's prefetch resolves; the fetch's lookup fails
            lookups.append(hostname)
            if len(lookups) > 1:
                raise DNSError(f"injected failure for {hostname}")
            return resolve(hostname)

        crawler.ctx.resolver.resolve = fail_after_prefetch
        crawler.seed([url], topic="ROOT/databases")
        # the phase ends before the backoff does: one attempt
        stats = crawler.crawl(replace(SETTINGS, time_budget=1.0))
        assert stats.dns_failures == 1
        assert stats.visited_urls == 0, "no fetch happened"
        assert crawler.ctx.host_state(host).failures == 1
        assert len(crawler.ctx.retry_log) == 1
        assert crawler.ctx.frontier.next_ready_at() == pytest.approx(
            crawler.ctx.retry_log[0]["not_before"]
        )


class TestNonRetryableResponses:
    def visit(self, crawler, url: str) -> CrawlStats:
        """Crawl ``url`` alone, with a budget of one fetch."""
        crawler.seed([url], topic="ROOT/databases")
        return crawler.crawl(replace(SETTINGS, fetch_budget=1))

    def test_not_found_is_not_a_host_fault(self, small_web) -> None:
        crawler, _ = make_crawler(small_web)
        host = next(
            h for h in small_web.hosts.values()
            if h.name.startswith("u") and not h.locked
        )
        stats = self.visit(crawler, f"http://{host.name}/no-such-page.html")
        assert stats.not_found == 1
        assert stats.fetch_errors == 0
        assert stats.visited_urls == 1
        assert not crawler.ctx.retry_log
        state = crawler.ctx.host_state(host.name)
        assert state.failures == 0 and not state.slow

    def test_redirect_loop_counted_not_retried(self, small_web) -> None:
        crawler, _ = make_crawler(small_web)
        alias = next(
            url for url, (_pid, kind) in small_web.server.url_map.items()
            if kind == "alias"
        )
        old_max = small_web.server.max_redirects
        small_web.server.max_redirects = 0
        try:
            stats = self.visit(crawler, alias)
        finally:
            small_web.server.max_redirects = old_max
        assert stats.redirect_loops == 1
        assert stats.fetch_errors == 0
        assert not crawler.ctx.retry_log
        assert not crawler.ctx.host_state(parse_url(alias).host).slow

    def test_locked_host_counted_as_locked(self, small_web) -> None:
        crawler, _ = make_crawler(small_web)
        host = next(h for h in small_web.hosts.values() if not h.locked)
        url = host_urls(small_web, host, 1)[0]
        host.locked = True
        try:
            stats = self.visit(crawler, url)
        finally:
            host.locked = False
        assert stats.locked_skipped == 1
        assert stats.fetch_errors == 0

    def test_locked_domain_skipped_without_fetch(self, small_web) -> None:
        host = next(h for h in small_web.hosts.values() if not h.locked)
        url = host_urls(small_web, host, 1)[0]
        domain = parse_url(url).domain
        crawler, _ = make_crawler(small_web, locked_domains=(domain,))
        stats = self.visit(crawler, url)
        assert stats.locked_skipped == 1
        assert stats.visited_urls == 0


class TestSlowHostRegression:
    """The seed code set the ``slow`` flag but never read it; slow hosts
    must now feel it in priority and politeness."""

    def test_slow_host_cooldown_spaces_fetches(self, small_web) -> None:
        host, undo = failing_host(small_web, "timeout_rate")
        crawler, database = make_crawler(small_web, max_retries=3)
        ctx = crawler.ctx
        ctx.retry_policy = replace(ctx.retry_policy, base_delay=1.0, jitter=0.0)
        ctx.hosts.policy = replace(ctx.hosts.policy, slow_cooldown=50.0)
        try:
            url = host_urls(small_web, host, 1)[0]
            crawler.seed([url], topic="ROOT/databases", priority=10.0)
            stats = crawler.crawl(SETTINGS)
        finally:
            undo()
        assert stats.slow_deferred >= 1, "slow flag gated admission"
        rows = crawl_log_rows(database, url)
        assert len(rows) >= 3
        # the second retry hit the slow-host cool-down: >= 50 simulated
        # seconds passed although the backoff alone asked for ~2
        assert rows[2]["at"] - rows[1]["at"] >= 50.0

    def test_links_into_slow_hosts_are_demoted(self, small_web) -> None:
        crawler, _ = make_crawler(small_web)
        factor = crawler.ctx.hosts.policy.slow_priority_factor
        breaker = crawler.ctx.hosts.get("slow.example.edu")
        breaker.record_failure(0.0)
        assert crawler.ctx.hosts.priority_factor("slow.example.edu") == factor
        assert crawler.ctx.hosts.priority_factor("healthy.example.edu") == 1.0
