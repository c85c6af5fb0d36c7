"""Fault-injection harness tests: burst failures, flaky DNS, recovery.

The acceptance bar: a host taken down by an injected burst window must
end up quarantined, get re-probed after probation, and *recover* once
the window closes -- and no retry may hit the network before its
backoff elapsed.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.errors import DNSError
from repro.robust import FaultInjector, FaultWindow
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web.clock import SimulatedClock
from repro.web.dns import CachingResolver, DnsServer, DnsZone

from tests.conftest import named_rows
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier


class TestFaultWindow:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(start=0.0, end=10.0, kind="meteor"),
            dict(start=10.0, end=10.0),
            dict(start=0.0, end=10.0, rate=1.5),
            dict(start=0.0, end=10.0, host_fraction=0.0),
        ],
    )
    def test_bad_windows_rejected(self, kwargs) -> None:
        with pytest.raises(ValueError):
            FaultWindow(**kwargs).validate()

    def test_fires_only_inside_window(self) -> None:
        clock = SimulatedClock()
        injector = FaultInjector(
            (FaultWindow(10.0, 20.0, kind="timeout", hosts=("h1",)),),
            clock=clock,
        )
        assert injector.fetch_fault("h1", "http://h1/", 1) is None
        clock.now = 10.0
        assert injector.fetch_fault("h1", "http://h1/", 1) == "timeout"
        assert injector.fetch_fault("other", "http://other/", 1) is None
        clock.now = 20.0
        assert injector.fetch_fault("h1", "http://h1/", 1) is None
        assert injector.injected["timeout"] == 1

    def test_decisions_are_deterministic(self) -> None:
        clock = SimulatedClock(now=5.0)
        window = FaultWindow(0.0, 10.0, kind="http_error", rate=0.5)
        a = FaultInjector((window,), seed=3, clock=clock)
        b = FaultInjector((window,), seed=3, clock=clock)
        decisions_a = [a.fetch_fault("h", f"http://h/{i}", 1) for i in range(50)]
        decisions_b = [b.fetch_fault("h", f"http://h/{i}", 1) for i in range(50)]
        assert decisions_a == decisions_b
        assert any(decisions_a) and not all(decisions_a)


class TestFlakyDns:
    def make_resolver(self, windows, servers=2):
        zone = DnsZone()
        zone.register("host.example.edu", "10.0.0.1")
        clock = SimulatedClock()
        dns_servers = [
            DnsServer(zone, name=f"dns{i}") for i in range(servers)
        ]
        injector = FaultInjector(windows, clock=clock)
        for server in dns_servers:
            server.faults = injector
        return CachingResolver(dns_servers, clock), clock

    def test_total_dns_outage_fails_resolution(self) -> None:
        resolver, clock = self.make_resolver(
            (FaultWindow(0.0, 10.0, kind="dns"),)
        )
        with pytest.raises(DNSError):
            resolver.resolve("host.example.edu")
        assert resolver.failures == 1

    def test_resolution_recovers_after_window(self) -> None:
        resolver, clock = self.make_resolver(
            (FaultWindow(0.0, 10.0, kind="dns"),)
        )
        with pytest.raises(DNSError):
            resolver.resolve("host.example.edu")
        clock.now = 10.0
        result = resolver.resolve("host.example.edu")
        assert result.ip == "10.0.0.1"

    def test_partial_outage_resends_to_alternative_server(self) -> None:
        # only dns0 is down: the resolver's resend strategy must still
        # resolve every query, paying timeout latency when it starts there
        resolver, _clock = self.make_resolver(
            (FaultWindow(0.0, 1000.0, kind="dns", hosts=("dns0",)),),
            servers=2,
        )
        for i in range(12):
            zone = resolver.servers[0].zone
            zone.register(f"h{i}.example.edu", f"10.0.1.{i}")
            assert resolver.resolve(f"h{i}.example.edu").ip == f"10.0.1.{i}"
        assert resolver.failures == 0
        assert resolver.timeouts > 0, "some queries started at dns0"


class TestBurstFailureCrawl:
    @pytest.fixture(scope="class")
    def burst_crawl(self, small_web):
        host = next(
            h for h in small_web.hosts.values() if h.name.startswith("u")
        )
        config = fast_engine_config(
            max_retries=2,
            host_quarantine=30.0,
            fault_windows=(
                FaultWindow(0.0, 40.0, kind="timeout", hosts=(host.name,)),
            ),
        )
        classifier = make_trained_classifier(small_web, config)
        database = Database(validate=True)
        loader = BulkLoader(database, batch_size=10)
        crawler = FocusedCrawler(small_web, classifier, config, loader=loader)
        ctx = crawler.ctx
        ctx.retry_policy = replace(ctx.retry_policy, base_delay=2.0, jitter=0.0)
        ctx.hosts.policy = replace(ctx.hosts.policy, max_deferrals=10)
        urls = [p.url for p in small_web.pages if p.host == host.name][:5]
        crawler.seed(urls, topic="ROOT/databases", priority=10.0)
        settings = PhaseSettings(name="t", focus=SOFT, fetch_budget=80)
        stats = crawler.crawl(settings)
        return crawler, database, stats, host

    def test_faults_were_injected(self, burst_crawl) -> None:
        crawler, _, _, _ = burst_crawl
        assert crawler.ctx.faults is not None
        assert crawler.ctx.faults.injected["timeout"] > 0

    def test_host_was_quarantined_and_reprobed(self, burst_crawl) -> None:
        crawler, _, stats, host = burst_crawl
        state = crawler.ctx.host_state(host.name)
        assert state.trips >= 1, "burst tripped the breaker"
        assert state.probes >= 1, "quarantine ended in a probation probe"
        assert stats.quarantine_deferred > 0

    def test_host_recovered_after_window(self, burst_crawl) -> None:
        crawler, _, stats, host = burst_crawl
        state = crawler.ctx.host_state(host.name)
        assert not state.bad, "probe after the window closed the breaker"
        stored_from_host = [
            d for d in crawler.ctx.documents if d.host == host.name
        ]
        assert stored_from_host, "pages fetched once the burst passed"

    def test_no_retry_bypassed_backoff(self, burst_crawl) -> None:
        crawler, database, _, _ = burst_crawl
        rows_by_url: dict[str, list[dict]] = {}
        for row in named_rows(database["crawl_log"]):
            rows_by_url.setdefault(row["url"], []).append(row)
        for rows in rows_by_url.values():
            rows.sort(key=lambda row: row["at"])
        assert crawler.ctx.retry_log
        for record in crawler.ctx.retry_log:
            rows = rows_by_url.get(record["url"], [])
            attempt = record["attempt"]
            if attempt < len(rows):
                assert rows[attempt]["at"] >= record["not_before"], (
                    f"retry {attempt} of {record['url']} hit the network "
                    "before its backoff elapsed"
                )
