"""Failure-injection tests: the crawl survives a hostile Web.

The paper's crawl-management hardening (section 4.2) exists because the
real Web is hostile: slow hosts, 5xx storms, dead DNS, traps.  These
tests crank the failure knobs far beyond realistic levels and assert
the engine still completes and makes progress.
"""

from __future__ import annotations

import pytest

from repro.core import BingoEngine
from repro.web import SyntheticWeb, WebGraphConfig

from tests.core.conftest import fast_engine_config


def hostile_web(seed: int = 71, **overrides) -> SyntheticWeb:
    defaults = dict(
        seed=seed,
        target_researchers=40, other_researchers=10, universities=10,
        hubs_per_topic=3, background_hosts_per_category=3,
        pages_per_background_host=3, directory_pages_per_category=4,
        slow_host_rate=0.35,   # a third of hosts time out frequently
        error_host_rate=0.25,  # a quarter throw 5xx
    )
    defaults.update(overrides)
    return SyntheticWeb.generate(WebGraphConfig(**defaults))


class TestHostileWeb:
    def test_crawl_completes_and_progresses(self) -> None:
        web = hostile_web()
        engine = BingoEngine.for_portal(web, config=fast_engine_config())
        report = engine.run(harvesting_fetch_budget=250)
        total = report.total
        assert total.stored_pages > 20
        assert total.positively_classified > 0
        assert total.fetch_errors > 0  # failures genuinely happened

    def test_bad_hosts_get_excluded(self) -> None:
        web = hostile_web(seed=73)
        engine = BingoEngine.for_portal(web, config=fast_engine_config())
        engine.run(harvesting_fetch_budget=250)
        assert engine.ctx.hosts.stats()["hosts_quarantined"] > 0, (
            "persistent failures should blacklist some hosts"
        )

    def test_retries_happen_before_blacklisting(self) -> None:
        web = hostile_web(seed=73)
        engine = BingoEngine.for_portal(web, config=fast_engine_config())
        report = engine.run(harvesting_fetch_budget=250)
        total_retries = sum(p.stats.retries for p in report.phases)
        assert total_retries > 0

    def test_all_dns_flaky_still_resolves(self) -> None:
        """Every DNS server times out half the time; the multi-server
        resend strategy still gets answers."""
        web = hostile_web(seed=79, slow_host_rate=0.0, error_host_rate=0.0)
        engine = BingoEngine.for_portal(web, config=fast_engine_config())
        for server in engine.ctx.resolver.servers:
            server.timeout_rate = 0.5
        report = engine.run(harvesting_fetch_budget=150)
        assert report.total.stored_pages > 20
        assert engine.ctx.resolver.timeouts > 0

    def test_seed_host_completely_down_raises_cleanly(self) -> None:
        from repro.errors import CrawlError

        web = hostile_web(seed=83, slow_host_rate=0.0, error_host_rate=0.0)
        engine = BingoEngine.for_portal(web, config=fast_engine_config())
        for urls in engine.seeds.values():
            for url in urls:
                host = url.split("/")[2]
                web.hosts[host].error_rate = 1.0
        with pytest.raises(CrawlError):
            engine.bootstrap()
