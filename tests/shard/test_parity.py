"""The headline sharding guarantee: N=1 and N=8 crawl identically.

On a healthy Web (no slow or error hosts, no fault windows) not a
single crawl *decision* reads the clock -- fetch outcomes are
(seed, url)-deterministic, DNS answers are zone-deterministic, breakers
stay closed and the deferred heap stays empty -- so the only thing more
workers change is *when* fetches happen, never *what* gets fetched.
These tests pin that contract end to end: Table-1 counters, the full
diagnostic counter set (minus the two time-derived fields), the stored
document sequence and the frontier state are bit-identical for 1, 3
and 8 workers, while the simulated crawl time shrinks.

DESIGN.md ("Sharding the crawl runtime") spells out the argument; the
frontier-level half of the proof lives in test_sharded_frontier.py.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier

#: stats fields that legitimately depend on fetch *timing* and so may
#: differ between worker counts (more workers -> less simulated time,
#: different politeness-slot contention).  Everything else must match.
TIME_DERIVED = {"simulated_seconds", "politeness_defers"}

FETCH_BUDGET = 120
TABLES = ("documents", "terms", "links", "crawl_log")


def healthy_web_config():
    """The parity scenario needs a Web with no failure timing: retries
    and breaker deferrals re-enter the frontier at clock-dependent
    points, which is exactly the (legitimate) N-dependence we exclude."""
    return small_web_config(slow_host_rate=0.0, error_host_rate=0.0)


def sha(items) -> str:
    return hashlib.sha256("\n".join(items).encode()).hexdigest()[:16]


def run_soft_crawl(workers: int):
    web = SyntheticWeb.generate(healthy_web_config())
    # 2 threads per worker keeps the small crawl *pool*-bound (the
    # default 15 would leave domain politeness as the only bottleneck
    # and N workers would crawl no faster than one -- decisions would
    # still match, but the speedup assertion would be vacuous)
    config = fast_engine_config(
        max_retries=2, crawl_workers=workers, crawler_threads=2
    )
    classifier = make_trained_classifier(web, config)
    database = Database(validate=True)
    loader = BulkLoader(database, batch_size=10)
    crawler = FocusedCrawler(web, classifier, config, loader=loader)
    crawler.seed(
        web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    stats = crawler.crawl(
        PhaseSettings(name="t", focus=SOFT, fetch_budget=FETCH_BUDGET)
    )
    return crawler, stats, database


def decision_fingerprint(crawler, stats, database) -> dict:
    """Everything a crawl *decided* (as opposed to when it happened)."""
    counters = {
        field: getattr(stats, field)
        for field in stats.__dataclass_fields__
        if field != "hosts_visited" and field not in TIME_DERIVED
    }
    return {
        "table1": stats.table1_row(),
        "counters": counters,
        "hosts_sha": sha(sorted(stats.hosts_visited)),
        "doc_urls_sha": sha([d.final_url for d in crawler.ctx.documents]),
        "doc_topics_sha": sha([d.topic for d in crawler.ctx.documents]),
        "frontier": crawler.ctx.frontier.stats(),
        "frontier_seen_sha": sha(sorted(crawler.ctx.frontier.seen_urls)),
        "converted_formats": dict(crawler.ctx.converted_formats),
        "retry_log": len(crawler.ctx.retry_log),
        "db_rows": {name: len(database[name]) for name in TABLES},
    }


@pytest.fixture(scope="module")
def baseline():
    return run_soft_crawl(workers=1)


@pytest.fixture(scope="module", params=[3, 8])
def workers(request):
    return request.param


@pytest.fixture(scope="module")
def sharded(workers):
    return run_soft_crawl(workers=workers)


class TestWorkerCountParity:
    def test_table1_bit_identical(self, baseline, sharded) -> None:
        _, base_stats, _ = baseline
        _, shard_stats, _ = sharded
        assert shard_stats.table1_row() == base_stats.table1_row()

    def test_all_decisions_bit_identical(self, baseline, sharded) -> None:
        assert decision_fingerprint(*sharded) == decision_fingerprint(
            *baseline
        )

    def test_healthy_web_premise_holds(self, sharded) -> None:
        """The scenario must exercise zero clock-coupled decisions,
        otherwise the parity above would be vacuous luck."""
        crawler, stats, _ = sharded
        assert stats.retries == 0
        assert stats.fetch_errors == 0
        assert stats.quarantine_deferred == 0
        assert stats.slow_deferred == 0
        assert crawler.ctx.frontier.deferred_total == 0
        assert stats.visited_urls == FETCH_BUDGET  # budget was consumed

    def test_more_workers_crawl_faster(self, baseline, sharded) -> None:
        _, base_stats, _ = baseline
        _, shard_stats, _ = sharded
        assert shard_stats.simulated_seconds < base_stats.simulated_seconds

    def test_sharded_runtime_was_in_play(self, sharded, workers) -> None:
        crawler, _, _ = sharded
        ctx = crawler.ctx
        assert ctx.workers is not None
        assert ctx.workers.count == workers
        assert len(ctx.workers.slices) == workers
        # fetches really ran on more than one worker pool
        active_pools = [
            pool
            for pool in ctx.workers.pools
            if any(t > 0.0 for t in pool._free_at)
        ]
        assert len(active_pools) > 1
        # and the handoff accounting saw both link localities
        assert ctx.workers.cross_shard_links > 0
        assert ctx.workers.local_links > 0

    def test_worker_metrics_exported(self, sharded, workers) -> None:
        crawler, _, _ = sharded
        exported = crawler.ctx.obs.source_stats()
        assert exported["shard"]["workers"] == float(workers)
        per_worker = [
            exported[f"shard_w{i}"]["enqueued"] for i in range(workers)
        ]
        assert sum(per_worker) == exported["frontier"]["enqueued"]
        assert all(count > 0 for count in per_worker)
