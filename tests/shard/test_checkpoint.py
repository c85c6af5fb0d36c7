"""Sharded checkpoint/resume: kill an N=3 crawl, resume, land exactly
where an uninterrupted N=3 run lands.

The checkpoint must capture the one frontier (with its sequence
counter), the one breaker board, every worker pool's free times and the
worker-set counters, and refuse to restore into a context with a
different worker count (a host would hash onto a different worker pool
and the determinism contract would silently break).
"""

from __future__ import annotations

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.robust.checkpoint import (
    Checkpointer,
    restore_context,
    save_checkpoint,
    snapshot_context,
)
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier
from tests.pipeline.reference import (
    context_indexes,
    context_indexes_reference,
)

WORKERS = 3
BUDGET = 120
KILL_AFTER = 60
EVERY = 25


def build_crawler(workers: int = WORKERS):
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(
        max_retries=2, crawl_workers=workers, crawler_threads=2
    )
    classifier = make_trained_classifier(web, config)
    database = Database(validate=True)
    loader = BulkLoader(database, batch_size=10)
    crawler = FocusedCrawler(web, classifier, config, loader=loader)
    crawler.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    return crawler, database


def settings(budget: int) -> PhaseSettings:
    return PhaseSettings(name="t", focus=SOFT, fetch_budget=budget)


@pytest.fixture(scope="module")
def kill_resume(tmp_path_factory):
    checkpoint_dir = tmp_path_factory.mktemp("shard-checkpoint")

    baseline, _ = build_crawler()
    baseline_stats = baseline.crawl(settings(BUDGET))

    interrupted, _ = build_crawler()
    checkpointer = Checkpointer(checkpoint_dir, every=EVERY)
    interrupted.crawl(settings(KILL_AFTER), checkpointer=checkpointer)
    assert checkpointer.saves == KILL_AFTER // EVERY
    del interrupted

    resumed, _ = build_crawler()
    resume_stats = restore_context(resumed.ctx, checkpoint_dir)
    assert resume_stats.visited_urls < BUDGET
    final_stats = resumed.pipeline.crawl(settings(BUDGET), resume=resume_stats)
    return baseline, baseline_stats, resumed, final_stats


class TestShardedKillResume:
    def test_counters_identical(self, kill_resume) -> None:
        _, baseline_stats, _, final_stats = kill_resume
        assert final_stats.table1_row() == baseline_stats.table1_row()
        assert final_stats.simulated_seconds == pytest.approx(
            baseline_stats.simulated_seconds
        )

    def test_sharded_state_identical(self, kill_resume) -> None:
        baseline, _, resumed, _ = kill_resume
        a, b = baseline.ctx, resumed.ctx
        assert [d.final_url for d in a.documents] == [
            d.final_url for d in b.documents
        ]
        assert a.frontier.stats() == b.frontier.stats()
        assert a.frontier._sequence == b.frontier._sequence
        assert a.hosts.to_dict() == b.hosts.to_dict()
        assert a.frontier.snapshot() == b.frontier.snapshot()
        # the document indexes come back equal, and equal to the store's
        assert context_indexes(b) == context_indexes(a)
        assert context_indexes(b) == context_indexes_reference(b.documents)

    def test_worker_set_counters_survive(self, kill_resume) -> None:
        baseline, _, resumed, _ = kill_resume
        a, b = baseline.ctx.workers, resumed.ctx.workers
        assert a is not None and b is not None
        assert b.count == a.count
        assert b.cross_shard_links == a.cross_shard_links
        assert b.local_links == a.local_links
        assert b.commits == a.commits
        assert sorted(
            t for pool in a.pools for t in pool._free_at
        ) == sorted(t for pool in b.pools for t in pool._free_at)


class TestWorkerCountGuards:
    def test_restore_rejects_different_worker_count(self, tmp_path) -> None:
        crawler, _ = build_crawler(workers=3)
        stats = crawler.crawl(settings(20))
        save_checkpoint(crawler.ctx, stats, tmp_path)
        other, database = build_crawler(workers=5)
        with pytest.raises(ValueError, match="crawl_workers"):
            restore_context(other.ctx, tmp_path)
        assert not any(map(len, database.relations.values()))

    def test_restore_rejects_unsharded_context(self, tmp_path) -> None:
        crawler, _ = build_crawler(workers=3)
        stats = crawler.crawl(settings(20))
        save_checkpoint(crawler.ctx, stats, tmp_path)
        single, database = build_crawler(workers=1)
        with pytest.raises(ValueError, match="sharding"):
            restore_context(single.ctx, tmp_path)
        assert not any(map(len, database.relations.values()))

    def test_snapshot_has_worker_section_only_when_sharded(self) -> None:
        sharded, _ = build_crawler(workers=3)
        stats = sharded.crawl(settings(20))
        assert "workers" in snapshot_context(sharded.ctx, stats)
        single, _ = build_crawler(workers=1)
        stats = single.crawl(settings(20))
        assert "workers" not in snapshot_context(single.ctx, stats)


def test_sharded_snapshot_holds_one_frontier_and_one_board() -> None:
    """At N=3 the frontier image is the one-store image and the host
    section is the plain board dict -- nothing in either is per worker."""
    crawler, _ = build_crawler(workers=3)
    stats = crawler.crawl(settings(20))
    state = snapshot_context(crawler.ctx, stats)
    assert state["frontier"]["format"] == 3
    assert "shards" not in state["frontier"]
    hosts = state["hosts"]
    assert hosts == crawler.ctx.hosts.to_dict()
    assert len(hosts) > 1
    assert all(isinstance(breaker, dict) for breaker in hosts.values())
    assert "workers" not in hosts
