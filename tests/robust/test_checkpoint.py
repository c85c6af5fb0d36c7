"""Checkpoint/resume: an interrupted crawl must land on the same
Table-1 counters as an uninterrupted one.

Three crawlers run against three *identically generated* Webs (the
generator is seed-deterministic, and a crawl mutates server-side attempt
counters, so each run gets a fresh copy):

* baseline -- runs the phase to a 120-fetch budget in one go;
* interrupted -- same setup, checkpointing every 25 visits, "killed"
  after 60 visits (the work past the last checkpoint is lost);
* resumed -- a fresh crawler restored from the checkpoint directory
  finishes the phase to the same 120-fetch budget.

Baseline and resumed must agree exactly on every integer counter, the
stored documents and the host table.
"""

from __future__ import annotations

import json

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.errors import StorageError
from repro.robust import (
    Checkpointer,
    load_checkpoint,
    restore_context,
    save_checkpoint,
    snapshot_context,
)
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.storage.schema import PAGE_RELATIONS
from repro.web import SyntheticWeb

from tests.conftest import crawl_store, small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier

BUDGET = 120
KILL_AFTER = 60
EVERY = 25


def build_crawler():
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(max_retries=2)
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
    checkpoint_dir = tmp_path_factory.mktemp("checkpoint")

    baseline, baseline_db = build_crawler()
    baseline_stats = baseline.crawl(settings(BUDGET))

    # the interrupted run: checkpoints every EVERY visits, killed at
    # KILL_AFTER -- everything after the last save is thrown away
    interrupted, _ = build_crawler()
    checkpointer = Checkpointer(checkpoint_dir, every=EVERY)
    interrupted.crawl(settings(KILL_AFTER), checkpointer=checkpointer)
    assert checkpointer.saves == KILL_AFTER // EVERY
    del interrupted

    # resume on a fresh crawler bound to an identical Web and classifier
    resumed, resumed_db = build_crawler()
    resume_stats = restore_context(resumed.ctx, checkpoint_dir)
    assert resume_stats.visited_urls < BUDGET
    final_stats = resumed.crawl(settings(BUDGET), resume=resume_stats)

    return baseline, baseline_stats, baseline_db, resumed, final_stats, resumed_db


class TestKillResume:
    def test_table1_counters_identical(self, kill_resume) -> None:
        _, baseline_stats, _, _, final_stats, _ = kill_resume
        assert final_stats.table1_row() == baseline_stats.table1_row()
        assert baseline_stats.visited_urls == BUDGET

    def test_diagnostic_counters_identical(self, kill_resume) -> None:
        _, baseline_stats, _, _, final_stats, _ = kill_resume
        for counter in (
            "fetch_errors", "not_found", "redirect_loops", "dns_failures",
            "duplicates_skipped", "mime_rejected", "size_rejected",
            "url_rejected", "locked_skipped", "bad_host_skipped",
            "quarantine_deferred", "slow_deferred", "retries",
        ):
            assert getattr(final_stats, counter) == getattr(
                baseline_stats, counter
            ), f"{counter} diverged across the interruption"

    def test_documents_identical(self, kill_resume) -> None:
        baseline, _, _, resumed, _, _ = kill_resume
        urls_a = [d.final_url for d in baseline.ctx.documents]
        urls_b = [d.final_url for d in resumed.ctx.documents]
        assert urls_a == urls_b
        topics_a = [d.topic for d in baseline.ctx.documents]
        topics_b = [d.topic for d in resumed.ctx.documents]
        assert topics_a == topics_b

    def test_host_table_identical(self, kill_resume) -> None:
        baseline, _, _, resumed, _, _ = kill_resume
        assert baseline.ctx.hosts.to_dict() == resumed.ctx.hosts.to_dict()

    def test_database_rows_survive(self, kill_resume) -> None:
        baseline, _, _, resumed, final_stats, _ = kill_resume
        baseline_store = crawl_store(baseline.ctx)
        resumed_store = crawl_store(resumed.ctx)
        assert len(resumed_store["documents"]) == final_stats.stored_pages
        # page rows come in doc-id order: a resumed crawl's equal the
        # uninterrupted crawl's row for row (crawl_log's flush order
        # differs, as the saves flushed it)
        for name in PAGE_RELATIONS:
            assert resumed_store[name].rows() == baseline_store[name].rows()


class TestSnapshotRoundTrip:
    def test_snapshot_is_json_clean_and_stable(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        stats = crawler.crawl(settings(30))
        snap = snapshot_context(crawler.ctx, stats)
        blob = json.dumps(snap, sort_keys=True)  # must not raise
        assert "documents" not in snap  # pages are segment records
        save_checkpoint(crawler.ctx, stats, tmp_path)

        clone, _ = build_crawler()
        restored_stats = restore_context(clone.ctx, tmp_path)
        assert restored_stats.table1_row() == stats.table1_row()
        snap_again = snapshot_context(clone.ctx, restored_stats)
        assert json.dumps(snap_again, sort_keys=True) == blob
        assert [d.to_dict() for d in clone.ctx.documents] == [
            d.to_dict() for d in crawler.ctx.documents
        ]

    def test_a_checkpoint_needs_a_loader(self, tmp_path) -> None:
        web = SyntheticWeb.generate(small_web_config())
        config = fast_engine_config(max_retries=2)
        crawler = FocusedCrawler(
            web, make_trained_classifier(web, config), config
        )
        crawler.seed(web.seed_homepages(3), topic="ROOT/databases")
        stats = crawler.crawl(settings(10))
        with pytest.raises(StorageError, match="attach a BulkLoader"):
            save_checkpoint(crawler.ctx, stats, tmp_path)
        assert not tmp_path.exists() or not any(tmp_path.iterdir())
        saved, _ = build_crawler()
        save_checkpoint(saved.ctx, saved.crawl(settings(10)), tmp_path)
        with pytest.raises(StorageError, match="attach a BulkLoader"):
            restore_context(crawler.ctx, tmp_path)

    def test_restore_needs_an_empty_database(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        save_checkpoint(crawler.ctx, crawler.crawl(settings(10)), tmp_path)
        with pytest.raises(StorageError, match="database is empty"):
            restore_context(crawler.ctx, tmp_path)

    def test_save_and_load_checkpoint(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        stats = crawler.crawl(settings(25))
        path = save_checkpoint(crawler.ctx, stats, tmp_path)
        assert path.exists()
        state = load_checkpoint(tmp_path)
        assert state["stats"]["visited_urls"] == stats.visited_urls
        assert (tmp_path / "database-1" / "manifest.json").exists()

    def test_checkpointer_cadence(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        checkpointer = Checkpointer(tmp_path, every=10)
        crawler.crawl(settings(35), checkpointer=checkpointer)
        assert checkpointer.saves == 3

    def test_invalid_interval_rejected(self, tmp_path) -> None:
        with pytest.raises(ValueError):
            Checkpointer(tmp_path, every=0)
