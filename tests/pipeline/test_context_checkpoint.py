"""Checkpoint/resume through :class:`CrawlContext` directly.

The robust-layer test (``tests/robust/test_checkpoint.py``) drives
checkpointing through the crawler facade; this one exercises the
context-level primitives -- ``snapshot_context`` / ``restore_context``
with a bare :class:`~repro.pipeline.context.CrawlContext` -- and pins
that a mid-crawl kill + resume lands on counters identical to an
uninterrupted run when the whole flow never touches the facade's
delegating attributes.
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
def kill_resume_via_context(tmp_path_factory):
    checkpoint_dir = tmp_path_factory.mktemp("ctx-checkpoint")

    baseline, _ = build_crawler()
    baseline_stats = baseline.crawl(settings(BUDGET))

    interrupted, _ = build_crawler()
    checkpointer = Checkpointer(checkpoint_dir, every=EVERY)
    interrupted.crawl(settings(KILL_AFTER), checkpointer=checkpointer)
    assert checkpointer.saves == KILL_AFTER // EVERY
    del interrupted

    resumed, _ = build_crawler()
    # restore through the context, not the facade
    resume_stats = restore_context(resumed.ctx, checkpoint_dir)
    assert resume_stats.visited_urls < BUDGET
    final_stats = resumed.pipeline.crawl(
        settings(BUDGET), resume=resume_stats
    )
    return baseline, baseline_stats, resumed, final_stats


class TestContextKillResume:
    def test_counters_identical(self, kill_resume_via_context) -> None:
        _, baseline_stats, _, final_stats = kill_resume_via_context
        assert final_stats.table1_row() == baseline_stats.table1_row()
        for counter in (
            "fetch_errors", "duplicates_skipped", "mime_rejected",
            "politeness_defers", "retries",
        ):
            assert getattr(final_stats, counter) == getattr(
                baseline_stats, counter
            ), f"{counter} diverged across the interruption"
        assert final_stats.simulated_seconds == pytest.approx(
            baseline_stats.simulated_seconds
        )

    def test_context_state_identical(self, kill_resume_via_context) -> None:
        baseline, _, resumed, _ = kill_resume_via_context
        a, b = baseline.ctx, resumed.ctx
        assert [d.final_url for d in a.documents] == [
            d.final_url for d in b.documents
        ]
        assert a.hosts.to_dict() == b.hosts.to_dict()
        assert a.frontier.stats() == b.frontier.stats()
        assert a.log_sequence == b.log_sequence
        assert a.docs_since_retrain == b.docs_since_retrain
        # the document indexes come back equal, and equal to the store's
        assert context_indexes(b) == context_indexes(a)
        assert context_indexes(b) == context_indexes_reference(b.documents)


class TestContextSnapshotSurface:
    def test_snapshot_takes_the_context(self) -> None:
        crawler, _ = build_crawler()
        stats = crawler.crawl(settings(20))
        assert snapshot_context(crawler.ctx, stats)["frontier"]["format"] == 3
        with pytest.raises(AttributeError):
            snapshot_context(crawler, stats)

    def test_save_checkpoint_accepts_context(self, tmp_path) -> None:
        crawler, _ = build_crawler()
        stats = crawler.crawl(settings(20))
        path = save_checkpoint(crawler.ctx, stats, tmp_path)
        assert path.exists()
        assert (tmp_path / "database-1" / "manifest.json").exists()
