"""Micro-batch size must not change crawl *results*.

With link expansion disabled (``max_depth=0``) the frontier pop order
is fixed up front, so the staged crawl is provably batch-invariant:
batch sizes 1, 3 and 8 must produce identical stats, documents,
classifier outputs, database rows and clock.  (With expansion enabled,
larger batches legitimately relax the visit interleaving -- frontier
pushes land batch-wise -- so full equality is only pinned at the
default size, in ``test_parity``.)

Also guarded here: a batched crawl actually drives the wave-based
batch kernel (one ``classify_many`` call per micro-batch), which is
the point of batching.
"""

from __future__ import annotations

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web import SyntheticWeb

from tests.conftest import crawl_store, named_rows, small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier


def run_crawl(batch_size: int, max_depth: int | None = 0,
              fetch_budget: int = 60):
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(
        max_retries=2, pipeline_batch_size=batch_size
    )
    classifier = make_trained_classifier(web, config)
    database = Database(validate=True)
    loader = BulkLoader(database, batch_size=10)
    crawler = FocusedCrawler(web, classifier, config, loader=loader)
    crawler.seed(
        web.seed_homepages(30), topic="ROOT/databases", priority=10.0
    )
    stats = crawler.crawl(
        PhaseSettings(
            name="t", focus=SOFT, max_depth=max_depth,
            fetch_budget=fetch_budget,
        )
    )
    return crawler, stats, database


def fingerprint(crawler, stats, _database) -> dict:
    store = crawl_store(crawler.ctx)
    return {
        "stats": {
            field: getattr(stats, field)
            for field in stats.__dataclass_fields__
        },
        "documents": [
            (d.doc_id, d.final_url, d.topic, d.confidence)
            for d in crawler.ctx.documents
        ],
        "clock": crawler.ctx.clock.now,
        "frontier": crawler.ctx.frontier.stats(),
        # compared as row sets: crawl_log's order reflects which
        # workspace buffer happened to fill first, which legitimately
        # shifts with the global add order at different batch sizes
        "db": {
            name: sorted(repr(row) for row in named_rows(store[name]))
            for name in ("documents", "terms", "links", "crawl_log")
        },
    }


class TestBatchInvariance:
    @pytest.fixture(scope="class")
    def runs(self):
        return {size: run_crawl(size) for size in (1, 3, 8)}

    def test_identical_across_batch_sizes(self, runs) -> None:
        reference = fingerprint(*runs[1])
        for size in (3, 8):
            assert fingerprint(*runs[size]) == reference, (
                f"batch size {size} diverged from the per-document run"
            )

    def test_batched_run_uses_batch_kernel(self, runs) -> None:
        crawler, stats, _ = runs[8]
        kernel = crawler.ctx.classifier._kernel()
        assert kernel.batch_calls > 0
        assert kernel.batch_docs >= stats.stored_pages


class TestBatchedFullCrawl:
    """With expansion enabled, a batched crawl still honours budgets,
    retrain cadence and storage invariants (exact interleaving is
    deliberately relaxed -- no golden equality here)."""

    @pytest.fixture(scope="class")
    def batched(self):
        return run_crawl(8, max_depth=None, fetch_budget=150)

    def test_budget_and_storage_invariants(self, batched) -> None:
        crawler, stats, database = batched
        assert stats.visited_urls == 150
        assert 0 < stats.stored_pages <= stats.visited_urls
        assert len(crawl_store(crawler.ctx)["documents"]) == (
            stats.stored_pages
        )
        assert len(database["crawl_log"]) == stats.visited_urls
        assert [d.doc_id for d in crawler.ctx.documents] == list(
            range(stats.stored_pages)
        )

    def test_mid_batch_retrain_splits_spans(self) -> None:
        """A retrain trigger inside a micro-batch fires at exactly the
        accepted-document count the per-document loop would use."""
        web = SyntheticWeb.generate(small_web_config())
        config = fast_engine_config(
            max_retries=2, pipeline_batch_size=8, retrain_interval=10
        )
        classifier = make_trained_classifier(web, config)
        retrain_points: list[int] = []
        crawler = FocusedCrawler(web, classifier, config)
        crawler.ctx.on_retrain = lambda: retrain_points.append(
            crawler.ctx.docs_since_retrain
        )
        crawler.seed(
            web.seed_homepages(10), topic="ROOT/databases", priority=10.0
        )
        stats = crawler.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=80)
        )
        assert retrain_points, "no retrain fired"
        # the counter is reset to 0 *before* the callback, exactly like
        # the monolith, regardless of where the trigger sat in a batch
        assert all(count == 0 for count in retrain_points)
        assert len(retrain_points) == stats.positively_classified // 10
