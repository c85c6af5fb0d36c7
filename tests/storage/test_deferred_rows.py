"""A stored page's rows are built when the store is read, and they are
the rows the eager writer gave, in its order.

The persist stage queues each page on the bulk loader; a read of a page
relation replays the queue through the loader's buffers and flush
markers.  Every test here runs the same crawl twice, once with
:class:`~tests.storage.reference.EagerLoader` (rows built at persist
time, the oracle) and once with the production loader, and holds the
relations equal row for row and in order wherever they are read.
"""

from __future__ import annotations

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, CrawlStats, PhaseSettings
from repro.errors import StorageError
from repro.robust.checkpoint import Checkpointer, save_checkpoint
from repro.storage import bulkloader
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.storage.schema import PAGE_RELATIONS
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier
from tests.portal.conftest import build_engine, build_portal
from tests.storage.reference import EagerLoader

BUDGET = 120
EVERY = 40
#: every third micro-batch reads the page relations after persist
READ_EVERY = 3


def page_relations(database: Database) -> dict[str, list]:
    return {name: database[name].rows() for name in PAGE_RELATIONS}


def all_relations(database: Database) -> dict[str, list]:
    return {
        name: relation.rows()
        for name, relation in database.relations.items()
    }


def crawl(loader_class, batch: int, workers: int, tmp_path):
    """A checkpointed crawl; returns its loader and the page relations
    read after persist at every ``READ_EVERY``-th micro-batch."""
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(
        max_retries=2, crawl_workers=workers, crawler_threads=4,
        pipeline_batch_size=batch,
    )
    classifier = make_trained_classifier(web, config)
    loader = loader_class(Database(validate=True), batch_size=10)
    crawler = FocusedCrawler(web, classifier, config, loader=loader)
    crawler.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    reads: list[tuple[int, dict]] = []

    def read(event) -> None:
        if event.stage == "persist" and event.batch_index % READ_EVERY == 0:
            reads.append(
                (event.batch_index, page_relations(loader.database))
            )

    crawler.pipeline.add_hook(read)
    crawler.crawl(
        PhaseSettings(name="t", focus=SOFT, fetch_budget=BUDGET),
        checkpointer=Checkpointer(tmp_path, every=EVERY),
    )
    assert crawler.pipeline.hook_errors == 0
    return loader, reads


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("batch", [1, 8])
def test_deferred_rows_equal_eager_rows(batch, workers, tmp_path) -> None:
    eager, eager_reads = crawl(EagerLoader, batch, workers, tmp_path / "e")
    loader, reads = crawl(BulkLoader, batch, workers, tmp_path / "d")
    assert len(reads) > 3
    assert [index for index, _ in reads] == [i for i, _ in eager_reads]
    for (index, rows), (_, expected) in zip(reads, eager_reads):
        assert rows == expected, f"micro-batch {index}"
    assert all_relations(loader.database) == all_relations(eager.database)
    assert (loader.rows_loaded, loader.flushes) == (
        eager.rows_loaded, eager.flushes
    )


@pytest.fixture(scope="module")
def engines():
    """The same small-web engine run, with eager and with queued rows;
    the queued one counts its page-row builds until a relation is read."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("repro.core.engine.BulkLoader", EagerLoader)
        eager = build_engine()
    built: list[int] = []
    with pytest.MonkeyPatch.context() as patch:
        def counted(document, anchor_terms):
            built.append(document.doc_id)
            return page_rows(document, anchor_terms)

        page_rows = bulkloader.page_rows
        patch.setattr(bulkloader, "page_rows", counted)
        deferred = build_engine()
        state = {
            "built": list(built),
            "rows_loaded": deferred.loader.rows_loaded,
            "crawl_log": len(deferred.database["crawl_log"]),
            "stored": {
                name: len(relation)
                for name, relation in deferred.database._relations.items()
            },
        }
        relations = all_relations(deferred.database)
    return eager, deferred, state, relations


class TestNoRowBeforeRead:
    def test_run_builds_no_page_row(self, engines) -> None:
        _, deferred, state, _ = engines
        assert deferred.ctx.documents
        assert state["built"] == []
        assert all(state["stored"][name] == 0 for name in PAGE_RELATIONS)
        assert state["rows_loaded"] == state["crawl_log"] > 0

    def test_first_read_yields_the_oracle_rows(self, engines) -> None:
        eager, deferred, _, relations = engines
        assert relations == all_relations(eager.database)
        assert (deferred.loader.rows_loaded, deferred.loader.flushes) == (
            eager.loader.rows_loaded, eager.loader.flushes
        )

    def test_read_of_an_unqueued_relation_does_not_replay(
        self, engines
    ) -> None:
        eager, _, _, _ = engines
        database = Database()
        loader = BulkLoader(database, batch_size=10)
        document = eager.ctx.documents[0]
        loader.defer(0, document, {})
        loader.flush_all()  # queued: a marker for the page relations
        assert len(database["archetypes"]) == len(database["crawl_log"]) == 0
        assert database.owed is not None
        assert [row[0] for row in database["documents"].rows()] == [0]
        assert database.owed is None
        assert loader.pending == 0
        assert loader.rows_loaded == sum(
            len(database[name]) for name in PAGE_RELATIONS
        )


class TestRecrawlKeepsPersistRows:
    @pytest.fixture(scope="class")
    def portals(self):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr("repro.core.engine.BulkLoader", EagerLoader)
            eager = build_portal()
        deferred = build_portal()
        reports = []
        for portal in (eager, deferred):
            portal.evolve(3600.0)
            reports.append(portal.recrawl(budget=60))
        assert reports[0].stats() == reports[1].stats()
        return eager, deferred, reports[1].recrawl

    def test_recrawl_replaced_and_discovered_pages(self, portals) -> None:
        _, deferred, report = portals
        assert report.changed > 0 and report.discovered > 0
        assert len(deferred.engine.ctx.documents) == len(
            deferred.engine.database["documents"]
        ) + report.discovered

    def test_relations_are_the_persist_time_rows(self, portals) -> None:
        eager, deferred, _ = portals
        assert all_relations(deferred.engine.database) == all_relations(
            eager.engine.database
        )

    def test_checkpoint_refuses_as_the_eager_store_does(
        self, portals, tmp_path
    ) -> None:
        messages = []
        for portal in portals[:2]:
            with pytest.raises(StorageError, match="stored pages") as error:
                save_checkpoint(portal.engine.ctx, CrawlStats(), tmp_path)
            messages.append(str(error.value))
        assert messages[0] == messages[1]
