"""A stored page's rows are deferred to the write: the page relations
are a view of the stored pages, built in doc-id order by
:func:`~repro.storage.schema.page_rows` when a dump writes them, and
they are the rows the eager writer gave.

The oracle is :func:`~tests.storage.reference.store_rows_reference`,
one page's rows written out by hand.  The crawls here are checkpointed
(a segment holds page records, not page rows), so the pages a restored
chain rebuilds must give the oracle's rows too.
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, CrawlStats, PhaseSettings
from repro.errors import SchemaError, StorageError
from repro.pipeline.stages import PersistStage
from repro.robust.checkpoint import (
    Checkpointer,
    load_checkpoint,
    restore_context,
    save_checkpoint,
)
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.storage.persistence import dump_database, load_database
from repro.storage.schema import PAGE_RELATIONS, page_rows
from repro.web import SyntheticWeb
from repro.web.urls import resolve_links

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier
from tests.portal.conftest import build_engine, build_portal
from tests.storage.reference import store_rows_reference

BUDGET = 120
EVERY = 40


def oracle(documents, anchor_terms) -> dict[str, list]:
    """The page relations as the concatenation of each page's
    reference rows, pages in the order given."""
    rows: dict[str, list] = {name: [] for name in PAGE_RELATIONS}
    for document, anchors in zip(documents, anchor_terms, strict=True):
        for name, page in store_rows_reference(document, anchors).items():
            rows[name].extend(page)
    return rows


def full_dump(ctx, directory) -> Database:
    """Dump the crawl's whole store as ``portal crawl --dump-db`` does,
    and load it back."""
    dump_database(
        ctx.loader.database, directory,
        pages=page_rows(ctx.documents, ctx.anchor_terms),
    )
    return load_database(directory)


def checkpointed_crawl(batch: int, workers: int, directory):
    """A crawl at micro-batch ``batch`` and ``workers`` workers,
    checkpointed into ``directory``; with it the rows the eager writer
    built for each page as the persist stage stored it, and a crawler
    to restore into."""
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(
        max_retries=2, crawl_workers=workers, crawler_threads=4,
        pipeline_batch_size=batch,
    )
    classifier = make_trained_classifier(web, config)

    def crawler() -> FocusedCrawler:
        return FocusedCrawler(
            web, classifier, config,
            loader=BulkLoader(Database(validate=True), batch_size=10),
        )

    live = crawler()
    live.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    persisted: dict[str, list] = {name: [] for name in PAGE_RELATIONS}
    real = PersistStage.run

    def eager(self, items, ctx):
        items = real(self, items, ctx)
        for item in items:
            rows = store_rows_reference(
                item.document, item.html_doc.anchor_terms
            )
            for name, page in rows.items():
                persisted[name].extend(page)
        return items

    checkpointer = Checkpointer(directory, every=EVERY)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(PersistStage, "run", eager)
        live.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=BUDGET),
            checkpointer=checkpointer,
        )
    assert checkpointer.saves == BUDGET // EVERY
    # the crawl is over, so a restore may reuse its Web
    return live, persisted, crawler()


@pytest.fixture(scope="module")
def crawls(tmp_path_factory):
    """``(batch, workers) -> (crawl, persisted rows, restore target,
    checkpoint directory)``, each crawled once."""
    made: dict[tuple[int, int], tuple] = {}

    def crawl(batch: int, workers: int) -> tuple:
        if (batch, workers) not in made:
            directory = tmp_path_factory.mktemp("checkpoint")
            made[batch, workers] = (
                *checkpointed_crawl(batch, workers, directory), directory
            )
        return made[batch, workers]

    return crawl


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("batch", [1, 8])
def test_deferred_rows_equal_eager_rows(
    batch, workers, crawls, tmp_path
) -> None:
    crawler, persisted, _, _ = crawls(batch, workers)
    ctx = crawler.ctx
    assert len(ctx.documents) > 3
    dumped = full_dump(ctx, tmp_path)
    expected = oracle(ctx.documents, ctx.anchor_terms)
    for name in PAGE_RELATIONS:
        # row for row: the reference rows of the pages in doc-id order
        assert dumped[name].rows() == expected[name], name
        # and the rows the eager writer built as each page was stored
        # (it loaded them in flush order, so as a set)
        assert set(dumped[name].rows()) == set(persisted[name]), name
        assert len(persisted[name]) == len(expected[name]), name


@pytest.mark.parametrize("workers", [1, 3])
@pytest.mark.parametrize("batch", [1, 8])
def test_a_restored_chain_gives_its_rows_back(batch, workers, crawls) -> None:
    """Restore a chain, and :func:`page_rows` over the rebuilt pages
    is the oracle's rows of the pages the last save held."""
    crawler, _, target, directory = crawls(batch, workers)
    restore_context(target.ctx, directory)
    segments = load_checkpoint(directory)["database"]["segments"]
    chain = load_database(
        [directory / f"database-{number}" for number in segments]
    )
    rebuilt = page_rows(target.ctx.documents, target.ctx.anchor_terms)
    saved = len(target.ctx.documents)
    live = crawler.ctx
    expected = oracle(live.documents[:saved], live.anchor_terms[:saved])
    assert saved > 3
    for name in PAGE_RELATIONS:
        assert rebuilt[name] == expected[name], name
    # the chain holds no page row; the crawl's own store holds the
    # chain's rows
    for name, relation in target.ctx.loader.database.relations.items():
        held = chain[name].rows()
        assert relation.rows() == held, name
        assert name not in PAGE_RELATIONS or held == [], name


@pytest.fixture(scope="module")
def engine_run():
    """A small-web engine run, counting the pages any page-row build
    covers while it runs."""
    built: list[int] = []
    with pytest.MonkeyPatch.context() as patch:
        def counted(documents, anchor_terms):
            built.extend(document.doc_id for document in documents)
            return page_rows(documents, anchor_terms)

        patch.setattr("repro.storage.schema.page_rows", counted)
        engine = build_engine()
    return engine, built


class TestNoRowBeforeRead:
    def test_run_builds_no_page_row(self, engine_run) -> None:
        engine, built = engine_run
        assert engine.ctx.documents
        assert built == []
        assert len(engine.ctx.anchor_terms) == len(engine.ctx.documents)
        database = engine.database
        assert all(len(database[name]) == 0 for name in PAGE_RELATIONS)
        assert engine.loader.rows_loaded == len(database["crawl_log"]) > 0

    def test_first_read_yields_the_oracle_rows(
        self, engine_run, tmp_path
    ) -> None:
        """The page relations' one reader is a dump."""
        engine, _ = engine_run
        ctx = engine.ctx
        dumped = full_dump(ctx, tmp_path)
        expected = oracle(ctx.documents, ctx.anchor_terms)
        for name, relation in dumped.relations.items():
            assert relation.rows() == expected.get(
                name, engine.database[name].rows()
            ), name


class TestRecrawlAnchorTerms:
    @pytest.fixture(scope="class")
    def recrawled(self):
        portal = build_portal()
        portal.evolve(3600.0)
        before = list(portal.engine.ctx.documents)
        report = portal.recrawl(budget=60).recrawl
        # the pages the cycle replaced (a changed page is a new record)
        # or appended
        touched = [
            doc.doc_id for doc in portal.engine.ctx.documents
            if doc.doc_id >= len(before) or doc is not before[doc.doc_id]
        ]
        return portal, report, touched

    def test_recrawl_keeps_pages_anchor_terms(
        self, recrawled
    ) -> None:
        """A changed or discovered page's rows are those a fresh scan
        of its current payload gives: its anchor terms moved with it."""
        portal, report, touched = recrawled
        engine = portal.engine
        ctx = engine.ctx
        assert report.changed > 0 and report.discovered > 0
        assert len(ctx.anchor_terms) == len(ctx.documents)
        assert len(touched) == report.changed + report.discovered
        for doc_id in touched:
            stored = ctx.documents[doc_id]
            payload = engine.web.renderer.payload(
                engine.web.pages[stored.page_id]
            )
            counts, page = engine.analyze_page(payload, stored.mime)
            fresh = dataclasses.replace(
                stored, counts=counts,
                out_urls=[
                    link.url
                    for link in resolve_links(stored.final_url, page.links)
                ],
            )
            assert page_rows([stored], [ctx.anchor_terms[doc_id]]) == (
                page_rows([fresh], [page.anchor_terms])
            ), doc_id

    def test_a_recrawled_context_is_saved_whole(
        self, recrawled, tmp_path
    ) -> None:
        """A page without its anchor terms is still refused; with them,
        the recrawled pages are saved as their records."""
        portal, _, _ = recrawled
        ctx = portal.engine.ctx
        anchors = ctx.anchor_terms.pop()
        try:
            with pytest.raises(StorageError, match="stored pages"):
                save_checkpoint(ctx, CrawlStats(), tmp_path)
        finally:
            ctx.anchor_terms.append(anchors)
        assert list(tmp_path.iterdir()) == []
        save_checkpoint(ctx, CrawlStats(), tmp_path)
        records = json.loads(
            (tmp_path / "database-1" / "pages.json").read_text()
        )["pages"]
        assert records == [
            document.to_dict() | {"anchor_terms": anchors}
            for document, anchors in zip(ctx.documents, ctx.anchor_terms)
        ]


def test_a_bad_page_row_is_refused_before_a_byte_is_written(
    engine_run, tmp_path
) -> None:
    """A save and a dump check the page rows they build against the
    schema first, as loading them through ``bulk_insert`` did."""
    engine, _ = engine_run
    ctx = engine.ctx
    stored = ctx.documents[-1]
    ctx.documents[-1] = dataclasses.replace(stored, size="big")
    try:
        with pytest.raises(SchemaError, match="size"):
            save_checkpoint(ctx, CrawlStats(), tmp_path / "checkpoint")
        with pytest.raises(SchemaError, match="size"):
            full_dump(ctx, tmp_path / "dump")
    finally:
        ctx.documents[-1] = stored
    assert [path for path in tmp_path.rglob("*") if path.is_file()] == []
