"""Cross-layer consistency: in-memory documents vs stored rows."""

from __future__ import annotations

import pytest

from repro.core import BingoConfig, BingoEngine

from tests.conftest import crawl_store, named_rows
from tests.core.conftest import fast_engine_config


@pytest.fixture(scope="module")
def consistent_run(small_web):
    engine = BingoEngine.for_portal(small_web, config=fast_engine_config())
    report = engine.run(harvesting_fetch_budget=200)
    return engine, report


class TestEngineConsistency:
    def test_store_validates_with_no_knob_to_turn_it_off(
        self, consistent_run
    ) -> None:
        engine, _ = consistent_run
        assert all(
            relation.validate
            for relation in engine.database.relations.values()
        )
        assert "validate_storage" not in BingoConfig.__dataclass_fields__

    def test_doc_ids_contiguous(self, consistent_run) -> None:
        engine, _ = consistent_run
        ids = [doc.doc_id for doc in engine.ctx.documents]
        assert ids == list(range(len(ids)))

    def test_database_mirrors_memory(self, consistent_run) -> None:
        engine, report = consistent_run
        documents = crawl_store(engine.ctx)["documents"]
        assert len(documents) == len(engine.ctx.documents)
        by_id = {row["doc_id"]: row for row in named_rows(documents)}
        for doc in engine.ctx.documents[:30]:
            row = by_id.get(doc.doc_id)
            assert row is not None
            assert row["url"] == doc.url
            assert row["topic"] == doc.topic
            assert row["confidence"] == pytest.approx(doc.confidence)
            assert row["page_id"] == doc.page_id

    def test_stored_pages_match_report(self, consistent_run) -> None:
        engine, report = consistent_run
        assert report.total.stored_pages == len(engine.ctx.documents)

    def test_term_rows_match_counts(self, consistent_run) -> None:
        engine, _ = consistent_run
        terms = crawl_store(engine.ctx)["terms"]
        doc = engine.ctx.documents[0]
        rows = [row for row in named_rows(terms) if row["doc_id"] == doc.doc_id]
        stored = {row["term"]: row["tf"] for row in rows}
        expected = {t: int(c) for t, c in doc.counts["term"].items()}
        assert stored == expected

    def test_confidences_finite(self, consistent_run) -> None:
        import math

        engine, _ = consistent_run
        for doc in engine.ctx.documents:
            assert math.isfinite(doc.confidence)

    def test_crawl_log_covers_all_documents(self, consistent_run) -> None:
        engine, report = consistent_run
        log = engine.database["crawl_log"]
        ok_rows = [row for row in named_rows(log) if row["status"] == "ok"]
        # every stored document followed a successful fetch; retries and
        # errors add further rows
        assert len(ok_rows) >= report.total.stored_pages
        assert len(log) == report.total.visited_urls
