"""Integration tests for the full BINGO! engine."""

from __future__ import annotations

import pytest

from repro.core import BingoEngine
from repro.core.engine import CrawlReport, PhaseReport
from repro.core.records import CrawlStats
from repro.errors import CrawlError

from tests.core.conftest import fast_engine_config


@pytest.fixture(scope="module")
def portal_run(small_web):
    config = fast_engine_config()
    engine = BingoEngine.for_portal(small_web, config=config)
    report = engine.run(harvesting_fetch_budget=300)
    return engine, report


class TestPortalEngine:
    def test_two_phases_ran(self, portal_run) -> None:
        _, report = portal_run
        assert [phase.name for phase in report.phases] == [
            "learning", "harvesting",
        ]
        assert all(phase.stats.visited_urls > 0 for phase in report.phases)

    def test_learning_respects_seed_domains(self, portal_run, small_web) -> None:
        engine, report = portal_run
        learning = report.phases[0]
        seed_hosts = {
            url.split("/")[2]
            for urls in engine.seeds.values()
            for url in urls
        }
        seed_domains = {".".join(h.split(".")[-2:]) for h in sorted(seed_hosts)}
        for host in learning.stats.hosts_visited:
            assert ".".join(host.split(".")[-2:]) in seed_domains

    def test_harvesting_expands_beyond_seed_domains(self, portal_run) -> None:
        _, report = portal_run
        learning, harvesting = report.phases
        assert harvesting.stats.visited_hosts > learning.stats.visited_hosts

    def test_archetypes_were_promoted(self, portal_run) -> None:
        engine, report = portal_run
        assert engine.archetypes_added > 0
        assert engine.retrainings >= 1
        # archetype promotions are recorded in the database
        assert len(engine.database["archetypes"]) > 0

    def test_training_set_grew_beyond_seeds(self, portal_run) -> None:
        engine, _ = portal_run
        topic_records = engine.training["ROOT/databases"]
        assert len(topic_records) > 2  # two seed homepages originally

    def test_seeds_remain_protected(self, portal_run) -> None:
        engine, _ = portal_run
        seed_urls = set(engine.seeds["ROOT/databases"])
        training_urls = set(engine.training["ROOT/databases"])
        assert seed_urls <= training_urls

    def test_ranked_results_sorted_by_confidence(self, portal_run) -> None:
        engine, _ = portal_run
        docs = engine.ranked_results("ROOT/databases")
        confidences = [doc.confidence for doc in docs]
        assert confidences == sorted(confidences, reverse=True)
        assert len(docs) > 10

    def test_recall_against_registry(self, portal_run, small_web) -> None:
        """The crawl finds a good share of the registry's top authors."""
        engine, _ = portal_run
        registry = small_web.registry("databases")
        found = registry.found_authors(
            doc.final_url for doc in engine.ctx.documents
        )
        top10 = {r.author_id for r in registry.top_authors(10)}
        assert len(found & top10) >= 5

    def test_dblp_domain_never_crawled(self, portal_run) -> None:
        engine, _ = portal_run
        for doc in engine.ctx.documents:
            assert "dblp" not in doc.host

    def test_table1_row_shape(self, portal_run) -> None:
        _, report = portal_run
        row = report.table1_row()
        assert set(row) == {
            "visited_urls", "stored_pages", "extracted_links",
            "positively_classified", "visited_hosts", "max_crawling_depth",
        }
        assert row["visited_urls"] >= row["stored_pages"]

    def test_idf_statistics_filled(self, portal_run) -> None:
        engine, _ = portal_run
        stats = engine.classifier.vectorizers["term"].statistics
        assert stats._snapshot_n > 0


class TestExpertEngine:
    def test_expert_run_reaches_needles(self, small_expert_web) -> None:
        config = fast_engine_config(
            learning_fetch_budget=60, retrain_interval=40,
        )
        web = small_expert_web
        # seed from the ARIES hub and a couple of researcher pages, as the
        # paper seeds from hand-picked external search results
        hubs = [web.pages[pid].url for pid in web.hub_page_ids["aries"]]
        seeds = hubs[-1:] + web.seed_homepages(2, topic="aries")
        engine = BingoEngine.for_expert(web, seeds, topic="aries", config=config)
        engine.run(harvesting_fetch_budget=400)
        crawled_urls = {doc.final_url for doc in engine.ctx.documents}
        assert crawled_urls & web.needle_urls(), "no needle page crawled"

    def test_harvest_before_bootstrap_rejected(self, small_web) -> None:
        engine = BingoEngine.for_portal(small_web, config=fast_engine_config())
        with pytest.raises(CrawlError):
            engine.run_harvesting_phase(fetch_budget=10)

    def test_bad_seed_url_raises(self, small_web) -> None:
        engine = BingoEngine.for_expert(
            small_web, ["http://nonexistent.example.zz/x"],
            topic="databases", config=fast_engine_config(),
        )
        with pytest.raises(CrawlError):
            engine.bootstrap()


class TestReportTotals:
    def test_total_merges_every_crawl_stats_field(self) -> None:
        """Two phases with every counter non-zero: a field
        ``CrawlReport.total`` does not merge reads 0 and fails here."""
        fields = [
            name for name in CrawlStats.__dataclass_fields__
            if name != "hosts_visited"
        ]
        learning, harvest = CrawlStats(), CrawlStats()
        for position, name in enumerate(fields, start=1):
            kind = type(getattr(learning, name))
            setattr(learning, name, kind(position))
            setattr(harvest, name, kind(100 * position))
        learning.hosts_visited = {"a.example", "b.example"}
        harvest.hosts_visited = {"b.example", "c.example"}
        learning.simulated_seconds, harvest.simulated_seconds = 0.1, 0.2

        total = CrawlReport(phases=[
            PhaseReport("learning", learning), PhaseReport("harvest", harvest),
        ]).total

        assert total.hosts_visited == {"a.example", "b.example", "c.example"}
        assert total.max_depth == harvest.max_depth
        # summed in phase order: the benchmark fingerprints this float
        assert total.simulated_seconds == 0.0 + 0.1 + 0.2
        for name in fields:
            if name not in ("max_depth", "simulated_seconds"):
                assert getattr(total, name) == (
                    getattr(learning, name) + getattr(harvest, name)
                ), name
