"""Stage protocol, per-stage hooks, cost breakdown and workspace
sharding -- the pipeline's contract surface.
"""

from __future__ import annotations

import pytest

from repro.core import BingoConfig, FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.errors import ConfigError
from repro.pipeline import STAGE_NAMES, CrawlPipeline, Stage
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database
from repro.web import SyntheticWeb
from repro.web.urls import MAX_URL_LENGTH

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier


@pytest.fixture(scope="module")
def web():
    return SyntheticWeb.generate(small_web_config())


def build_crawler(web, **overrides) -> FocusedCrawler:
    config = fast_engine_config(max_retries=2, **overrides)
    classifier = make_trained_classifier(web, config)
    return FocusedCrawler(web, classifier, config)


class TestStageContract:
    def test_canonical_stage_order(self) -> None:
        assert STAGE_NAMES == (
            "admit", "fetch", "convert", "analyze", "classify",
            "persist", "expand",
        )

    def test_pipeline_wires_stages_in_order(self, web) -> None:
        crawler = build_crawler(web)
        assert tuple(s.name for s in crawler.pipeline.stages) == STAGE_NAMES

    def test_stages_satisfy_protocol(self, web) -> None:
        crawler = build_crawler(web)
        for stage in crawler.pipeline.stages:
            assert isinstance(stage, Stage)

    def test_custom_stage_satisfies_protocol(self) -> None:
        class Passthrough:
            name = "passthrough"

            def run(self, batch, ctx):
                return batch

        assert isinstance(Passthrough(), Stage)
        assert isinstance(CrawlPipeline, type)


class TestStageHooks:
    def test_on_batch_reports_every_stage(self, web) -> None:
        crawler = build_crawler(web)
        events: list[tuple[str, int, int]] = []
        rounds: list[int] = []

        def hook(event) -> None:
            events.append((event.stage, event.in_size, event.out_size))
            rounds.append(event.batch_index)

        crawler.pipeline.add_hook(hook)
        crawler.seed(
            web.seed_homepages(3), topic="ROOT/databases", priority=10.0
        )
        stats = crawler.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=20)
        )
        seen_stages = {name for name, *_ in events}
        assert seen_stages == set(STAGE_NAMES)
        for name, n_in, n_out in events:
            assert n_out <= n_in or name == "classify"
        # events arrive in round order
        assert rounds == sorted(rounds)
        # front half runs entry by entry: every admit batch has size 1
        assert all(
            n_in == 1 for name, n_in, _o in events if name == "admit"
        )
        # stored documents all flowed through persist
        persisted = sum(
            n_out for name, _i, n_out in events if name == "persist"
        )
        assert persisted == stats.stored_pages

    def test_batched_commit_groups_documents(self, web) -> None:
        crawler = build_crawler(web, pipeline_batch_size=8)
        sizes: list[int] = []
        crawler.pipeline.add_hook(
            lambda event:
            sizes.append(event.in_size) if event.stage == "classify" else None
        )
        crawler.seed(
            web.seed_homepages(10), topic="ROOT/databases", priority=10.0
        )
        crawler.crawl(PhaseSettings(name="t", focus=SOFT, fetch_budget=60))
        assert sizes, "classify stage never ran"
        assert max(sizes) > 1, "batched crawl never grouped documents"


class TestAdmitScreen:
    def test_overlong_url_is_rejected_unfetched(self, web, monkeypatch):
        """A popped URL past the length limit counts ``url_rejected``
        and never reaches the server; its host resolves, so the
        frontier's DNS prefetch lets it through to the admit stage."""
        crawler = build_crawler(web)
        fetched: list[str] = []
        fetch = web.server.fetch
        monkeypatch.setattr(
            web.server, "fetch", lambda url: fetched.append(url) or fetch(url)
        )
        homepage = web.seed_homepages(1)[0].rstrip("/")
        padding = MAX_URL_LENGTH - len(homepage)
        crawler.seed(
            [f"{homepage}/{'p' * padding}", f"{homepage}/{'q' * padding}"],
            topic="ROOT/databases",
        )
        stats = crawler.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=5)
        )
        assert stats.url_rejected == 2
        assert fetched == []
        assert crawler.ctx.documents == []


class TestProcessingCostBreakdown:
    def test_zero_batch_size_rejected(self) -> None:
        with pytest.raises(ConfigError):
            BingoConfig(pipeline_batch_size=0).validate()


class TestWorkspaceSharding:
    def test_workspace_for_is_modulo_threads(self, web) -> None:
        crawler = build_crawler(web)
        threads = crawler.ctx.config.crawler_threads
        for key in (0, 1, threads - 1, threads, threads + 7, 12345):
            assert crawler.ctx.workspace_for(key) == key % threads

    def test_log_and_rows_share_the_sharding_helper(self, web) -> None:
        """Fetch-log rows and document rows agree on the workspace
        scheme: every used workspace id is < crawler_threads."""
        config = fast_engine_config(max_retries=2)
        classifier = make_trained_classifier(web, config)
        database = Database(validate=True)
        loader = BulkLoader(database, batch_size=10)
        crawler = FocusedCrawler(web, classifier, config, loader=loader)
        crawler.seed(
            web.seed_homepages(3), topic="ROOT/databases", priority=10.0
        )
        crawler.crawl(PhaseSettings(name="t", focus=SOFT, fetch_budget=30))
        used = set(loader._workspaces)
        assert used
        assert all(
            0 <= ws < config.crawler_threads for ws in sorted(used)
        )
