"""The typed hook API: StageEvent delivery and hook-exception isolation."""

from __future__ import annotations

import pytest

from repro.core.crawler import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.obs.api import StageEvent
from repro.pipeline import STAGE_NAMES
from repro.web import SyntheticWeb

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


def run_phase(crawler, budget: int = 20):
    crawler.seed(
        crawler.ctx.web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    return crawler.crawl(
        PhaseSettings(name="t", focus=SOFT, fetch_budget=budget)
    )


class TestTypedHookApi:
    def test_legacy_adapter_is_gone(self) -> None:
        """The one-release deprecation window for positional hooks is
        over: the adapter helpers no longer exist."""
        import repro.obs as obs
        import repro.obs.api as api

        for name in ("as_hook", "is_legacy_hook", "adapt_legacy_hook"):
            assert not hasattr(api, name)
            assert not hasattr(obs, name)
        assert not hasattr(StageEvent, "as_legacy_tuple")

    def test_add_hook_registers_callable_unwrapped(self, web) -> None:
        crawler = build_crawler(web)
        hook = lambda event: None  # noqa: E731
        crawler.pipeline.add_hook(hook)
        assert crawler.pipeline.hooks[-1] is hook

    def test_typed_events_carry_batch_index_and_extras(self, web) -> None:
        crawler = build_crawler(web, pipeline_batch_size=4)
        events: list[StageEvent] = []
        crawler.pipeline.add_hook(events.append)
        run_phase(crawler)
        assert {e.stage for e in events} == set(STAGE_NAMES)
        indices = [e.batch_index for e in events]
        assert indices == sorted(indices)
        assert indices[-1] >= 1, "crawl never advanced past round 0"
        accepted = sum(
            e.extras["accepted"] for e in events if e.stage == "classify"
        )
        assert accepted == crawler.pipeline.docs_accepted
        assert accepted == crawler.pipeline.stats()["docs_accepted"]


class TestHookExceptionIsolation:
    def test_raising_hook_does_not_abort_the_crawl(self, web) -> None:
        reference = run_phase(build_crawler(web))

        crawler = build_crawler(web)

        def explode(event) -> None:
            raise RuntimeError("observability must never kill the crawl")

        crawler.pipeline.add_hook(explode)
        stats = run_phase(crawler)

        assert stats.table1_row() == reference.table1_row()
        counts = crawler.pipeline.stats()
        assert counts["hook_errors"] > 0
        # one error per stage event delivered to the broken hook
        assert counts["hook_errors"] == sum(
            counts[f"{stage}_batches"] for stage in STAGE_NAMES
        )

    def test_positional_hook_now_fails_per_event_not_fatally(
        self, web
    ) -> None:
        """A left-behind 4-argument hook no longer gets adapted; every
        delivery raises inside the isolation boundary instead of
        crashing the crawl."""
        crawler = build_crawler(web)
        crawler.pipeline.add_hook(lambda a, b, c, d: None)
        stats = run_phase(crawler)
        assert stats.visited_urls > 0
        assert crawler.pipeline.hook_errors > 0
