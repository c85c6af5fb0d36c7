"""A stage run is recorded once, as one :class:`StageEvent`.

Grouped by ``batch_index``, a hook's event stream shows each
micro-batch round's stage order (the nesting the deleted span tracer
used to draw), and the removed second and third records stay gone.
"""

from __future__ import annotations

from collections import defaultdict

import pytest

import repro.obs
from repro.core.crawler import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.obs import MetricsRegistry
from repro.pipeline import STAGE_NAMES
from repro.portal import LivingPortal
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier

#: the back-half stages every committed round runs, in order
COMMIT_ORDER = ("convert", "analyze", "classify", "persist", "expand")


@pytest.fixture(scope="module")
def web():
    return SyntheticWeb.generate(small_web_config())


def make_crawler(web, batch_size: int) -> FocusedCrawler:
    config = fast_engine_config(
        max_retries=2, pipeline_batch_size=batch_size
    )
    classifier = make_trained_classifier(web, config)
    crawler = FocusedCrawler(web, classifier, config)
    crawler.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    return crawler


def crawl_rounds(web, batch_size: int) -> dict[int, list[str]]:
    """The stage names of every round, keyed by ``batch_index``."""
    crawler = make_crawler(web, batch_size)
    rounds: dict[int, list[str]] = defaultdict(list)
    crawler.pipeline.add_hook(
        lambda event: rounds[event.batch_index].append(event.stage)
    )
    crawler.crawl(PhaseSettings(name="t", focus=SOFT, fetch_budget=25))
    return dict(rounds)


class TestCrawlSpanNesting:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_stage_spans_match_stage_order(self, web, batch_size) -> None:
        rounds = crawl_rounds(web, batch_size)
        assert rounds, "no stage events were delivered"
        # one index per round that popped an entry, none skipped
        assert sorted(rounds) == list(range(len(rounds)))

        for names in rounds.values():
            assert set(names) <= set(STAGE_NAMES)
            # front half: admit (possibly interleaved with fetch) in
            # pop order, all before the back half
            front = [n for n in names if n in ("admit", "fetch")]
            back = [n for n in names if n not in ("admit", "fetch")]
            assert names == front + back
            assert front[0] == "admit"
            if back:
                # each commit pass replays the back half in stage order
                expected = [
                    stage for stage in COMMIT_ORDER
                    for _ in range(back.count(stage))
                ]
                assert sorted(back, key=COMMIT_ORDER.index) == expected
                assert back[0] == "convert"

    def test_batch_size_one_rounds_hold_one_document(self, web) -> None:
        for names in crawl_rounds(web, 1).values():
            assert names.count("admit") == 1


class TestRemovedRecordsStayGone:
    @pytest.mark.parametrize("name", [
        "Tracer", "Span", "Obs", "ProgressReporter", "from_json",
    ])
    def test_names_are_gone_from_the_package(self, name) -> None:
        assert not hasattr(repro.obs, name)
        assert name not in repro.obs.__all__

    def test_tracing_module_is_gone(self) -> None:
        with pytest.raises(ModuleNotFoundError):
            __import__("repro.obs.tracing")

    def test_context_obs_is_the_registry(self, web) -> None:
        crawler = make_crawler(web, 1)
        assert isinstance(crawler.ctx.obs, MetricsRegistry)
        assert not hasattr(crawler.ctx.obs, "registry")
        assert not hasattr(crawler.ctx.obs, "tracer")

    def test_living_portal_takes_no_indexed_keyword(self) -> None:
        with pytest.raises(TypeError):
            LivingPortal(object(), indexed=True)
