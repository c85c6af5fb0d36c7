"""Tracer: span nesting mirrors the stage order, ring bound holds."""

from __future__ import annotations

import pytest

from repro.core.crawler import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.obs import Tracer
from repro.pipeline import STAGE_NAMES
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier

#: the back-half stages every committed round runs, in order
COMMIT_ORDER = ("convert", "analyze", "classify", "persist", "expand")


@pytest.fixture(scope="module")
def web():
    return SyntheticWeb.generate(small_web_config())


def crawl_trace(web, batch_size: int):
    config = fast_engine_config(
        max_retries=2, pipeline_batch_size=batch_size
    )
    classifier = make_trained_classifier(web, config)
    crawler = FocusedCrawler(web, classifier, config)
    # the default ring keeps the most recent 256 spans; these tests
    # read the whole crawl
    crawler.ctx.obs.tracer = Tracer(
        clock=lambda: crawler.ctx.clock.now, maxlen=100_000
    )
    crawler.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    crawler.crawl(PhaseSettings(name="t", focus=SOFT, fetch_budget=25))
    return crawler.ctx.obs.tracer


class TestUnitTracer:
    def test_spans_nest_and_time_from_the_clock(self) -> None:
        tick = iter(range(100))
        tracer = Tracer(clock=lambda: float(next(tick)), maxlen=16)
        outer = tracer.start("crawl", kind="crawl")
        inner = tracer.start("batch:0", kind="micro_batch", parent=outer)
        tracer.finish(inner)
        tracer.finish(outer)
        assert inner.parent_id == outer.span_id
        assert outer.start == 0.0 and inner.start == 1.0
        assert inner.end == 2.0 and outer.end == 3.0
        # ring holds children before parents (finish order)
        assert [s.name for s in tracer.finished()] == ["batch:0", "crawl"]

    def test_ring_buffer_is_bounded(self) -> None:
        tracer = Tracer(maxlen=4)
        for i in range(10):
            tracer.event(f"e{i}")
        assert len(tracer.finished()) == 4
        assert [s.name for s in tracer.finished()] == [
            "e6", "e7", "e8", "e9"
        ]
        assert tracer.stats() == {
            "spans_started": 10.0,
            "spans_retained": 4.0,
            "spans_dropped": 6.0,
        }


class TestCrawlSpanNesting:
    @pytest.mark.parametrize("batch_size", [1, 3, 8])
    def test_stage_spans_match_stage_order(self, web, batch_size) -> None:
        tracer = crawl_trace(web, batch_size)
        crawls = tracer.finished(kind="crawl")
        assert len(crawls) == 1

        rounds = tracer.finished(kind="micro_batch")
        assert rounds, "no micro-batch spans were traced"
        assert all(r.parent_id == crawls[0].span_id for r in rounds)

        for round_span in rounds:
            stages = tracer.children_of(round_span, kind="stage")
            names = [s.name for s in stages]
            assert set(names) <= set(STAGE_NAMES)
            # front half: admit (possibly interleaved with fetch) in
            # pop order, all before the back half
            front = [n for n in names if n in ("admit", "fetch")]
            back = [n for n in names if n not in ("admit", "fetch")]
            assert names == front + back
            if back:
                # each commit pass replays the back half in stage order
                expected = [
                    stage for stage in COMMIT_ORDER
                    for _ in range(back.count(stage))
                ]
                assert sorted(back, key=COMMIT_ORDER.index) == expected
                assert back[0] == "convert"

    def test_decision_spans_are_children_of_classify(self, web) -> None:
        tracer = crawl_trace(web, 8)
        classify_ids = {
            s.span_id for s in tracer.finished(kind="stage")
            if s.name == "classify"
        }
        decisions = tracer.finished(kind="decision")
        assert decisions, "no per-document decision spans were traced"
        assert all(d.parent_id in classify_ids for d in decisions)
        for decision in decisions:
            assert set(decision.attrs) == {
                "url", "topic", "accepted", "confidence"
            }

    def test_batch_size_one_rounds_hold_one_document(self, web) -> None:
        tracer = crawl_trace(web, 1)
        for round_span in tracer.finished(kind="micro_batch"):
            admits = [
                s for s in tracer.children_of(round_span, kind="stage")
                if s.name == "admit"
            ]
            assert len(admits) == 1
