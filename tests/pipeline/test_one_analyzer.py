"""One document analyzer: every path from a payload to per-space counts
is convert -> ``scan_html`` -> ``space_counts``.

Three things are pinned here:

* the engine's ``analyze_page`` (bootstrap, recrawl) and the crawl's
  Convert+Analyze stages agree on every handler format, bag content
  *and* order, with a position-aware space configured as well;
* a payload no handler claims is not analysed anywhere -- the convert
  stage counts ``mime_rejected``, bootstrap skips the seed, the recrawl
  scheduler counts an error and keeps the stored document;
* the second analyzer and its seam stay gone.
"""

from __future__ import annotations

import importlib

import pytest

import repro.text
from repro.core import BingoEngine
from repro.core.frontier import QueueEntry
from repro.core.ontology import TopicTree
from repro.core.records import CrawlStats
from repro.pipeline.stages import AnalyzeStage, ConvertStage, CrawlItem
from repro.portal.scheduler import RecrawlScheduler
from repro.text.features import TermPairSpace, TermSpace
from repro.text.scanner import scan_html
from repro.web.model import MimeType
from repro.web.server import FetchResult, FetchStatus

from tests.core.conftest import fast_engine_config
from tests.portal.conftest import build_engine
from tests.text.test_handlers import ARCHIVE, PDF, PPT, WORD

HTML = (
    "<html><head><title>Join Processing</title></head><body>"
    '<p>hash join and sort merge join <a href="/next">join survey</a>'
    "</p></body></html>"
)
PAYLOADS = {
    "html": (HTML, MimeType.HTML),
    "pdf": (PDF, MimeType.PDF),
    "word": (WORD, MimeType.WORD),
    "powerpoint": (PPT, MimeType.POWERPOINT),
    "archive": (ARCHIVE, MimeType.ZIP),
}
#: text under a MIME no handler lists, with nothing a handler sniffs
UNCLAIMED = ("plain words about database recovery", "text/plain")


def engine_over(web, spaces=None) -> BingoEngine:
    return BingoEngine(
        web,
        TopicTree.from_leaves(["databases"]),
        {"ROOT/databases": web.seed_homepages(2, topic="databases")},
        config=fast_engine_config(),
        spaces=spaces,
    )


def through_stages(engine: BingoEngine, payload: str, mime: str):
    """The crawl's Convert+Analyze stages over one fetched payload."""
    ctx = engine.ctx
    ctx.stats = CrawlStats()
    url = "http://host.example/doc"
    item = CrawlItem(
        entry=QueueEntry(
            url=url, topic="ROOT/databases", priority=1.0, depth=0
        ),
        result=FetchResult(
            url=url, status=FetchStatus.OK, final_url=url, mime=mime,
            size=len(payload), html=payload,
        ),
    )
    return AnalyzeStage().run(ConvertStage().run([item], ctx), ctx)


class TestStagesAndEngineAgree:
    @pytest.mark.parametrize(
        "spaces",
        [None, {"term": TermSpace(), "pair": TermPairSpace(window=3)}],
        ids=["default", "with-pairs"],
    )
    @pytest.mark.parametrize("fmt", sorted(PAYLOADS))
    def test_same_counts_links_and_title(self, small_web, fmt, spaces):
        payload, mime = PAYLOADS[fmt]
        engine = engine_over(small_web, spaces)
        (item,) = through_stages(engine, payload, mime)
        counts, page = engine.analyze_page(payload, mime)
        assert engine.ctx.converted_formats[fmt] == 1
        assert set(counts) == set(engine.spaces) == set(item.counts)
        for name in counts:
            assert counts[name], (fmt, name)
            assert list(counts[name].items()) \
                == list(item.counts[name].items())
        assert page.links == item.html_doc.links
        assert page.title == item.html_doc.title
        assert page.anchor_terms == item.html_doc.anchor_terms


class TestUnclaimedPayload:
    def test_stage_and_engine_share_the_policy(self, small_web) -> None:
        engine = engine_over(small_web)
        assert through_stages(engine, *UNCLAIMED) == []
        assert engine.ctx.stats.mime_rejected == 1
        assert engine.analyze_page(*UNCLAIMED) is None

    def test_bootstrap_skips_the_seed(self, small_web, monkeypatch) -> None:
        engine = engine_over(small_web)
        bad_seed = engine.seeds["ROOT/databases"][0]
        fetch = small_web.server.fetch

        def serve_text(url: str) -> FetchResult:
            result = fetch(url)
            if url != bad_seed:
                return result
            payload, mime = UNCLAIMED
            return FetchResult(
                url=url, status=FetchStatus.OK, final_url=url, mime=mime,
                size=len(payload), html=payload,
            )

        monkeypatch.setattr(small_web.server, "fetch", serve_text)
        engine.bootstrap()
        assert engine.skipped_seeds == [bad_seed]
        assert bad_seed not in engine.training["ROOT/databases"]
        assert engine.training["ROOT/databases"]

    def test_recrawl_counts_an_error_and_keeps_the_document(
        self, monkeypatch
    ) -> None:
        engine = build_engine(learning_budget=40, harvesting_budget=40)
        scheduler = RecrawlScheduler(engine)
        scheduler.prime()
        doc = engine.ctx.documents[0]
        payload, mime = UNCLAIMED
        monkeypatch.setattr(
            engine.web.server, "fetch",
            lambda url: FetchResult(
                url=url, status=FetchStatus.OK, final_url=url, mime=mime,
                page_id=doc.page_id, size=len(payload), html=payload,
            ),
        )
        scheduler.frontier.requeue(
            QueueEntry(
                url=doc.final_url, topic=doc.topic, priority=1.0,
                depth=doc.depth, referrer_doc_id=doc.doc_id,
            )
        )
        report = scheduler.run(0)
        assert (report.fetched, report.errors) == (1, 1)
        assert (report.changed, report.discovered, report.dead) == (0, 0, 0)
        assert scheduler.stats()["recrawl_total_errors"] == 1.0
        assert engine.ctx.documents[doc.doc_id] is doc
        delta = scheduler.collect_delta()
        assert not (delta.added or delta.changed or delta.removed)


class TestSecondAnalyzerStaysGone:
    @pytest.mark.parametrize(
        "module", ["repro.text.tokenizer", "repro.text.reference"]
    )
    def test_modules_are_gone(self, module: str) -> None:
        with pytest.raises(ModuleNotFoundError):
            importlib.import_module(module)

    def test_package_exports_no_token_front(self) -> None:
        for name in ("Token", "tokenize", "tokenize_html", "html_to_text"):
            assert not hasattr(repro.text, name), name
            assert name not in repro.text.__all__

    def test_convert_stage_has_no_analyzer_seam(self) -> None:
        assert not hasattr(ConvertStage(), "analyzer")

    def test_scanner_takes_no_token_factory(self) -> None:
        with pytest.raises(TypeError):
            scan_html("<p>words</p>", token_factory=tuple)
