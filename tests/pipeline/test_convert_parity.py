"""End-to-end convert parity: scanner path vs frozen reference analyzer.

:class:`~repro.pipeline.stages.ConvertStage` reaches the scanner
through the module-level name ``repro.pipeline.stages.scan_html`` (the
same name the benchmark tracer wraps).  Substituting an adapter from
``tests/text/reference.py`` to :class:`~repro.text.scanner.ScannedPage`
there runs the whole crawl on the pre-rewrite five-regex pipeline
(the term bag recounted from its token stream) while everything else
stays the same -- no production seam needed.  The synthetic web
renders no HTML entities and no comments --
the constructs the scanner deliberately fixes -- so both paths must
produce **identical** crawls: every Table-1 stat, every stored title,
every per-document term bag, every tf*idf vector, and the simulated
clock, bit for bit.

This is the strongest whole-system guarantee behind the perf rewrite:
swapping the text substrate changed nothing observable.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core import FocusedCrawler
from repro.core.records import SOFT, PhaseSettings
from repro.pipeline import stages
from repro.text.scanner import ScannedPage
from repro.web import SyntheticWeb

from tests.conftest import small_web_config
from tests.core.conftest import fast_engine_config
from tests.core.test_crawler import make_trained_classifier
from tests.text.reference import tokenize_html_reference


def reference_scan(
    html, interner=None, *, with_tokens=True, with_text=True
) -> ScannedPage:
    """``scan_html``'s signature over the frozen reference pipeline."""
    doc = tokenize_html_reference(html)
    return ScannedPage(
        title=doc.title,
        links=doc.links,
        anchor_terms=doc.anchor_terms,
        stem_counts=dict(Counter(t.stem for t in doc.tokens)),
        tokens=[(t.stem, t.surface, t.position) for t in doc.tokens]
        if with_tokens else None,
        text=doc.text if with_text else None,
    )


def run_soft_crawl(use_reference_analyzer: bool):
    web = SyntheticWeb.generate(small_web_config())
    config = fast_engine_config(max_retries=2)
    classifier = make_trained_classifier(web, config)
    crawler = FocusedCrawler(web, classifier, config)
    crawler.seed(
        web.seed_homepages(3), topic="ROOT/databases", priority=10.0
    )
    with pytest.MonkeyPatch.context() as patch:
        if use_reference_analyzer:
            patch.setattr(stages, "scan_html", reference_scan)
        stats = crawler.crawl(
            PhaseSettings(name="t", focus=SOFT, fetch_budget=100)
        )
    return crawler, stats


@pytest.fixture(scope="module")
def runs():
    new = run_soft_crawl(use_reference_analyzer=False)
    old = run_soft_crawl(use_reference_analyzer=True)
    return new, old


def test_table1_stats_bit_identical(runs) -> None:
    (_, new_stats), (_, old_stats) = runs
    new = {f: getattr(new_stats, f)
           for f in new_stats.__dataclass_fields__}
    old = {f: getattr(old_stats, f)
           for f in old_stats.__dataclass_fields__}
    assert new == old
    assert new["stored_pages"] > 50  # the crawl actually did work


def test_documents_and_titles_identical(runs) -> None:
    (new_crawler, _), (old_crawler, _) = runs
    new_docs = new_crawler.ctx.documents
    old_docs = old_crawler.ctx.documents
    assert len(new_docs) == len(old_docs)
    for a, b in zip(new_docs, old_docs):
        assert (a.doc_id, a.final_url, a.title, a.topic, a.confidence) \
            == (b.doc_id, b.final_url, b.title, b.topic, b.confidence)


def test_term_bags_identical_content_and_order(runs) -> None:
    """The scanner's ``stem_counts`` short-cut must equal the
    reference's token-recount per space -- including dict order, which
    downstream iteration depends on."""
    (new_crawler, _), (old_crawler, _) = runs
    for a, b in zip(new_crawler.ctx.documents, old_crawler.ctx.documents):
        assert set(a.counts) == set(b.counts)
        for space in a.counts:
            assert dict(a.counts[space]) == dict(b.counts[space])
            assert list(a.counts[space]) == list(b.counts[space])


def test_per_document_vectors_identical(runs) -> None:
    """Every page's tf*idf row per space (``vectorize_counts``, each
    under its own crawl's idf snapshot) agrees to the last bit, entry
    order included."""
    (new_crawler, _), (old_crawler, _) = runs
    new_classifier = new_crawler.ctx.classifier
    old_classifier = old_crawler.ctx.classifier
    assert new_classifier.spaces == old_classifier.spaces
    new_docs = new_crawler.ctx.documents
    old_docs = old_crawler.ctx.documents
    assert len(new_docs) == len(old_docs)
    for space in new_classifier.spaces:
        for new_doc, old_doc in zip(new_docs, old_docs):
            new_row = new_classifier.vectorizers[space].vectorize_counts(
                new_doc.counts.get(space) or {}
            )
            old_row = old_classifier.vectorizers[space].vectorize_counts(
                old_doc.counts.get(space) or {}
            )
            assert new_row.weights == old_row.weights
            assert list(new_row.weights) == list(old_row.weights)
            assert new_row.norm == old_row.norm


def test_clock_and_frontier_identical(runs) -> None:
    (new_crawler, _), (old_crawler, _) = runs
    assert new_crawler.ctx.clock.now == old_crawler.ctx.clock.now
    assert len(new_crawler.ctx.frontier) == len(old_crawler.ctx.frontier)
    assert new_crawler.ctx.frontier.enqueued == old_crawler.ctx.frontier.enqueued


def test_convert_counters_flow_through_obs(runs) -> None:
    (new_crawler, _), _ = runs
    sources = new_crawler.ctx.obs.snapshot()["sources"]
    pipeline, text = sources["pipeline"], sources["text"]
    assert pipeline == new_crawler.pipeline.stats()
    assert text == new_crawler.ctx.interner.stats()
    assert pipeline["convert_docs_out"] == len(new_crawler.ctx.documents)
    assert pipeline["convert_tokens"] > 0
    assert text["stem_table_hits"] + text["stem_table_misses"] > 0
    # Zipfian corpus: the memo absorbs the overwhelming majority
    assert text["intern_hits"] > 5 * text["intern_misses"]


def test_convert_batches_are_counted_without_wall_time(runs) -> None:
    """One count per convert micro-batch; obs holds no wall seconds
    (``benchmarks/e2e`` measures ``pipeline.convert.busy_s``)."""
    (new_crawler, _), _ = runs
    obs = new_crawler.ctx.obs
    snapshot = obs.snapshot()
    assert snapshot["sources"]["pipeline"]["convert_batches"] >= 1
    assert "wall" not in str(snapshot)
    assert not hasattr(obs, "wall_stage_seconds")
