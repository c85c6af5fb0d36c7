"""The context's document indexes equal a from-scratch derivation.

:class:`~repro.pipeline.context.CrawlContext` keeps ``url_to_doc``,
``topic_docs`` and ``in_links`` through one producer for its three
writers: a stored page (``register_document``), a checkpoint restore
(``restore_documents``) and a revisit that swaps a page's out-links
(``replace_document``).  Whatever the sequence, the indexes must be
what ``tests/pipeline/reference.py`` derives from the store alone, and
the engine's link graph what the store-wide scan builds.
"""

from __future__ import annotations

import dataclasses
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import BingoEngine
from repro.core.records import CrawledDocument
from repro.pipeline.context import CrawlContext

from tests.core.conftest import fast_engine_config
from tests.pipeline.reference import (
    context_indexes,
    context_indexes_reference,
    link_graph_reference,
)

URLS = [f"http://h{i % 3}.example/p{i}" for i in range(8)]
TOPICS = ["ROOT/a", "ROOT/b", "ROOT/OTHERS"]


def page(doc_id: int, final_url: str, topic: str, out_urls) -> CrawledDocument:
    return CrawledDocument(
        doc_id=doc_id, url=final_url, final_url=final_url, page_id=None,
        host=final_url.split("/")[2], ip="", mime="text/html", size=1,
        title="", depth=0, topic=topic, confidence=0.5,
        counts={"term": Counter()}, out_urls=list(out_urls), fetched_at=0.0,
    )


out_links = st.lists(st.sampled_from(URLS), max_size=6)
actions = st.lists(
    st.one_of(
        st.tuples(st.just("store"), st.sampled_from(URLS),
                  st.sampled_from(TOPICS), out_links),
        st.tuples(st.just("revisit"), st.integers(0, 100), out_links),
        st.tuples(st.just("restore")),
    ),
    max_size=25,
)


@pytest.fixture(scope="module")
def context(small_web) -> CrawlContext:
    return CrawlContext(small_web, classifier=None)


@given(actions=actions)
@settings(max_examples=150, deadline=None)
def test_indexes_equal_the_derivation_after_every_write(
    context, actions
) -> None:
    ctx = context
    ctx.restore_documents([], [])
    for action in actions:
        if action[0] == "store":
            _, url, topic, links = action
            ctx.register_document(
                page(len(ctx.documents), url, topic, links), {}
            )
        elif action[0] == "revisit" and ctx.documents:
            _, pick, links = action
            before = ctx.documents[pick % len(ctx.documents)]
            ctx.replace_document(
                dataclasses.replace(before, out_urls=list(links)), {"x": []}
            )
        elif action[0] == "restore":
            ctx.restore_documents(
                list(ctx.documents), list(ctx.anchor_terms)
            )
        assert context_indexes(ctx) == context_indexes_reference(
            ctx.documents
        )
        assert len(ctx.anchor_terms) == len(ctx.documents)


@pytest.fixture(scope="module")
def crawled(small_web) -> BingoEngine:
    engine = BingoEngine.for_portal(small_web, config=fast_engine_config())
    engine.run(harvesting_fetch_budget=200)
    return engine


class TestAfterACrawl:
    def test_url_map_is_the_final_url_map(self, crawled) -> None:
        documents = crawled.ctx.documents
        assert crawled.ctx.url_to_doc == {
            doc.final_url: doc.doc_id for doc in documents
        }

    def test_indexes_equal_the_derivation(self, crawled) -> None:
        assert context_indexes(crawled.ctx) == context_indexes_reference(
            crawled.ctx.documents
        )

    def test_link_graph_is_the_store_wide_scan(self, crawled) -> None:
        documents = crawled.ctx.documents
        topics = {doc.topic for doc in documents}
        assert len(topics) > 1
        for topic in sorted(topics):
            docs = crawled._topic_documents(topic)
            assert docs == [doc for doc in documents if doc.topic == topic]
            graph = crawled._link_graph_for(docs)
            oracle = link_graph_reference(documents, docs)
            assert graph.successors == oracle.successors
            assert graph.predecessors == oracle.predecessors
            assert graph.hosts == oracle.hosts
            assert graph.nodes == oracle.nodes
            assert graph.nodes == sorted(graph.nodes)
