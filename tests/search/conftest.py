"""Fixtures: hand-built crawled documents for search tests."""

from __future__ import annotations

from collections import Counter

import pytest

from repro.core.records import CrawledDocument


def filter_reference(
    documents: list[CrawledDocument], topic: str | None, exact: bool = True
) -> list[CrawledDocument]:
    """The documents a query under ``(topic, exact)`` ranks, in corpus
    order: every one for no topic, the class itself for an exact filter,
    the class and its subtree for a vague one."""
    if topic is None:
        return list(documents)
    return [
        d for d in documents
        if d.topic == topic or (not exact and d.topic.startswith(topic + "/"))
    ]


def make_doc(
    doc_id: int,
    terms: dict[str, int],
    topic: str = "ROOT/databases",
    confidence: float = 0.5,
    url: str | None = None,
    final_url: str | None = None,
    out_urls: tuple[str, ...] = (),
    host: str | None = None,
) -> CrawledDocument:
    url = url or f"http://site{doc_id}.example/p{doc_id}.html"
    return CrawledDocument(
        doc_id=doc_id,
        url=url,
        final_url=final_url or url,
        page_id=doc_id,
        host=host or f"site{doc_id}.example",
        ip=f"10.0.0.{doc_id}",
        mime="text/html",
        size=1000 + doc_id,
        title=f"doc {doc_id}",
        depth=1,
        topic=topic,
        confidence=confidence,
        counts={"term": Counter(terms)},
        out_urls=list(out_urls),
        fetched_at=float(doc_id),
    )


@pytest.fixture()
def corpus() -> list[CrawledDocument]:
    return [
        make_doc(0, {"recoveri": 5, "algorithm": 2}, confidence=0.9),
        make_doc(1, {"sourc": 3, "code": 3, "releas": 2}, confidence=0.4),
        make_doc(2, {"recoveri": 1, "log": 4}, confidence=0.7),
        make_doc(
            3, {"sport": 5, "goal": 3},
            topic="ROOT/OTHERS", confidence=0.1,
        ),
        make_doc(
            4, {"recoveri": 2, "sourc": 2, "code": 1},
            topic="ROOT/databases/subtopic", confidence=0.6,
        ),
    ]
