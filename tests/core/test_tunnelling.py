"""Unit tests for tunnelling mechanics (paper sections 3.3 and 4.2)."""

from __future__ import annotations

import pytest

from repro.core import BingoConfig, FocusedCrawler, HierarchicalClassifier
from repro.core.records import SOFT, PhaseSettings
from repro.core.frontier import QueueEntry
from repro.core.ontology import TopicTree
from repro.pipeline.stages import (
    MAX_TUNNELLING_DISTANCE,
    TUNNEL_PRIORITY_DECAY,
)
from repro.text.vectorizer import SparseVector
from repro.web.urls import parse_url


def test_tunnelled_priority_decays_exponentially(small_web) -> None:
    """Links out of rejected pages get priority * decay^steps."""
    config = BingoConfig()
    tree = TopicTree.from_leaves(["t"])
    classifier = HierarchicalClassifier(tree, config)
    crawler = FocusedCrawler(small_web, classifier, config)

    from repro.core.classifier import ClassificationResult
    from repro.core.records import CrawledDocument
    from collections import Counter

    document = CrawledDocument(
        doc_id=0, url="http://h/x", final_url="http://h/x", page_id=None,
        host="h", ip="1.1.1.1", mime="text/html", size=10, title="",
        depth=1, topic="ROOT/OTHERS", confidence=0.8,
        counts={"term": Counter()},
        out_urls=["http://u0.edu.example/~a/p.html"], fetched_at=0.0,
    )
    rejected = ClassificationResult(topic="ROOT/OTHERS", confidence=0.8)
    entry = QueueEntry(
        url="http://h/x", topic="ROOT/t", priority=0.8, depth=1,
        tunnelled=1,
    )
    settings = PhaseSettings(name="t", focus=SOFT, tunnelling=True)
    crawler.pipeline.expand.enqueue_links(
        crawler.ctx, entry, document, rejected, settings,
        [parse_url(url) for url in document.out_urls])
    queued = crawler.ctx.frontier.pop()
    assert queued is not None
    # tunnelled step 2: confidence 0.8 * 0.5^2 = 0.2
    assert TUNNEL_PRIORITY_DECAY == 0.5
    assert queued.tunnelled == 2
    assert queued.priority == pytest.approx(0.8 * 0.25)


def test_tunnelling_stops_at_max_distance(small_web) -> None:
    config = BingoConfig()
    tree = TopicTree.from_leaves(["t"])
    classifier = HierarchicalClassifier(tree, config)
    crawler = FocusedCrawler(small_web, classifier, config)

    from repro.core.classifier import ClassificationResult
    from repro.core.records import CrawledDocument
    from collections import Counter

    document = CrawledDocument(
        doc_id=0, url="http://h/x", final_url="http://h/x", page_id=None,
        host="h", ip="1.1.1.1", mime="text/html", size=10, title="",
        depth=1, topic="ROOT/OTHERS", confidence=0.8,
        counts={"term": Counter()},
        out_urls=["http://u0.edu.example/~a/p.html"], fetched_at=0.0,
    )
    rejected = ClassificationResult(topic="ROOT/OTHERS", confidence=0.8)
    # already at the tunnelling limit -> links are dropped
    entry = QueueEntry(
        url="http://h/x", topic="ROOT/t", priority=0.8, depth=1,
        tunnelled=MAX_TUNNELLING_DISTANCE,
    )
    settings = PhaseSettings(name="t", focus=SOFT, tunnelling=True)
    crawler.pipeline.expand.enqueue_links(
        crawler.ctx, entry, document, rejected, settings,
        [parse_url(url) for url in document.out_urls])
    assert crawler.ctx.frontier.pop() is None


def test_accepted_page_resets_tunnel_counter(small_web) -> None:
    config = BingoConfig()
    tree = TopicTree.from_leaves(["t"])
    classifier = HierarchicalClassifier(tree, config)
    crawler = FocusedCrawler(small_web, classifier, config)

    from repro.core.classifier import ClassificationResult
    from repro.core.records import CrawledDocument
    from collections import Counter

    document = CrawledDocument(
        doc_id=0, url="http://h/x", final_url="http://h/x", page_id=None,
        host="h", ip="1.1.1.1", mime="text/html", size=10, title="",
        depth=1, topic="ROOT/t", confidence=0.9,
        counts={"term": Counter()},
        out_urls=["http://u0.edu.example/~a/p.html"], fetched_at=0.0,
    )
    accepted = ClassificationResult(
        topic="ROOT/t", confidence=0.9, path=(("ROOT/t", 0.9),)
    )
    entry = QueueEntry(
        url="http://h/x", topic="ROOT/t", priority=0.8, depth=1,
        tunnelled=2,  # the page was reached through a tunnel ...
    )
    settings = PhaseSettings(name="t", focus=SOFT, tunnelling=True)
    crawler.pipeline.expand.enqueue_links(
        crawler.ctx, entry, document, accepted, settings,
        [parse_url(url) for url in document.out_urls])
    queued = crawler.ctx.frontier.pop()
    assert queued is not None
    # ... but being accepted resets the counter for its own links
    assert queued.tunnelled == 0
    assert queued.priority == pytest.approx(0.9)
