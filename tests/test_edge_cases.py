"""Assorted edge-case tests across modules (gap coverage)."""

from __future__ import annotations

import pytest

from repro.analysis.graph import LinkGraph
from repro.analysis.hits import hits
from repro.core.dedup import DuplicateDetector
from repro.ml.meta import MetaClassifier
from repro.text.vectorizer import SparseVector
from repro.web.clock import SimulatedClock, WorkerPool
from repro.web.dblp import DblpRegistry
from repro.web.model import Researcher
from repro.web.urls import join_url, normalize_url


class TestWorkerPoolExtras:
    def test_next_free_tracks_earliest_worker(self) -> None:
        clock = SimulatedClock()
        pool = WorkerPool(size=2, clock=clock)
        pool.run(5.0)
        pool.run(3.0)
        assert pool.next_free == 3.0


class TestHitsNonConvergence:
    def test_iteration_cap_respected(self) -> None:
        graph = LinkGraph()
        for i in range(6):
            graph.add_edge(i, (i + 1) % 6)  # a cycle: slow to converge
        result = hits(graph, max_iterations=2, tolerance=0.0)
        assert result.iterations == 2
        assert not result.converged


class TestMetaDecisionValue:
    def test_decision_returns_weighted_sum(self) -> None:
        from tests.ml.test_meta import FixedClassifier

        meta = MetaClassifier(
            [FixedClassifier(1), FixedClassifier(-1)], weights=[2.0, 1.0]
        )
        v = SparseVector({"x": 1.0})
        assert meta.decision(v) == pytest.approx(1.0)
        assert meta.classify(v).decision == 1


class TestDedupForget:
    def test_forget_allows_retry(self) -> None:
        detector = DuplicateDetector()
        assert not detector.is_known_ip_path("ip", "http://h/p")
        detector.forget_ip_path("ip", "http://h/p")
        assert not detector.is_known_ip_path("ip", "http://h/p")

    def test_forget_unknown_is_noop(self) -> None:
        DuplicateDetector().forget_ip_path("ip", "http://h/p")


class TestUrlEdges:
    def test_join_with_empty_href(self) -> None:
        assert join_url("http://h/a/b.html", "") == "http://h/a/"

    def test_normalize_preserves_query_like_paths(self) -> None:
        # we model no query strings; '?' stays inside the path segment
        out = normalize_url("http://h/a?b=1")
        assert out == "http://h/a?b=1"


class TestRegistryBoundaries:
    def test_prefix_is_path_anchored(self) -> None:
        registry = DblpRegistry([
            Researcher(
                author_id=0, name="a", topic="t", publication_count=5,
                homepage_page_id=0,
                homepage_url="http://u/~ann/index.html",
            ),
        ])
        # '~ann' prefixes '~anne' lexicographically but the trailing '/'
        # in the stored prefix prevents a false match
        assert registry.author_of_url("http://u/~anne/index.html") is None
        assert registry.author_of_url("http://u/~ann/p/q.pdf") == 0

    def test_empty_registry(self) -> None:
        registry = DblpRegistry([])
        assert registry.author_of_url("http://x/") is None
        assert registry.found_authors(["http://x/"]) == set()
        assert registry.score(["http://x/"], cutoffs=[1], top_k=5) == [
            registry.score(["http://x/"], cutoffs=[1], top_k=5)[0]
        ]
