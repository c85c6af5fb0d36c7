"""Tests for the local search engine."""

from __future__ import annotations

import pytest

from repro.errors import SearchError
from repro.search.engine import LocalSearchEngine, RankingWeights

from tests.search.conftest import make_doc
from tests.search.test_parity import random_corpus


def ranked_ids(corpus, topic, exact=True) -> set[int]:
    """The documents a query under the filter ranks: the brute path
    scores every candidate the filter admits."""
    engine = LocalSearchEngine(corpus, indexed=False)
    hits = engine.search(
        "recovery", topic=topic, exact=exact, top_k=len(corpus)
    )
    assert engine.stats()["candidates_ranked"] == len(hits)
    return {hit.document.doc_id for hit in hits}


class TestFiltering:
    def test_exact_topic_filter(self, corpus) -> None:
        assert ranked_ids(corpus, "ROOT/databases", exact=True) == {0, 1, 2}

    def test_vague_filter_includes_subtree(self, corpus) -> None:
        assert ranked_ids(corpus, "ROOT/databases", exact=False) == {
            0, 1, 2, 4,
        }

    def test_no_topic_returns_all(self, corpus) -> None:
        assert len(ranked_ids(corpus, None)) == len(corpus)


class TestCosineRanking:
    def test_best_match_first(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        hits = engine.search("source code release", topic=None)
        assert hits[0].document.doc_id == 1

    def test_stemming_applies_to_query(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        # 'recovery' stems to 'recoveri' matching documents 0/2/4
        hits = engine.search("recovery", topic=None, top_k=3)
        assert {h.document.doc_id for h in hits} <= {0, 2, 4}

    def test_empty_query_rejected(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        with pytest.raises(SearchError):
            engine.search("the and of")

    def test_top_k_respected(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        assert len(engine.search("recovery", top_k=2)) == 2


class TestCombinedRanking:
    def test_confidence_ranking(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        weights = RankingWeights(cosine=0.0, confidence=1.0)
        hits = engine.search("recovery", topic="ROOT/databases", weights=weights)
        # doc 0 has the highest confidence among databases docs
        assert hits[0].document.doc_id == 0
        confidences = [h.confidence for h in hits]
        assert confidences == sorted(confidences, reverse=True)

    def test_authority_ranking(self) -> None:
        # three docs pointing at one target -> target wins authority
        target = make_doc(10, {"data": 1}, url="http://t.example/")
        pointers = [
            make_doc(
                11 + i, {"data": 1}, out_urls=("http://t.example/",),
            )
            for i in range(3)
        ]
        engine = LocalSearchEngine([target, *pointers])
        weights = RankingWeights(cosine=0.0, authority=1.0)
        hits = engine.search("data", weights=weights)
        assert hits[0].document.doc_id == 10

    def test_combined_weights_blend(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        weights = RankingWeights(cosine=0.5, confidence=0.5)
        hits = engine.search("recovery", topic="ROOT/databases", weights=weights)
        for hit in hits:
            assert hit.score == pytest.approx(
                0.5 * hit.cosine + 0.5 * hit.confidence
            )

    def test_invalid_weights_rejected(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        with pytest.raises(SearchError):
            engine.search(
                "x", weights=RankingWeights(cosine=0.0)
            )
        with pytest.raises(SearchError):
            RankingWeights(cosine=-1.0).validate()

    def test_empty_candidate_set(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        assert engine.search("recovery", topic="ROOT/nothing") == []


class TestRedirectAuthority:
    def test_links_through_redirects_reach_their_target(self) -> None:
        # the target was fetched at a redirecting url: links carry the
        # *pre-redirect* url, the document is stored under final_url
        target = make_doc(
            10, {"data": 1},
            url="http://t.example/old",
            final_url="http://t.example/new",
        )
        pointers = [
            make_doc(11 + i, {"data": 1}, out_urls=("http://t.example/old",))
            for i in range(3)
        ]
        engine = LocalSearchEngine([target, *pointers])
        weights = RankingWeights(cosine=0.0, authority=1.0)
        hits = engine.search("data", weights=weights)
        # before the fix url_to_doc only knew final urls, so all three
        # edges were dropped and the graph had no authority signal
        assert hits[0].document.doc_id == 10
        assert hits[0].authority == 1.0

    def test_final_url_mapping_wins_on_collision(self) -> None:
        # doc 20's raw url collides with doc 21's final url; the
        # canonical (final-url) owner receives the edges
        loser = make_doc(
            20, {"data": 1},
            url="http://shared.example/page",
            final_url="http://elsewhere.example/page",
        )
        winner = make_doc(
            21, {"data": 1},
            url="http://w.example/start",
            final_url="http://shared.example/page",
        )
        pointer = make_doc(
            22, {"data": 1}, out_urls=("http://shared.example/page",)
        )
        engine = LocalSearchEngine([loser, winner, pointer])
        weights = RankingWeights(cosine=0.0, authority=1.0)
        hits = engine.search("data", weights=weights)
        assert hits[0].document.doc_id == 21


class TestFailedQueryAccounting:
    def test_failed_query_is_counted(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        with pytest.raises(SearchError):
            engine.search("the and of")
        assert engine.queries == 1
        assert engine.queries_failed == 1
        assert engine.stats()["queries_failed"] == 1.0
        engine.search("recovery")
        assert engine.queries == 2
        assert engine.queries_failed == 1

    def test_invalid_weights_also_counted(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        with pytest.raises(SearchError):
            engine.search("recovery", weights=RankingWeights(cosine=-1.0))
        assert engine.queries_failed == 1
        stats = engine.stats()
        assert stats["queries"] == 1.0
        assert stats["queries_failed"] == 1.0

    def test_failed_query_counter_reaches_registry(self, corpus) -> None:
        from repro.obs import MetricsRegistry

        engine = LocalSearchEngine(corpus)
        registry = MetricsRegistry()
        registry.register_source("search", engine)
        with pytest.raises(SearchError):
            engine.search("the and of")
        search = registry.snapshot()["sources"]["search"]
        assert search["queries"] == 1.0
        assert search["queries_failed"] == 1.0


class TestWorkAccounting:
    def test_documents_scored_is_the_counter_that_falls(self, corpus) -> None:
        """``candidates_ranked`` is the filtered set's size on either
        path; ``documents_scored`` counts the candidates whose cosine is
        a sum of products: every one on the brute-force path, the three
        holding "recoveri" on the indexed one."""
        indexed = LocalSearchEngine(corpus)
        brute = LocalSearchEngine(corpus, indexed=False)
        for engine in (indexed, brute):
            assert len(engine.search("recovery", top_k=2)) == 2
            engine.search("recovery", topic="ROOT/nonexistent")
            engine.search("recovery", top_k=0)
        assert indexed.stats()["candidates_ranked"] == 10.0
        assert brute.stats()["candidates_ranked"] == 10.0
        assert indexed.stats()["documents_scored"] == 3.0
        assert brute.stats()["documents_scored"] == 5.0


    def test_a_fold_costs_what_changed(self, monkeypatch) -> None:
        """A delta writes and drops the entries of its own documents and
        builds no vector; a query after it builds one, its own, however
        many documents it scores -- whether or not the corpus size
        moved."""
        documents = random_corpus(31, 40)
        engine = LocalSearchEngine(documents)
        engine.search("recovery log")
        built: list[dict] = []
        vectorize_counts = engine.vectorizer.vectorize_counts

        def counting(counts):
            built.append(dict(counts))
            return vectorize_counts(counts)

        monkeypatch.setattr(engine.vectorizer, "vectorize_counts", counting)
        for added, changed, removed in (
            ([make_doc(40, {"recoveri": 2, "log": 1, "newcom": 1})],
             [make_doc(7, {"log": 3, "code": 1})], [3, 4]),
            ([make_doc(41, {"sourc": 1})], [], [5]),  # size preserved
        ):
            leaving = [
                d for d in engine.documents
                if d.doc_id in {*removed, *(c.doc_id for c in changed)}
            ]
            postings = engine.stats()["index_postings"]
            report = engine.apply_delta(
                added=added, changed=changed, removed=removed
            )
            assert report.postings_written == sum(
                len(d.counts["term"]) for d in [*added, *changed]
            )
            assert report.postings_dropped == sum(
                len(d.counts["term"]) for d in leaving
            )
            assert engine.stats()["index_postings"] == (
                postings + report.postings_written - report.postings_dropped
            )
            assert built == []
            scored = engine.stats()["documents_scored"]
            assert len(engine.search("recovery log", top_k=10)) == 10
            assert engine.stats()["documents_scored"] - scored >= 10
            assert built == [{"recoveri": 1, "log": 1}]
            built.clear()


class TestMinMaxNormalize:
    def test_degenerate_range_maps_to_zero(self) -> None:
        from repro.search.engine import _min_max_normalize

        assert _min_max_normalize({1: 0.7, 2: 0.7}) == {1: 0.0, 2: 0.0}
        assert _min_max_normalize({1: 0.7}) == {1: 0.0}
        assert _min_max_normalize({}) == {}

    def test_single_candidate_gets_no_free_confidence(self, corpus) -> None:
        # one candidate in the filter: before the fix its normalised
        # confidence was 1.0 -- full marks for no discrimination at all
        engine = LocalSearchEngine(corpus)
        weights = RankingWeights(cosine=0.5, confidence=0.5)
        hits = engine.search(
            "sport", topic="ROOT/OTHERS", weights=weights
        )
        assert len(hits) == 1
        assert hits[0].confidence == 0.0
