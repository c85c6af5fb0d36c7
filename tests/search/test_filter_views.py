"""Per-epoch filter views: link analysis once per epoch and filter.

What a filter derives from the documents alone (candidates, normalised
confidence, HITS authority) is kept in a view for the epoch.  These
tests pin the three things that can go wrong with that: the work is
not actually shared, a view outlives the documents it was derived
from, or request-supplied strings grow the engine.
"""

from __future__ import annotations

import dataclasses

import pytest

import repro.search.engine as engine_module
from repro.errors import SearchError
from repro.search.engine import LocalSearchEngine, RankingWeights
from repro.search.serving import QueryRequest, QueryServer

from tests.search.conftest import make_doc
from tests.search.test_parity import hit_tuples, random_corpus

AUTHORITY = RankingWeights(cosine=0.6, confidence=0.2, authority=0.2)

FILTERS = [
    (None, True),
    ("ROOT/databases", True),
    ("ROOT/databases", False),
    ("ROOT/OTHERS", True),
]

QUERIES = ["recovery", "source code release", "database transaction log"]


@pytest.fixture()
def hits_calls(monkeypatch) -> list[int]:
    """Node counts of every graph handed to the engine's ``hits``."""
    calls: list[int] = []
    real = engine_module.hits

    def counted(graph):
        calls.append(len(graph))
        return real(graph)

    monkeypatch.setattr(engine_module, "hits", counted)
    return calls


def authority_results(engine: LocalSearchEngine) -> list:
    return [
        hit_tuples(
            engine.search(
                query, topic=topic, exact=exact, weights=AUTHORITY, top_k=10
            )
        )
        for query in QUERIES
        for topic, exact in FILTERS
    ]


class TestWorkIsSharedPerFilter:
    def test_hits_runs_once_per_distinct_filter(self, hits_calls) -> None:
        engine = LocalSearchEngine(random_corpus(11, 30))
        for _ in range(3):
            authority_results(engine)
        assert len(hits_calls) == len(FILTERS)
        stats = engine.stats()
        assert stats["authority_runs"] == float(len(FILTERS))
        assert stats["filter_views"] == float(len(FILTERS))
        assert stats["queries"] == float(3 * len(QUERIES) * len(FILTERS))

    def test_no_topic_is_one_view_whatever_exact_says(
        self, hits_calls
    ) -> None:
        engine = LocalSearchEngine(random_corpus(11, 30))
        exact = engine.search("recovery", exact=True, weights=AUTHORITY)
        vague = engine.search("recovery", exact=False, weights=AUTHORITY)
        assert hit_tuples(exact) == hit_tuples(vague)
        assert len(hits_calls) == 1
        assert engine.stats()["filter_views"] == 1.0

    def test_unweighted_queries_never_run_link_analysis(
        self, hits_calls
    ) -> None:
        engine = LocalSearchEngine(random_corpus(11, 30))
        engine.search("recovery", topic="ROOT/databases")
        engine.search(
            "recovery", topic="ROOT/databases",
            weights=RankingWeights(cosine=0.5, confidence=0.5),
        )
        assert hits_calls == []
        # the scheme arrives late: computed then, and only then
        engine.search("recovery", topic="ROOT/databases", weights=AUTHORITY)
        engine.search("recovery", topic="ROOT/databases", weights=AUTHORITY)
        assert len(hits_calls) == 1

    def test_brute_force_reference_never_reads_a_view(
        self, hits_calls
    ) -> None:
        engine = LocalSearchEngine(random_corpus(11, 30))
        engine.search("recovery", weights=AUTHORITY)
        query_vector = engine._query_vector("recovery")
        for _ in range(2):
            engine.rank_all(list(engine.documents), query_vector, AUTHORITY)
        assert len(hits_calls) == 3


class TestViewsDoNotOutliveTheirEpoch:
    """After every way the epoch can move, a warmed engine answers
    exactly like one constructed from the documents it now holds."""

    def warmed(self, documents) -> LocalSearchEngine:
        engine = LocalSearchEngine(documents)
        authority_results(engine)
        assert engine.stats()["filter_views"] == float(len(FILTERS))
        return engine

    def assert_fresh(self, engine: LocalSearchEngine) -> None:
        assert authority_results(engine) == authority_results(
            LocalSearchEngine(engine.documents)
        )

    def test_apply_delta_add_change_remove(self) -> None:
        documents = random_corpus(21, 30)
        engine = self.warmed(documents)
        hub = make_doc(
            30, {"recoveri": 2, "log": 1}, confidence=0.8,
            # new edges into the filter's graph, one through a redirect
            out_urls=tuple(
                f"http://site{target}.example/r{target}.html"
                for target in (0, 1, 2, 3)
            ),
        )
        engine.apply_delta(added=[hub])
        assert engine.stats()["filter_views"] == 0.0
        self.assert_fresh(engine)

        rewired = dataclasses.replace(
            documents[5],
            topic="ROOT/OTHERS",
            confidence=0.05,
            out_urls=[hub.url, documents[7].final_url],
        )
        engine.apply_delta(changed=[rewired])
        self.assert_fresh(engine)

        engine.apply_delta(removed=[0, hub.doc_id])
        self.assert_fresh(engine)

    def test_rebuild(self) -> None:
        documents = random_corpus(22, 30)
        engine = self.warmed(documents[:20])
        # growing the corpus is a fold of the arrivals, not a rebuild
        engine.apply_delta(added=documents[20:], reason="growth")
        assert engine.stats()["filter_views"] == 0.0
        self.assert_fresh(engine)

    def test_snapshot_refresh_underneath_the_engine(self) -> None:
        engine = self.warmed(random_corpus(24, 30))
        engine.vectorizer.refresh()
        assert engine.epoch.reason == "idf_refresh"
        assert engine.stats()["filter_views"] == 0.0
        self.assert_fresh(engine)


class TestRequestsCannotGrowOrCorruptTheEngine:
    def test_unknown_topics_leave_no_view_behind(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        engine.search("recovery", topic="ROOT/databases")
        before = engine.stats()["filter_views"]
        for n in range(50):
            for exact in (True, False):
                assert engine.search(
                    "recovery", topic=f"ROOT/made-up-{n}", exact=exact,
                    weights=AUTHORITY,
                ) == []
        assert engine.search("recovery", topic="ROOT/made-up") == []
        assert engine.stats()["filter_views"] == before

    def test_mutating_a_filter_result_does_not_reach_later_queries(
        self, corpus
    ) -> None:
        """A filter's result reaches the caller as a list of hits; the
        caller may do what it likes with it."""
        engine = LocalSearchEngine(corpus)
        expected = hit_tuples(
            engine.search("recovery", topic="ROOT/databases", top_k=10)
        )
        first = engine.search("recovery", topic="ROOT/databases", top_k=10)
        first.clear()
        everything = engine.search("recovery", top_k=len(corpus))
        everything.reverse()
        everything.pop()
        assert engine.documents == corpus
        assert hit_tuples(
            engine.search("recovery", topic="ROOT/databases", top_k=10)
        ) == expected


class TestTopKValidation:
    @pytest.mark.parametrize("indexed", [True, False])
    def test_negative_top_k_is_a_failed_query(self, corpus, indexed) -> None:
        engine = LocalSearchEngine(corpus, indexed=indexed)
        with pytest.raises(SearchError):
            engine.search("recovery", top_k=-1)
        assert engine.queries == 1
        assert engine.queries_failed == 1

    def test_query_server_reports_it_as_failed(self, corpus) -> None:
        server = QueryServer(LocalSearchEngine(corpus))
        response = server.handle(
            QueryRequest("client", "q-1", "recovery", top_k=-1)
        )
        assert response.status == "failed"
        assert response.hits == ()
        assert server.stats()["failed"] == 1.0

    @pytest.mark.parametrize("indexed", [True, False])
    def test_zero_top_k_scores_nothing(
        self, corpus, indexed, monkeypatch
    ) -> None:
        engine = LocalSearchEngine(corpus, indexed=indexed)

        def unreachable(*args, **kwargs):
            raise AssertionError("top_k=0 scored candidates")

        monkeypatch.setattr(engine, "rank_all", unreachable)
        monkeypatch.setattr(engine, "_rank_indexed", unreachable)
        assert engine.search("recovery", top_k=0, weights=AUTHORITY) == []
        assert engine.queries_failed == 0
        # still a validated query: bad weights and empty queries fail
        with pytest.raises(SearchError):
            engine.search("recovery", top_k=0, weights=RankingWeights(0.0))
        with pytest.raises(SearchError):
            engine.search("the", top_k=0)
        assert engine.queries_failed == 2
