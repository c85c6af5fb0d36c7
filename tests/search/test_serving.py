"""The serving tier: rate limits, idempotency, caching, Zipfian load."""

from __future__ import annotations

import pytest

from repro.errors import SearchError
from repro.obs import MetricsRegistry
from repro.search.engine import LocalSearchEngine
from repro.search.serving import (
    LoadConfig,
    QueryRequest,
    QueryServer,
    TokenBucket,
    build_query_pool,
    percentile,
    run_query_load,
)
from repro.web.clock import SimulatedClock


def request(
    request_id: str = "r1",
    client_id: str = "alice",
    query: str = "recovery",
    **kwargs,
) -> QueryRequest:
    return QueryRequest(
        client_id=client_id, request_id=request_id, query=query, **kwargs
    )


class TestTokenBucket:
    def test_burst_then_refill(self) -> None:
        bucket = TokenBucket(capacity=2.0, refill_rate=1.0)
        assert bucket.try_acquire(0.0)
        assert bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.0)
        assert not bucket.try_acquire(0.5)  # only half a token back
        assert bucket.try_acquire(1.5)
        assert not bucket.try_acquire(1.5)

    def test_refill_caps_at_capacity(self) -> None:
        bucket = TokenBucket(capacity=3.0, refill_rate=10.0)
        for _ in range(3):
            assert bucket.try_acquire(100.0)
        assert not bucket.try_acquire(100.0)

    def test_time_never_rewinds(self) -> None:
        bucket = TokenBucket(capacity=1.0, refill_rate=1.0)
        assert bucket.try_acquire(10.0)
        # an out-of-order earlier timestamp must not mint tokens
        assert not bucket.try_acquire(5.0)
        assert bucket.updated == 10.0

    def test_rejects_bad_parameters(self) -> None:
        with pytest.raises(SearchError):
            TokenBucket(capacity=0.0, refill_rate=1.0)
        with pytest.raises(SearchError):
            TokenBucket(capacity=1.0, refill_rate=-1.0)


@pytest.fixture()
def server(corpus) -> QueryServer:
    engine = LocalSearchEngine(corpus)
    return QueryServer(engine, clock=SimulatedClock(), rate=5.0, burst=3.0)


class TestIdempotency:
    def test_replay_returns_stored_response_without_rerun(self, server) -> None:
        first = server.handle(request("r1"))
        assert first.ok
        queries_before = server.engine.queries
        tokens_before = server._buckets["alice"].tokens
        replay = server.handle(request("r1"))
        assert replay is first  # the very same response object
        assert server.engine.queries == queries_before
        assert server._buckets["alice"].tokens == tokens_before
        assert server.replayed == 1

    def test_failed_queries_are_stored_for_replay(self, server) -> None:
        first = server.handle(request("r1", query="the and of"))
        assert first.status == "failed"
        assert first.error is not None
        failed_before = server.engine.queries_failed
        assert server.handle(request("r1", query="the and of")) is first
        assert server.engine.queries_failed == failed_before

    def test_rejected_requests_are_not_stored(self, server) -> None:
        for sequence in range(3):
            assert server.handle(request(f"r{sequence}")).ok
        rejected = server.handle(request("r-limited"))
        assert rejected.status == "rejected"
        assert ("alice", "r-limited") not in server._responses
        # the retry succeeds once the bucket refills
        server.clock.advance(1.0)
        retried = server.handle(request("r-limited"))
        assert retried.ok
        assert ("alice", "r-limited") in server._responses

    def test_buckets_are_per_client(self, server) -> None:
        for sequence in range(3):
            assert server.handle(request(f"a{sequence}")).ok
        assert server.handle(request("a3")).status == "rejected"
        # bob has a fresh bucket
        assert server.handle(request("b0", client_id="bob")).ok


class TestResultCache:
    def test_second_client_hits_the_cache(self, server) -> None:
        miss = server.handle(request("r1", client_id="alice"))
        hit = server.handle(request("r2", client_id="bob"))
        assert not miss.cached
        assert hit.cached
        assert hit.hits == miss.hits
        assert server.engine.queries == 1  # ranked exactly once
        assert hit.latency < miss.latency  # cached service cost is lower

    def test_distinct_parameters_do_not_collide(self, server) -> None:
        server.handle(request("r1", top_k=5))
        response = server.handle(request("r2", top_k=7))
        assert not response.cached

    def test_engine_rebuild_invalidates(self, server) -> None:
        server.handle(request("r1"))
        server.engine.apply_delta(reason="retrain")
        response = server.handle(request("r2"))
        assert not response.cached
        assert server.engine.queries == 2

    def test_explicit_invalidate(self, server) -> None:
        """An epoch advance is the one invalidation: the old entry stays
        stored, unreachable, until the LRU bound ages it out."""
        server.handle(request("r1"))
        server.engine.apply_delta(reason="promotion")
        assert not server.handle(request("r2")).cached
        assert len(server.cache) == 2
        assert server.cache.stats()["query_cache_invalidations"] == 0.0

    def test_cache_stays_bounded_and_counts_every_cold_lookup(
        self, corpus
    ) -> None:
        server = QueryServer(
            LocalSearchEngine(corpus), clock=SimulatedClock(),
            rate=100.0, burst=100.0, cache_size=3,
        )
        # six distinct cache keys, then a query that fails
        cold = [request(f"k{k}", top_k=k) for k in range(1, 7)]
        cold.append(request("failed", query="the and of"))
        for item in cold:
            assert not server.handle(item).cached
            assert len(server.cache) <= 3
        assert server.handle(request("newest", top_k=6)).cached
        # the oldest key was aged out: a cold lookup again
        assert not server.handle(request("oldest", top_k=1)).cached
        stats = server.stats()
        assert stats["query_cache_misses"] == len(cold) + 1
        assert stats["query_cache_hits"] == 1.0
        assert len(server.cache) == 3


class TestObservability:
    def test_counters_reach_a_registry_through_stats(self, corpus) -> None:
        engine = LocalSearchEngine(corpus)
        server = QueryServer(
            engine, clock=SimulatedClock(), rate=100.0, burst=100.0
        )
        server.handle(request("r1"))
        server.handle(request("r1"))  # replay
        server.handle(request("r2", client_id="bob"))  # cache hit
        stats = server.stats()
        assert stats["requests"] == 3.0
        assert stats["replayed"] == 1.0
        assert stats["query_cache_hits"] == 1.0
        # the server knows no registry; whoever built it registers it
        assert not hasattr(server, "obs")
        registry = MetricsRegistry()
        registry.register_source("serving", server)
        assert registry.snapshot()["sources"]["serving"] == stats


class TestQueryPool:
    def test_deterministic_pool(self, corpus) -> None:
        first = build_query_pool(corpus, size=16, seed=3)
        second = build_query_pool(corpus, size=16, seed=3)
        assert first == second
        assert len(first) == 16
        assert build_query_pool(corpus, size=16, seed=4) != first

    def test_empty_corpus_rejected(self) -> None:
        with pytest.raises(SearchError):
            build_query_pool([])


class TestQueryLoad:
    def make_server(self, corpus) -> QueryServer:
        engine = LocalSearchEngine(corpus)
        return QueryServer(
            engine, clock=SimulatedClock(), rate=20.0, burst=10.0
        )

    def test_deterministic_replay(self, corpus) -> None:
        config = LoadConfig(requests=200, clients=4, seed=11)
        pool = build_query_pool(corpus, seed=11)
        first = run_query_load(self.make_server(corpus), pool, config)
        second = run_query_load(self.make_server(corpus), pool, config)
        assert first.summary() == second.summary()
        assert first.latencies == second.latencies

    def test_outcome_accounting_is_complete(self, corpus) -> None:
        config = LoadConfig(requests=300, clients=3, seed=5)
        pool = build_query_pool(corpus, seed=5)
        report = run_query_load(self.make_server(corpus), pool, config)
        assert report.requests == 300
        assert (
            report.ok + report.rejected + report.replayed + report.failed
            == report.requests
        )
        assert report.ok > 0
        assert report.replayed > 0  # retry_fraction exercises idempotency
        assert report.cache_hits > 0  # Zipf head repeats queries
        assert report.sim_elapsed > 0
        assert report.qps > 0
        summary = report.summary()
        assert (
            summary["latency_p50"]
            <= summary["latency_p95"]
            <= summary["latency_p99"]
        )

    def test_consecutive_loads_on_one_server_both_execute(self, corpus) -> None:
        # request ids continue the server's own count: a second load
        # must not come back as idempotent replays of the first
        config = LoadConfig(requests=200, clients=4, seed=11)
        pool = build_query_pool(corpus, seed=11)
        fresh = run_query_load(self.make_server(corpus), pool, config)
        server = self.make_server(corpus)
        first = run_query_load(server, pool, config)
        second = run_query_load(server, pool, config)
        assert first.summary() == fresh.summary()
        for report in (first, second):
            assert report.replayed <= 0.15 * report.requests
            assert report.ok + report.rejected >= 0.85 * report.requests
        assert server.requests == 400
        assert server.replayed == first.replayed + second.replayed

    def test_percentile_edges(self) -> None:
        assert percentile([], 0.5) == 0.0
        assert percentile([3.0], 0.99) == 3.0
        assert percentile([1.0, 2.0, 3.0, 4.0], 0.5) == 3.0
