"""Workload builders + timing runners for the query-serving tier.

Produces the machine-readable payload written to
``benchmarks/results/BENCH_search.json``: per-query wall-clock latency
percentiles (p50/p95/p99) and throughput for the brute-force reference
ranker vs the WAND-backed inverted index, plus a fully deterministic
*simulated* section from the Zipfian load generator (cache hit rate,
simulated qps) that is bit-identical across machines.

Absolute latencies vary across machines; the regression gate in
``run_search.py`` therefore checks the brute/indexed *speedup ratio*
(machine-independent to first order) plus the acceptance floor on the
p50 speedup.
"""

from __future__ import annotations

import random
import time
from collections import Counter

from repro.core.records import CrawledDocument
from repro.search.engine import LocalSearchEngine
from repro.search.serving import (
    LoadConfig,
    QueryServer,
    build_query_pool,
    percentile,
    run_query_load,
)
from repro.web.clock import SimulatedClock

__all__ = [
    "build_corpus",
    "build_query_plan",
    "bench_latency",
    "run_all",
]


def build_corpus(
    docs: int = 2500, vocab: int = 1500, terms_per_doc: int = 30,
    seed: int = 17,
) -> list[CrawledDocument]:
    """A synthetic corpus with a skewed term distribution.

    Term popularity is quadratically skewed (low ranks appear in many
    documents, the tail is rare), which is the regime an inverted index
    with max-score pruning is built for: queries over common terms have
    long postings but a fast-rising top-k threshold.
    """
    rng = random.Random(seed)
    corpus = []
    for doc_id in range(docs):
        counts: Counter[str] = Counter()
        for _ in range(terms_per_doc):
            rank = int(vocab * rng.random() ** 2)
            counts[f"t{min(rank, vocab - 1)}"] += rng.randint(1, 4)
        url = f"http://host{doc_id % 97}.example/d{doc_id}.html"
        corpus.append(
            CrawledDocument(
                doc_id=doc_id,
                url=url,
                final_url=url,
                page_id=doc_id,
                host=f"host{doc_id % 97}.example",
                ip=f"10.0.{doc_id % 250}.1",
                mime="text/html",
                size=1000,
                title=f"doc {doc_id}",
                depth=1,
                topic="ROOT/databases",
                confidence=rng.random(),
                counts={"term": counts},
                out_urls=[],
                fetched_at=float(doc_id),
            )
        )
    return corpus


def build_query_plan(
    corpus, queries: int = 300, seed: int = 17, pool_size: int = 200
) -> list[str]:
    """A deterministic Zipfian sequence over the corpus query pool.

    The pool spans the top ``pool_size`` document-frequency terms, so
    the plan mixes short-postings (selective) and long-postings (head)
    queries the way a real portal load does.
    """
    pool = build_query_pool(corpus, size=pool_size, seed=seed)
    rng = random.Random(seed)
    weights = [1.0 / (rank + 1) ** 1.1 for rank in range(len(pool))]
    total = sum(weights)
    plan = []
    for _ in range(queries):
        pick = rng.random() * total
        running = 0.0
        for rank, weight in enumerate(weights):
            running += weight
            if running >= pick:
                plan.append(pool[rank])
                break
        else:
            plan.append(pool[-1])
    return plan


def _time_queries(
    engines: list[LocalSearchEngine],
    plan: list[str],
    top_k: int,
    repeats: int,
) -> list[list[float]]:
    """Best-of-``repeats`` wall latency per query for each engine.

    The engines are timed back-to-back *per query* (interleaved), so a
    machine-load drift over the run hits both sides of the speedup
    ratio equally instead of skewing whichever engine ran later.
    """
    latencies: list[list[float]] = [[] for _ in engines]
    for query in plan:
        for index, engine in enumerate(engines):
            best = float("inf")
            for _ in range(repeats):
                start = time.perf_counter()
                engine.search(query, top_k=top_k)
                best = min(best, time.perf_counter() - start)
            latencies[index].append(best)
    return latencies


def bench_latency(
    docs: int = 2500, queries: int = 300, top_k: int = 10,
    repeats: int = 3, seed: int = 17,
) -> dict:
    """Brute-force reference vs indexed top-k on the same workload."""
    corpus = build_corpus(docs=docs, seed=seed)
    plan = build_query_plan(corpus, queries=queries, seed=seed)
    brute = LocalSearchEngine(corpus, indexed=False)
    indexed = LocalSearchEngine(corpus, indexed=True)
    indexed.index()  # build outside the timed region (it is lazy)
    # warm both paths
    brute.search(plan[0], top_k=top_k)
    indexed.search(plan[0], top_k=top_k)

    brute_lat, indexed_lat = _time_queries(
        [brute, indexed], plan, top_k, repeats
    )

    def section(latencies: list[float]) -> dict:
        return {
            "p50_ms": percentile(latencies, 0.50) * 1e3,
            "p95_ms": percentile(latencies, 0.95) * 1e3,
            "p99_ms": percentile(latencies, 0.99) * 1e3,
            "qps": len(latencies) / sum(latencies),
        }

    brute_s = section(brute_lat)
    indexed_s = section(indexed_lat)
    index_stats = indexed.index().stats()
    return {
        "docs": docs,
        "queries": queries,
        "top_k": top_k,
        "brute": brute_s,
        "indexed": indexed_s,
        "speedup_p50": brute_s["p50_ms"] / indexed_s["p50_ms"],
        "speedup_p95": brute_s["p95_ms"] / indexed_s["p95_ms"],
        "speedup_qps": indexed_s["qps"] / brute_s["qps"],
        "index_terms": index_stats["index_terms"],
        "index_postings": index_stats["index_postings"],
        "index_compressed_bytes": index_stats["index_compressed_bytes"],
    }


def bench_simulated_load(
    docs: int = 800, requests: int = 600, seed: int = 17
) -> dict:
    """Deterministic Zipfian load numbers (bit-identical across runs)."""
    corpus = build_corpus(docs=docs, seed=seed)
    engine = LocalSearchEngine(corpus, indexed=True)
    server = QueryServer(
        engine, clock=SimulatedClock(), rate=30.0, burst=40.0
    )
    pool = build_query_pool(corpus, seed=seed)
    report = run_query_load(
        server, pool,
        LoadConfig(requests=requests, clients=8, seed=seed),
    )
    summary = report.summary()
    summary["cache_hit_rate"] = (
        report.cache_hits / report.ok if report.ok else 0.0
    )
    summary["engine_queries"] = float(engine.queries)
    return summary


def run_all(include_simulated: bool = True, **latency_kwargs) -> dict:
    results = {
        "schema": 1,
        "latency": bench_latency(**latency_kwargs),
    }
    if include_simulated:
        results["simulated"] = bench_simulated_load()
    return results
