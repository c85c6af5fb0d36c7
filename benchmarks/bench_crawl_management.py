"""E9 -- section 4.2 micro-efficiency: queues, dedup, DNS cache.

Micro-benchmarks of the crawl-management machinery plus shape checks:
the frontier's bounded queues sustain high push/evict/pop rates and pop
in priority order, duplicate detection catches alias/copy URLs cheaply,
and the caching resolver achieves a high hit rate on a Zipf host
workload.
"""

from __future__ import annotations

import numpy as np

from repro.core.dedup import DuplicateDetector
from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.experiments.reporting import ExperimentTable
from repro.web.clock import SimulatedClock
from repro.web.dns import CachingResolver, DnsServer, DnsZone
from repro.web.urls import url_hash

from benchmarks.conftest import record_table

N_OPS = 5000


def test_frontier_push_pop(benchmark) -> None:
    """N_OPS pushes into one topic whose incoming queue holds 3/4 of
    them (the worst N_OPS/4 are evicted), then N_OPS/2 ordered pops."""
    rng = np.random.default_rng(0)
    entries = [
        QueueEntry(url=f"url{i}", topic="t", priority=float(p), depth=0)
        for i, p in enumerate(rng.random(N_OPS))
    ]

    def run():
        frontier = CrawlFrontier(incoming_limit=N_OPS - N_OPS // 4)
        for entry in entries:
            frontier.push(entry)
        popped = [frontier.pop() for _ in range(N_OPS // 2)]
        return frontier, popped

    frontier, popped = benchmark(run)
    assert frontier.evictions == N_OPS // 4
    assert len(frontier) == N_OPS - N_OPS // 2 - N_OPS // 4
    best = sorted(entries, key=lambda e: e.priority, reverse=True)
    assert popped == best[: N_OPS // 2]


def test_url_hash_fingerprinting(benchmark) -> None:
    urls = [f"http://host{i % 97}.example/path/{i}.html" for i in range(N_OPS)]

    def run():
        return {url_hash(url) for url in urls}

    hashes = benchmark(run)
    assert len(hashes) == N_OPS  # no collisions on this workload


def test_duplicate_detection_three_stages(benchmark) -> None:
    def run():
        detector = DuplicateDetector()
        for i in range(N_OPS):
            # every 7th visit uses a host alias (www. prefix): the URL
            # hash differs but the resolved IP + path match (stage 2)
            prefix = "www." if i % 7 == 0 else ""
            url = f"http://{prefix}h{i % 50}.example/p{i % 1000}.html"
            if detector.is_known_url(url):
                continue
            if detector.is_known_ip_path(f"10.0.0.{i % 50}", url):
                continue
            detector.is_known_ip_size(f"10.0.0.{i % 50}", 1000 + i % 800)
        return detector

    detector = benchmark(run)
    stats = detector.stats
    assert stats.url_hash_hits > 0
    assert stats.ip_path_hits > 0
    assert stats.ip_size_hits > 0
    table = ExperimentTable(
        "Duplicate detection stages (section 4.2)",
        ["Stage", "Hits"],
        note=f"workload of {N_OPS} URL visits with aliases and copies",
    )
    table.add_row(["1: URL hash", stats.url_hash_hits])
    table.add_row(["2: IP + path", stats.ip_path_hits])
    table.add_row(["3: IP + filesize", stats.ip_size_hits])
    record_table("dedup_stages", table.render())


def test_dns_cache_hit_rate(benchmark) -> None:
    zone = DnsZone()
    n_hosts = 400
    for i in range(n_hosts):
        zone.register(f"h{i}.example", f"10.0.{i // 250}.{i % 250}")
    # Zipf-distributed host popularity, like a real crawl frontier
    rng = np.random.default_rng(1)
    ranks = np.arange(1, n_hosts + 1, dtype=float)
    weights = ranks**-1.1
    weights /= weights.sum()
    lookups = rng.choice(n_hosts, size=N_OPS, p=weights)

    def run():
        clock = SimulatedClock()
        resolver = CachingResolver(
            [DnsServer(zone, latency=0.1, name=f"dns{i}") for i in range(5)],
            clock,
            capacity=n_hosts,
        )
        for host_index in lookups:
            resolver.resolve(f"h{host_index}.example")
        return resolver

    resolver = benchmark(run)
    assert resolver.hit_rate > 0.9
    table = ExperimentTable(
        "DNS cache (section 4.2)",
        ["Metric", "Value"],
        note="Zipf host popularity over a 400-host zone",
    )
    table.add_row(["lookups", N_OPS])
    table.add_row(["hit rate", round(resolver.hit_rate, 4)])
    table.add_row(["cache entries", len(resolver)])
    record_table("dns_cache", table.render())
