"""The query-serving tier: rate limits, idempotency, Zipfian load.

BINGO! is an information *portal* generator -- the crawl is only half
of the system; the other half serves expert search to many concurrent
users.  This module is that serving layer, built on the simulated
clock so load experiments replay deterministically:

* :class:`TokenBucket` -- per-client token-bucket rate limiting
  (capacity burst + steady refill, measured in simulated seconds);
* :class:`QueryServer` -- idempotent request handling (a replayed
  ``(client_id, request_id)`` returns the stored response without
  re-executing the query or double-charging tokens), a
  :class:`~repro.search.index.QueryCache` keyed on the engine's typed
  :class:`~repro.search.epoch.Epoch` and a deterministic service-cost
  model; every response is stamped with the epoch it was computed
  under, so replayed responses are checkable for staleness;
* :class:`LoadConfig` / :func:`run_query_load` -- a deterministic
  Zipfian query-load generator: query popularity follows a Zipf
  distribution over a corpus-derived query pool, arrivals follow a
  seeded exponential process, and a
  :class:`~repro.web.clock.WorkerPool` models the server's worker
  threads, so "concurrent sessions" queue and drain exactly the same
  way on every run.
"""

from __future__ import annotations

import bisect
import random
from collections import Counter
from dataclasses import dataclass, field
from collections.abc import Sequence

from repro.core.records import CrawledDocument
from repro.errors import SearchError
from repro.search.engine import LocalSearchEngine, RankedHit, RankingWeights
from repro.search.epoch import Epoch
from repro.search.index import QueryCache
from repro.web.clock import SimulatedClock, WorkerPool

__all__ = [
    "TokenBucket",
    "QueryRequest",
    "QueryResponse",
    "QueryServer",
    "LoadConfig",
    "LoadReport",
    "build_query_pool",
    "run_query_load",
    "percentile",
]


@dataclass
class TokenBucket:
    """Token-bucket rate limiter on the simulated clock.

    ``capacity`` bounds the burst; ``refill_rate`` tokens accrue per
    simulated second.  Buckets start full.
    """

    capacity: float
    refill_rate: float
    tokens: float = field(default=-1.0)
    updated: float = 0.0

    def __post_init__(self) -> None:
        if self.capacity <= 0 or self.refill_rate <= 0:
            raise SearchError("token bucket needs positive capacity/rate")
        if self.tokens < 0:
            self.tokens = self.capacity

    def try_acquire(self, now: float, cost: float = 1.0) -> bool:
        """Take ``cost`` tokens at simulated time ``now`` if available."""
        if now > self.updated:
            self.tokens = min(
                self.capacity,
                self.tokens + (now - self.updated) * self.refill_rate,
            )
        self.updated = max(self.updated, now)
        if self.tokens >= cost:
            self.tokens -= cost
            return True
        return False


@dataclass(frozen=True)
class QueryRequest:
    """One client query; ``request_id`` makes retries idempotent."""

    client_id: str
    request_id: str
    query: str
    topic: str | None = None
    exact: bool = True
    weights: RankingWeights | None = None
    top_k: int = 10

    def cache_key(self) -> tuple:
        """The query-result cache key (client identity excluded)."""
        weights = self.weights or RankingWeights()
        return (
            self.query,
            self.topic,
            self.exact,
            (weights.cosine, weights.confidence, weights.authority),
            self.top_k,
        )


@dataclass(frozen=True)
class QueryResponse:
    """The server's answer; stored for idempotent replay."""

    request_id: str
    status: str
    """``"ok"``, ``"failed"`` (the engine rejected the query) or
    ``"rejected"`` (rate limited; not stored for replay -- a later
    retry with the same ``request_id`` may succeed)."""
    hits: tuple[RankedHit, ...]
    error: str | None
    served_at: float
    latency: float
    """Simulated seconds from arrival to completion (queue + service)."""
    cached: bool
    """Whether the result came from the query-result cache."""
    epoch: Epoch | None = None
    """The engine epoch the response was computed under (None for
    rate-limit rejections, which never touched the engine).  A replayed
    response keeps its original epoch, so callers can detect that an
    idempotent replay predates the current corpus."""

    @property
    def ok(self) -> bool:
        return self.status == "ok"


class QueryServer:
    """Idempotent, rate-limited query serving over one search engine.

    Latency is *modelled*: each executed query costs a deterministic
    number of simulated seconds (:meth:`service_cost`) and is scheduled
    on the server's :class:`~repro.web.clock.WorkerPool`, so latencies
    and throughput numbers are bit-identical across runs.  Wall-clock
    speed of the underlying engine is the benchmark's business (the
    ``serve-cold`` workload of ``benchmarks/e2e``), not this class's.
    """

    #: simulated seconds charged per executed query / per ranked hit;
    #: cache hits skip ranking and pay only the lookup cost
    SERVICE_BASE = 0.004
    SERVICE_PER_HIT = 0.0004
    SERVICE_CACHED = 0.0005

    def __init__(
        self,
        engine: LocalSearchEngine,
        clock: SimulatedClock | None = None,
        workers: int = 4,
        rate: float = 10.0,
        burst: float = 20.0,
        cache_size: int = 512,
    ) -> None:
        self.engine = engine
        self.clock = clock or SimulatedClock()
        self.pool = WorkerPool(size=workers, clock=self.clock)
        self.rate = rate
        self.burst = burst
        self.cache = QueryCache(maxsize=cache_size)
        self._buckets: dict[str, TokenBucket] = {}
        self._responses: dict[tuple[str, str], QueryResponse] = {}
        self.requests = 0
        self.replayed = 0
        self.rejected = 0
        self.failed = 0
        self.served = 0

    # -- the request path ---------------------------------------------------

    def handle(self, request: QueryRequest) -> QueryResponse:
        """Serve one request (idempotent, rate limited, cached)."""
        self.requests += 1
        arrival = self.clock.now
        stored = self._responses.get((request.client_id, request.request_id))
        if stored is not None:
            # idempotent replay: same response object, no re-execution,
            # no token charge
            self.replayed += 1
            return stored
        bucket = self._buckets.get(request.client_id)
        if bucket is None:
            bucket = TokenBucket(capacity=self.burst, refill_rate=self.rate)
            self._buckets[request.client_id] = bucket
        if not bucket.try_acquire(arrival):
            self.rejected += 1
            return QueryResponse(
                request_id=request.request_id,
                status="rejected",
                hits=(),
                error="rate limited",
                served_at=arrival,
                latency=0.0,
                cached=False,
            )
        response = self._execute(request, arrival)
        # only completed work is recorded for replay; a rejected request
        # retried later must be allowed to run
        self._responses[(request.client_id, request.request_id)] = response
        return response

    def _execute(self, request: QueryRequest, arrival: float) -> QueryResponse:
        epoch = self.engine.epoch
        key = request.cache_key()
        entry = self.cache.get(epoch, key)
        cached = entry is not None
        hits: tuple[RankedHit, ...] = (
            entry if cached else ()  # type: ignore[assignment]
        )
        error: str | None = None
        status = "ok"
        if not cached:
            try:
                hits = tuple(
                    self.engine.search(
                        request.query,
                        topic=request.topic,
                        exact=request.exact,
                        weights=request.weights,
                        top_k=request.top_k,
                    )
                )
                self.cache.put(epoch, key, hits)
            except SearchError as exc:
                status = "failed"
                error = str(exc)
                hits = ()
                self.failed += 1
        cost = self.service_cost(len(hits), cached=cached)
        _started, end = self.pool.run(cost)
        self.served += 1
        return QueryResponse(
            request_id=request.request_id,
            status=status,
            hits=hits,
            error=error,
            served_at=end,
            latency=end - arrival,
            cached=cached,
            epoch=epoch,
        )

    def service_cost(self, hit_count: int, cached: bool) -> float:
        """Deterministic simulated service duration for one query."""
        if cached:
            return self.SERVICE_CACHED
        return self.SERVICE_BASE + self.SERVICE_PER_HIT * hit_count

    # -- observability ------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Serving counters (:class:`repro.obs.api.Instrumented`)."""
        stats = {
            "requests": float(self.requests),
            "served": float(self.served),
            "replayed": float(self.replayed),
            "rejected": float(self.rejected),
            "failed": float(self.failed),
            "clients": float(len(self._buckets)),
        }
        stats.update(self.cache.stats())
        return stats


# -- deterministic Zipfian load ---------------------------------------------


def build_query_pool(
    documents: Sequence[CrawledDocument],
    size: int = 64,
    seed: int = 0,
    max_terms: int = 3,
) -> list[str]:
    """A deterministic query pool over the corpus vocabulary.

    Takes the ``size`` highest-document-frequency terms (ties broken
    lexicographically) and combines 1..``max_terms`` of them per query
    with a seeded RNG, so the same corpus and seed always produce the
    same pool.
    """
    frequency: Counter[str] = Counter()
    for document in documents:
        frequency.update(document.counts.get("term", Counter()).keys())
    vocabulary = [
        term
        for term, _count in sorted(
            frequency.items(), key=lambda item: (-item[1], item[0])
        )[:size]
    ]
    if not vocabulary:
        raise SearchError("corpus has no indexable vocabulary")
    rng = random.Random(seed)
    pool = []
    for _ in range(size):
        count = rng.randint(1, max_terms)
        pool.append(" ".join(rng.choice(vocabulary) for _ in range(count)))
    return pool


@dataclass(frozen=True)
class LoadConfig:
    """One deterministic Zipfian load run."""

    requests: int = 500
    clients: int = 8
    seed: int = 0
    zipf_s: float = 1.1
    """Zipf exponent of query popularity (rank r drawn with
    probability proportional to ``1 / r**zipf_s``)."""
    arrival_rate: float = 40.0
    """Mean request arrivals per simulated second (exponential
    inter-arrival times from the seeded RNG)."""
    retry_fraction: float = 0.05
    """Fraction of requests replayed with their previous request id,
    exercising the idempotency path."""
    topics: tuple[str | None, ...] = (None,)
    top_k: int = 10


@dataclass
class LoadReport:
    """Outcome of :func:`run_query_load` (fully deterministic)."""

    requests: int
    ok: int
    rejected: int
    replayed: int
    failed: int
    cache_hits: int
    sim_elapsed: float
    latencies: list[float]

    @property
    def qps(self) -> float:
        """Completed queries per simulated second."""
        if self.sim_elapsed <= 0:
            return 0.0
        return self.ok / self.sim_elapsed

    def summary(self) -> dict[str, float]:
        return {
            "requests": float(self.requests),
            "ok": float(self.ok),
            "rejected": float(self.rejected),
            "replayed": float(self.replayed),
            "failed": float(self.failed),
            "cache_hits": float(self.cache_hits),
            "sim_elapsed": self.sim_elapsed,
            "sim_qps": self.qps,
            "latency_p50": percentile(self.latencies, 0.50),
            "latency_p95": percentile(self.latencies, 0.95),
            "latency_p99": percentile(self.latencies, 0.99),
        }


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (0.0 for an empty sequence)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, int(q * len(ordered))))
    return ordered[rank]


def run_query_load(
    server: QueryServer,
    pool: Sequence[str],
    config: LoadConfig | None = None,
) -> LoadReport:
    """Drive ``server`` with a deterministic Zipfian query load.

    Query popularity is Zipfian over ``pool`` (the head queries repeat
    often -- exactly the regime a result cache exists for), arrivals
    are a seeded exponential process advancing the simulated clock, and
    a slice of requests retries a previous request id to exercise
    idempotent replay.
    """
    config = config or LoadConfig()
    if not pool:
        raise SearchError("query pool is empty")
    rng = random.Random(config.seed)
    # cumulative Zipf weights over pool ranks
    weights = [1.0 / (rank + 1) ** config.zipf_s for rank in range(len(pool))]
    total = sum(weights)
    cumulative = []
    running = 0.0
    for weight in weights:
        running += weight / total
        cumulative.append(running)
    started = server.clock.now
    report = LoadReport(
        requests=0, ok=0, rejected=0, replayed=0, failed=0,
        cache_hits=0, sim_elapsed=0.0, latencies=[],
    )
    issued: list[QueryRequest] = []
    for _ in range(config.requests):
        server.clock.advance(rng.expovariate(config.arrival_rate))
        if issued and rng.random() < config.retry_fraction:
            request = rng.choice(issued)
        else:
            rank = bisect.bisect_left(cumulative, rng.random())
            request = QueryRequest(
                client_id=f"client-{rng.randrange(config.clients)}",
                request_id=f"req-{server.requests}",
                query=pool[min(rank, len(pool) - 1)],
                topic=rng.choice(list(config.topics)),
                top_k=config.top_k,
            )
            issued.append(request)
        replays_before = server.replayed
        response = server.handle(request)
        replay = server.replayed > replays_before
        report.requests += 1
        if replay:
            report.replayed += 1
        elif response.status == "rejected":
            report.rejected += 1
        elif response.status == "failed":
            report.failed += 1
        else:
            report.ok += 1
            report.latencies.append(response.latency)
        if response.cached and not replay:
            report.cache_hits += 1
    server.pool.drain()
    report.sim_elapsed = server.clock.now - started
    return report
