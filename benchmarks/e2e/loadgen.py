"""The benchmark's request generator (closed loop, one client at a time).

:func:`build_plan` turns a query pool into a deterministic request
sequence: uniform or Zipfian popularity, a share of requests carrying a
topic filter, a vague (``exact=False``) filter or authority-on ranking
weights, and a share of idempotent replays.  Request ids are
``{prefix}-{n}`` with a caller-chosen prefix, so plans issued against
one :class:`~repro.search.serving.QueryServer` never collide.

``repro.search.serving.run_query_load`` is deliberately not used: it
names its requests ``req-{sequence}`` from 0 on every call, so calling
it once per cycle against one server turns most requests into silent
idempotent replays (see README, "Known defect").
"""

from __future__ import annotations

import bisect
import hashlib
import random
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, product

from repro.search.engine import RankingWeights
from repro.search.serving import QueryRequest, QueryResponse

__all__ = ["LoadMix", "build_plan", "response_digest"]

AUTHORITY_ON = RankingWeights(0.6, 0.2, 0.2)
CLIENTS = 8


@dataclass(frozen=True)
class LoadMix:
    """The shape of one request plan."""

    zipf_s: float | None = None
    """Zipf exponent of query popularity over pool rank; None draws
    uniformly."""
    topic_share: float = 0.0
    vague_share: float = 0.0
    weighted_share: float = 0.0
    """The three shares are exact, not expected: an authority-weighted
    request costs ~10x a plain one, so a binomial draw of 20 % of 1200
    alone would move ``ops_per_s`` by +-4 % from seed to seed."""
    replay_share: float = 0.0


def _kinds(
    count: int, mix: LoadMix, rng: random.Random
) -> list[tuple[bool, bool, bool]]:
    """``count`` (topic, vague, weighted) flags holding the mix's joint
    shares exactly (largest remainder), in seeded order."""
    combos = list(product((False, True), repeat=3))
    exact = [
        count
        * (mix.topic_share if topic else 1 - mix.topic_share)
        * (mix.vague_share if vague else 1 - mix.vague_share)
        * (mix.weighted_share if weighted else 1 - mix.weighted_share)
        for topic, vague, weighted in combos
    ]
    counts = [int(share) for share in exact]
    by_remainder = sorted(
        range(len(combos)), key=lambda i: counts[i] - exact[i]
    )
    for index in by_remainder[: count - sum(counts)]:
        counts[index] += 1
    kinds = [
        combo for combo, number in zip(combos, counts) for _ in range(number)
    ]
    rng.shuffle(kinds)
    return kinds


def build_plan(
    pool: Sequence[str],
    topics: Sequence[str],
    requests: int,
    seed: int,
    mix: LoadMix,
    prefix: str,
) -> list[QueryRequest]:
    """``requests`` deterministic requests over ``pool``."""
    rng = random.Random(seed)
    cumulative: list[float] | None = None
    if mix.zipf_s is not None:
        cumulative = list(accumulate(
            1.0 / (rank + 1) ** mix.zipf_s for rank in range(len(pool))
        ))
    kinds = _kinds(requests, mix, rng)
    plan: list[QueryRequest] = []
    for number in range(requests):
        if plan and rng.random() < mix.replay_share:
            plan.append(rng.choice(plan))
            continue
        topic, vague, weighted = kinds[number]
        if cumulative is None:
            query = rng.choice(pool)
        else:
            rank = bisect.bisect_left(
                cumulative, rng.random() * cumulative[-1]
            )
            query = pool[min(rank, len(pool) - 1)]
        plan.append(QueryRequest(
            client_id=f"client-{rng.randrange(CLIENTS)}",
            request_id=f"{prefix}-{number}",
            query=query,
            topic=rng.choice(topics) if topic else None,
            exact=not vague,
            weights=AUTHORITY_ON if weighted else None,
        ))
    return plan


def response_digest(responses: Sequence[QueryResponse]) -> str:
    """SHA-256 over every response's status and ``(doc_id, score)`` list."""
    digest = hashlib.sha256()
    for response in responses:
        digest.update(
            repr((
                response.request_id,
                response.status,
                [(hit.document.doc_id, hit.score) for hit in response.hits],
            )).encode()
        )
    return digest.hexdigest()
