"""The benchmark's request generator."""

from __future__ import annotations

from collections import Counter

from benchmarks.e2e.loadgen import AUTHORITY_ON, LoadMix, build_plan

POOL = [f"query{rank}" for rank in range(50)]
TOPICS = ["ROOT/a", "ROOT/b"]


def test_plans_are_deterministic_per_seed() -> None:
    mix = LoadMix(zipf_s=1.1, topic_share=0.3, replay_share=0.05)
    assert build_plan(POOL, TOPICS, 300, 7, mix, "p") == build_plan(
        POOL, TOPICS, 300, 7, mix, "p"
    )
    assert build_plan(POOL, TOPICS, 300, 7, mix, "p") != build_plan(
        POOL, TOPICS, 300, 8, mix, "p"
    )


def test_request_ids_are_unique_across_prefixed_plans() -> None:
    mix = LoadMix()
    plans = [
        build_plan(POOL, TOPICS, 200, 7 + cycle, mix, f"cycle{cycle}")
        for cycle in range(3)
    ]
    ids = [request.request_id for plan in plans for request in plan]
    assert len(set(ids)) == len(ids) == 600


def test_replays_reissue_an_earlier_request() -> None:
    plan = build_plan(POOL, TOPICS, 2000, 7, LoadMix(replay_share=0.05), "p")
    repeats = sum(
        count - 1
        for count in Counter(r.request_id for r in plan).values()
    )
    assert 50 <= repeats <= 150
    first_seen: dict[str, int] = {}
    for position, request in enumerate(plan):
        first_seen.setdefault(request.request_id, position)
    assert all(
        plan[first_seen[request.request_id]] is request for request in plan
    )


def test_mix_shares_are_exact_for_every_seed() -> None:
    mix = LoadMix(topic_share=0.3, vague_share=0.3, weighted_share=0.2)
    for seed in (7, 8, 9):
        plan = build_plan(POOL, TOPICS, 1200, seed, mix, "p")
        assert len(plan) == 1200
        assert abs(sum(r.topic is not None for r in plan) - 360) <= 2
        assert abs(sum(not r.exact for r in plan) - 360) <= 2
        weighted = [r for r in plan if r.weights is not None]
        assert abs(len(weighted) - 240) <= 2
        assert all(r.weights == AUTHORITY_ON for r in weighted)
        # the joint share too: weighted requests with a topic filter
        assert abs(sum(r.topic is not None for r in weighted) - 72) <= 1


def test_zipf_prefers_the_head_of_the_pool() -> None:
    zipf = build_plan(POOL, TOPICS, 4000, 7, LoadMix(zipf_s=1.1), "p")
    uniform = build_plan(POOL, TOPICS, 4000, 7, LoadMix(), "p")
    head = POOL[0]
    assert sum(r.query == head for r in zipf) > 5 * sum(
        r.query == head for r in uniform
    )
