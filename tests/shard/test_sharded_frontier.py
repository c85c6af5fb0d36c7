"""ShardedFrontier vs CrawlFrontier: the sharded entry points change
nothing.

Driven through the same script of pushes, requeues, clock advances and
pops, the frontier a sharded context builds returns *exactly* the
entries the single frontier does, in the same order, with the same
admission counters and DNS-prefetch call sequence, and its snapshot
restores into a fresh one that pops identically.  The queue discipline
itself is checked against a naive model in
``tests/core/test_frontier_stateful.py``.
"""

import random

import pytest

from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.shard import ShardedFrontier, ShardRouter, WorkerSet
from repro.web.clock import SimulatedClock


class Script:
    """One deterministic workload applied to two frontiers in lockstep."""

    def __init__(self, seed=0, hosts=24, drop_every=7):
        self.rng = random.Random(seed)
        self.hosts = [f"h{i}.site{i}.example" for i in range(hosts)]
        self.drop_every = drop_every

    def entry(self, i, topic, not_before=0.0):
        host = self.hosts[i % len(self.hosts)]
        return QueueEntry(
            url=f"http://{host}/page{i}.html",
            topic=topic,
            priority=round(self.rng.uniform(0.0, 10.0), 3),
            depth=i % 5,
            not_before=not_before,
        )

    def prefetch_for(self, calls):
        """A deterministic DNS stub that drops every Nth distinct URL
        and records its call order (must match across frontiers)."""

        def prefetch(url):
            calls.append(url)
            return hash_free_bucket(url, self.drop_every) != 0

        return prefetch


def hash_free_bucket(url, modulus):
    """Deterministic bucket without Python's salted hash()."""
    return sum(url.encode("utf-8")) % modulus


def make_pair(clock, script, limits=None):
    limits = limits or {}
    single_calls, sharded_calls = [], []
    single = CrawlFrontier(
        prefetch=script.prefetch_for(single_calls),
        now=lambda: clock["now"],
        **limits,
    )
    sharded = ShardedFrontier(
        prefetch=script.prefetch_for(sharded_calls),
        now=lambda: clock["now"],
        **limits,
    )
    return single, sharded, single_calls, sharded_calls


def assert_counters_equal(single, sharded):
    assert sharded.stats() == single.stats()
    assert len(sharded) == len(single)
    assert sharded.seen_urls == single.seen_urls


def test_requeue_and_duplicate_paths_identical():
    clock = {"now": 0.0}
    script = Script(seed=4)
    single, sharded, *_ = make_pair(clock, script)
    entries = [script.entry(i, "ROOT/q") for i in range(40)]
    for entry in entries:
        single.push(entry)
        sharded.push(entry)
    for entry in entries[:10]:  # duplicates are dropped identically
        assert sharded.push(entry) == single.push(entry) is False
    replayed = []
    for _ in range(15):
        a, b = single.pop(), sharded.pop()
        assert b == a
        replayed.append(a)
    for entry in replayed[:6]:  # breaker-style deferrals come back
        bumped = QueueEntry(
            url=entry.url,
            topic=entry.topic,
            priority=entry.priority * 0.5,
            depth=entry.depth,
            attempt=entry.attempt + 1,
            not_before=clock["now"] + 30.0,
            deferrals=entry.deferrals + 1,
        )
        single.requeue(bumped)
        sharded.requeue(bumped)
    clock["now"] = 31.0
    while True:
        a, b = single.pop(), sharded.pop()
        assert b == a
        if a is None:
            break
    assert_counters_equal(single, sharded)


def test_mixed_script_fuzz_equivalence():
    """A longer randomized (seeded) interleaving of all operations."""
    clock = {"now": 0.0}
    script = Script(seed=5, hosts=40, drop_every=9)
    limits = {"incoming_limit": 30, "outgoing_limit": 6, "refill_batch": 4}
    single, sharded, s_calls, h_calls = make_pair(clock, script, limits)
    rng = random.Random(99)
    popped = []
    for i in range(600):
        op = rng.random()
        if op < 0.55:
            not_before = clock["now"] + rng.choice([0.0, 0.0, 10.0, 25.0])
            entry = script.entry(i, f"ROOT/t{i % 4}", not_before=not_before)
            assert sharded.push(entry) == single.push(entry)
        elif op < 0.80:
            a, b = single.pop(), sharded.pop()
            assert b == a
            if a is not None:
                popped.append(a)
        elif op < 0.90 and popped:
            entry = popped.pop(rng.randrange(len(popped)))
            bumped = QueueEntry(
                url=entry.url,
                topic=entry.topic,
                priority=entry.priority * 0.8,
                depth=entry.depth,
                attempt=entry.attempt + 1,
                not_before=clock["now"] + rng.choice([5.0, 12.0]),
            )
            single.requeue(bumped)
            sharded.requeue(bumped)
        else:
            clock["now"] += rng.choice([1.0, 4.0, 9.0])
        assert sharded.next_ready_at() == single.next_ready_at()
    clock["now"] += 1000.0
    while True:
        a, b = single.pop(), sharded.pop()
        assert b == a
        if a is None:
            break
    assert h_calls == s_calls
    assert_counters_equal(single, sharded)


def test_snapshot_restore_round_trip():
    """A restored sharded frontier pops identically to the original."""
    clock = {"now": 0.0}
    script = Script(seed=7)
    single, sharded, *_ = make_pair(clock, script)
    for i in range(80):
        not_before = 40.0 if i % 3 == 0 else 0.0
        entry = script.entry(i, f"ROOT/t{i % 2}", not_before=not_before)
        single.push(entry)
        sharded.push(entry)
    for _ in range(10):
        assert sharded.pop() == single.pop()

    state = sharded.snapshot()
    assert state == single.snapshot()
    restored = ShardedFrontier(
        prefetch=script.prefetch_for([]),
        now=lambda: clock["now"],
    )
    restored.restore(state)
    assert restored.stats() == sharded.stats()

    clock["now"] = 41.0
    a_pops, b_pops = [], []
    while True:
        a, b = sharded.pop(), restored.pop()
        a_pops.append(a)
        b_pops.append(b)
        if a is None and b is None:
            break
    assert b_pops == a_pops


def test_per_worker_stores_stay_gone():
    clock = SimulatedClock()
    workers = WorkerSet(3, clock=clock, threads_per_worker=2)
    assert len(workers.pools) == 3
    for name in ("frontier", "hosts", "slices"):
        assert not hasattr(workers, name)
    for keyword in ("breaker_policy", "prefetch"):
        with pytest.raises(TypeError):
            WorkerSet(3, clock=clock, threads_per_worker=2, **{keyword: None})
    with pytest.raises(TypeError):
        ShardedFrontier(**{"router": ShardRouter(3)})
    assert not hasattr(ShardRouter(3), "shard_of_url")
