"""ShardedFrontier vs CrawlFrontier: the oracle-equivalence contract.

The sharded frontier's whole reason to exist is that, driven through
the same script of pushes, requeues, clock advances and pops, it
returns *exactly* the entries a single frontier would, in exactly the
same order, with exactly the same admission counters and DNS-prefetch
call sequence.  These tests run both against shared scripts that
exercise every coordination path: deferred release (with ties),
overflow eviction, refill gating, DNS drops and duplicate drops.
"""

import random

import pytest

from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.shard import ShardedFrontier, ShardRouter


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


def make_pair(workers, clock, script, limits=None):
    limits = limits or {}
    single_calls, sharded_calls = [], []
    single = CrawlFrontier(
        prefetch=script.prefetch_for(single_calls),
        now=lambda: clock["now"],
        **limits,
    )
    sharded = ShardedFrontier(
        ShardRouter(workers),
        prefetch=script.prefetch_for(sharded_calls),
        now=lambda: clock["now"],
        **limits,
    )
    return single, sharded, single_calls, sharded_calls


def assert_counters_equal(single, sharded):
    assert sharded.stats() == single.stats()
    assert sharded.stats() == single.stats()
    assert len(sharded) == len(single)
    assert sharded.enqueued == single.enqueued
    assert sharded.duplicate_drops == single.duplicate_drops
    assert sharded.evictions == single.evictions
    assert sharded.dns_drops == single.dns_drops
    assert sharded.deferred_total == single.deferred_total
    assert sharded.seen_urls == single.seen_urls


@pytest.mark.parametrize("workers", [1, 3, 8])
def test_pop_order_identical_basic(workers):
    clock = {"now": 0.0}
    script = Script(seed=1)
    single, sharded, s_calls, h_calls = make_pair(workers, clock, script)
    for i in range(120):
        topic = f"ROOT/t{i % 3}"
        entry = script.entry(i, topic)
        assert sharded.push(entry) == single.push(entry)
    singles = [single.pop() for _ in range(130)]
    shardeds = [sharded.pop() for _ in range(130)]
    assert shardeds == singles
    assert h_calls == s_calls
    assert_counters_equal(single, sharded)


@pytest.mark.parametrize("workers", [2, 5])
def test_deferred_release_order_identical(workers):
    """Deferred entries across shards release in global
    (not_before, admission) order -- including exact ties."""
    clock = {"now": 0.0}
    script = Script(seed=2)
    single, sharded, *_ = make_pair(workers, clock, script)
    for i in range(60):
        # many exact not_before ties across different hosts/shards
        entry = script.entry(i, "ROOT/x", not_before=float(5 + (i % 4) * 10))
        single.push(entry)
        sharded.push(entry)
    assert sharded.pop() is None and single.pop() is None
    assert sharded.next_ready_at() == single.next_ready_at() == 5.0
    for now in (5.0, 15.0, 25.0, 35.0):
        clock["now"] = now
        while True:
            a, b = single.pop(), sharded.pop()
            assert b == a
            if a is None:
                break
    assert_counters_equal(single, sharded)


@pytest.mark.parametrize("workers", [3])
def test_eviction_identical_under_small_limits(workers):
    """The incoming limit is global: the sharded frontier evicts the
    globally worst candidate even when the insert hit another shard."""
    clock = {"now": 0.0}
    script = Script(seed=3)
    limits = {"incoming_limit": 10, "outgoing_limit": 4, "refill_batch": 3}
    single, sharded, s_calls, h_calls = make_pair(
        workers, clock, script, limits
    )
    pops = []
    for i in range(150):
        entry = script.entry(i, f"ROOT/t{i % 2}")
        assert sharded.push(entry) == single.push(entry)
        if i % 5 == 4:
            a, b = single.pop(), sharded.pop()
            assert b == a
            pops.append(a)
    while True:
        a, b = single.pop(), sharded.pop()
        assert b == a
        if a is None:
            break
    assert single.evictions > 0  # the script actually overflowed
    assert single.dns_drops > 0  # and dropped DNS candidates
    assert h_calls == s_calls
    assert_counters_equal(single, sharded)


def test_requeue_and_duplicate_paths_identical():
    clock = {"now": 0.0}
    script = Script(seed=4)
    single, sharded, *_ = make_pair(4, clock, script)
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
    single, sharded, s_calls, h_calls = make_pair(8, clock, script, limits)
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


def test_aggregate_views():
    clock = {"now": 0.0}
    script = Script(seed=6)
    _, sharded, *_ = make_pair(4, clock, script)
    for i in range(30):
        sharded.push(script.entry(i, f"ROOT/t{i % 2}"))
    assert sharded.pending_for("ROOT/t0") + sharded.pending_for(
        "ROOT/t1"
    ) == len(sharded)
    assert sharded.topics == ["ROOT/t0", "ROOT/t1"]
    assert sharded.has_seen(script.entry(0, "ROOT/t0").url)
    assert not sharded.has_seen("http://nowhere.example/")
    stats = sharded.stats()
    assert stats["enqueued"] == 30.0
    assert set(stats) == {
        "size",
        "enqueued",
        "duplicate_drops",
        "evictions",
        "dns_drops",
        "deferred_total",
    }


def test_snapshot_restore_round_trip():
    """A restored sharded frontier pops identically to the original."""
    clock = {"now": 0.0}
    script = Script(seed=7)
    single, sharded, *_ = make_pair(3, clock, script)
    for i in range(80):
        not_before = 40.0 if i % 3 == 0 else 0.0
        entry = script.entry(i, f"ROOT/t{i % 2}", not_before=not_before)
        single.push(entry)
        sharded.push(entry)
    for _ in range(10):
        assert sharded.pop() == single.pop()

    state = sharded.snapshot()
    restored = ShardedFrontier(
        ShardRouter(3),
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


def test_restore_rejects_worker_mismatch():
    clock = {"now": 0.0}
    script = Script(seed=8)
    _, sharded, *_ = make_pair(3, clock, script)
    state = sharded.snapshot()
    other = ShardedFrontier(ShardRouter(5), now=lambda: clock["now"])
    with pytest.raises(ValueError, match="crawl_workers"):
        other.restore(state)
