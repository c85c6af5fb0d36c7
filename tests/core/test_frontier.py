"""Tests for the crawl frontier."""

from __future__ import annotations

import pytest

from repro.core.frontier import CrawlFrontier, QueueEntry

from tests.core.conftest import pending_by_topic


def entry(url: str, topic: str = "t", priority: float = 1.0,
          depth: int = 0, tunnelled: int = 0) -> QueueEntry:
    return QueueEntry(
        url=url, topic=topic, priority=priority, depth=depth,
        tunnelled=tunnelled,
    )


class TestPushPop:
    def test_pop_returns_highest_priority(self) -> None:
        frontier = CrawlFrontier()
        frontier.push(entry("http://a/", priority=0.2))
        frontier.push(entry("http://b/", priority=0.9))
        frontier.push(entry("http://c/", priority=0.5))
        assert frontier.pop().url == "http://b/"
        assert frontier.pop().url == "http://c/"
        assert frontier.pop().url == "http://a/"
        assert frontier.pop() is None

    def test_fifo_within_equal_priority(self) -> None:
        frontier = CrawlFrontier()
        for i in range(5):
            frontier.push(entry(f"http://x{i}/", priority=1.0))
        popped = [frontier.pop().url for _ in range(5)]
        assert popped == [f"http://x{i}/" for i in range(5)]

    def test_duplicate_urls_dropped(self) -> None:
        frontier = CrawlFrontier()
        assert frontier.push(entry("http://a/"))
        assert not frontier.push(entry("http://a/", priority=9.0))
        assert frontier.duplicate_drops == 1
        assert len(frontier) == 1

    def test_priorities_compete_across_topics(self) -> None:
        frontier = CrawlFrontier()
        frontier.push(entry("http://a/", topic="t1", priority=0.3))
        frontier.push(entry("http://b/", topic="t2", priority=0.8))
        assert frontier.pop().topic == "t2"

    def test_has_seen(self) -> None:
        frontier = CrawlFrontier()
        frontier.push(entry("http://a/"))
        assert frontier.has_seen("http://a/")
        assert not frontier.has_seen("http://b/")

    def test_invalid_limits_rejected(self) -> None:
        with pytest.raises(ValueError):
            CrawlFrontier(incoming_limit=0)


class TestBounds:
    def test_incoming_overflow_evicts_worst(self) -> None:
        frontier = CrawlFrontier(incoming_limit=3, outgoing_limit=3)
        for i in range(5):
            frontier.push(entry(f"http://x{i}/", priority=float(i)))
        assert frontier.evictions == 2
        popped = []
        while (e := frontier.pop()) is not None:
            popped.append(e.priority)
        # the two lowest-priority entries (0.0, 1.0) were evicted
        assert popped == [4.0, 3.0, 2.0]

    def test_pending_accounting(self) -> None:
        frontier = CrawlFrontier()
        frontier.push(entry("http://a/", topic="t1"))
        frontier.push(entry("http://b/", topic="t2"))
        assert pending_by_topic(frontier)["t1"] == 1
        assert pending_by_topic(frontier)["nope"] == 0
        assert len(frontier) == 2
        assert sorted(frontier.queues) == ["t1", "t2"]


class TestDnsPrefetch:
    def test_prefetch_called_on_refill(self) -> None:
        warmed: list[str] = []
        frontier = CrawlFrontier(prefetch=lambda url: warmed.append(url) or True)
        frontier.push(entry("http://a/"))
        frontier.pop()
        assert warmed == ["http://a/"]

    def test_unresolvable_urls_dropped(self) -> None:
        frontier = CrawlFrontier(prefetch=lambda url: "bad" not in url)
        frontier.push(entry("http://bad.example/"))
        frontier.push(entry("http://good.example/", priority=0.1))
        popped = frontier.pop()
        assert popped is not None
        assert popped.url == "http://good.example/"
        assert frontier.dns_drops == 1
        assert frontier.pop() is None

    def test_refill_batch_limits_prefetches(self) -> None:
        warmed: list[str] = []
        frontier = CrawlFrontier(
            refill_batch=2, prefetch=lambda url: warmed.append(url) or True
        )
        for i in range(10):
            frontier.push(entry(f"http://x{i}/"))
        frontier.pop()
        # one refill moved at most refill_batch URLs
        assert len(warmed) == 2


class _Clock:
    def __init__(self, now: float = 0.0) -> None:
        self.now = now


class TestDeferredEntries:
    def make(self, now: float = 0.0) -> tuple[CrawlFrontier, _Clock]:
        clock = _Clock(now)
        return CrawlFrontier(now=lambda: clock.now), clock

    def test_not_before_gates_pop(self) -> None:
        frontier, clock = self.make()
        frontier.push(
            QueueEntry(url="http://a/", topic="t", priority=9.0, depth=0,
                       not_before=10.0)
        )
        assert frontier.pop() is None
        assert frontier.next_ready_at() == 10.0
        clock.now = 10.0
        popped = frontier.pop()
        assert popped is not None and popped.url == "http://a/"
        assert frontier.next_ready_at() is None

    def test_high_priority_cannot_jump_the_clock(self) -> None:
        frontier, clock = self.make()
        frontier.push(entry("http://low/", priority=0.1))
        frontier.push(
            QueueEntry(url="http://hot/", topic="t", priority=99.0, depth=0,
                       not_before=5.0)
        )
        assert frontier.pop().url == "http://low/"
        assert frontier.pop() is None
        clock.now = 5.0
        assert frontier.pop().url == "http://hot/"

    def test_requeue_bypasses_seen_set(self) -> None:
        frontier, clock = self.make()
        first = entry("http://a/")
        assert frontier.push(first)
        popped = frontier.pop()
        assert not frontier.push(popped), "push is once-per-URL"
        frontier.requeue(popped)
        assert frontier.pop().url == "http://a/"

    def test_len_and_pending_include_deferred(self) -> None:
        frontier, _clock = self.make()
        frontier.push(entry("http://a/", topic="t1"))
        frontier.push(
            QueueEntry(url="http://b/", topic="t1", priority=1.0, depth=0,
                       not_before=60.0)
        )
        assert len(frontier) == 2
        assert pending_by_topic(frontier)["t1"] == 2

    def test_deferred_released_in_ready_order(self) -> None:
        frontier, clock = self.make()
        for i, ready in enumerate([30.0, 10.0, 20.0]):
            frontier.push(
                QueueEntry(url=f"http://x{i}/", topic="t", priority=1.0,
                           depth=0, not_before=ready)
            )
        clock.now = 15.0
        assert frontier.pop().url == "http://x1/"
        assert frontier.pop() is None
        clock.now = 30.0
        assert {frontier.pop().url, frontier.pop().url} == {
            "http://x0/", "http://x2/"
        }


class TestSnapshotRestore:
    def test_round_trip_preserves_pop_order(self) -> None:
        clock = _Clock(0.0)
        frontier = CrawlFrontier(now=lambda: clock.now)
        for i in range(8):
            frontier.push(
                entry(f"http://x{i}/", topic=f"t{i % 2}",
                      priority=float((i * 5) % 7))
            )
        frontier.push(
            QueueEntry(url="http://later/", topic="t0", priority=50.0,
                       depth=0, not_before=40.0)
        )
        frontier.pop()  # exercise refill/outgoing state before snapshot

        state = frontier.snapshot()
        restored = CrawlFrontier(now=lambda: clock.now)
        restored.restore(state)
        assert len(restored) == len(frontier)
        assert restored.has_seen("http://x0/")

        order_a, order_b = [], []
        clock.now = 40.0
        while (e := frontier.pop()) is not None:
            order_a.append(e.url)
        while (e := restored.pop()) is not None:
            order_b.append(e.url)
        assert order_a == order_b
        assert "http://later/" in order_a

    def test_snapshot_is_json_clean(self) -> None:
        import json

        frontier = CrawlFrontier()
        frontier.push(entry("http://a/"))
        blob = json.dumps(frontier.snapshot())
        restored = CrawlFrontier()
        restored.restore(json.loads(blob))
        assert restored.pop().url == "http://a/"

    def test_deferred_heap_round_trip_preserves_release_order(self) -> None:
        """A restored frontier releases and pops deferred entries in the
        exact original order -- including ``not_before`` ties, whose
        order is carried by the heap's admission sequence numbers."""
        clock = _Clock(0.0)
        frontier = CrawlFrontier(now=lambda: clock.now)
        # three tie groups, interleaved admissions, mixed priorities:
        # within a released batch pops go by priority, and the snapshot
        # must not perturb either ordering
        ready_ats = [20.0, 10.0, 20.0, 10.0, 30.0, 10.0, 20.0, 30.0]
        for i, ready in enumerate(ready_ats):
            frontier.push(
                QueueEntry(url=f"http://d{i}/", topic="t",
                           priority=float(i % 3), depth=0,
                           not_before=ready)
            )
        frontier.push(entry("http://ready/", priority=0.5))
        assert frontier.deferred_total == len(ready_ats)

        state = frontier.snapshot()
        restored = CrawlFrontier(now=lambda: clock.now)
        restored.restore(state)
        assert pending_by_topic(restored) == pending_by_topic(frontier)
        assert restored.next_ready_at() == frontier.next_ready_at() == 10.0

        order_a, order_b = [], []
        for now in (10.0, 20.0, 30.0):
            clock.now = now
            while (e := frontier.pop()) is not None:
                order_a.append(e.url)
            while (e := restored.pop()) is not None:
                order_b.append(e.url)
        assert order_b == order_a
        assert len(order_a) == len(ready_ats) + 1
        assert restored.stats() == frontier.stats()

    def test_mid_release_snapshot_keeps_remaining_deferred_order(self) -> None:
        """Snapshotting after *some* deferred entries were released must
        keep the not-yet-released remainder (and the sequence counter)
        intact, so later releases tie-break identically."""
        clock = _Clock(0.0)
        frontier = CrawlFrontier(now=lambda: clock.now)
        for i in range(6):
            frontier.push(
                QueueEntry(url=f"http://d{i}/", topic="t", priority=1.0,
                           depth=0, not_before=10.0 * (1 + i % 2))
            )
        clock.now = 10.0
        first = frontier.pop()  # releases the 10.0 group
        assert first is not None

        state = frontier.snapshot()
        restored = CrawlFrontier(now=lambda: clock.now)
        restored.restore(state)
        assert restored._sequence == frontier._sequence

        clock.now = 20.0
        remaining_a, remaining_b = [], []
        while (e := frontier.pop()) is not None:
            remaining_a.append(e.url)
        while (e := restored.pop()) is not None:
            remaining_b.append(e.url)
        assert remaining_b == remaining_a


class TestStatsProtocol:
    def test_stats_keys_are_snake_case_floats(self) -> None:
        clock = _Clock(0.0)
        frontier = CrawlFrontier(now=lambda: clock.now)
        frontier.push(entry("http://a/"))
        frontier.push(entry("http://a/"))  # duplicate
        frontier.push(
            QueueEntry(url="http://b/", topic="t", priority=1.0, depth=0,
                       not_before=99.0)
        )
        stats = frontier.stats()
        assert stats == {
            "size": 2.0,
            "enqueued": 2.0,
            "duplicate_drops": 1.0,
            "evictions": 0.0,
            "dns_drops": 0.0,
            "deferred_total": 1.0,
        }
        assert all(isinstance(v, float) for v in stats.values())
        assert not hasattr(frontier, "counters"), (
            "the counters() integer alias was removed; use stats()"
        )


class TestDeferredCounts:
    """Per-topic pending counts, deferred entries included."""

    def test_counts_track_admission_release_and_restore(self) -> None:
        clock = _Clock(0.0)
        frontier = CrawlFrontier(now=lambda: clock.now)
        for i in range(4):
            frontier.push(
                QueueEntry(url=f"http://a{i}/", topic="t1", priority=1.0,
                           depth=0, not_before=10.0)
            )
        frontier.push(
            QueueEntry(url="http://b/", topic="t2", priority=1.0, depth=0,
                       not_before=20.0)
        )
        frontier.push(entry("http://now/", topic="t1"))
        assert pending_by_topic(frontier) == {"t1": 5, "t2": 1}

        clock.now = 10.0
        for _ in range(5):  # the four released plus the ready one
            assert frontier.pop() is not None
        assert +pending_by_topic(frontier) == {"t2": 1}

        state = frontier.snapshot()
        restored = CrawlFrontier(now=lambda: clock.now)
        restored.restore(state)
        assert +pending_by_topic(restored) == {"t2": 1}
