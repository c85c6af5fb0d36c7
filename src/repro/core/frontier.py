"""The crawl frontier: per-topic incoming/outgoing queues on RB trees.

Paper section 4.2: "the queue manager maintains several queues, one
(large) incoming and one (small) outgoing queue for each topic,
implemented as Red-Black trees. ... The engine controls the sizes of
queues and starts the asynchronous DNS resolution for a small number of
the best incoming links when the outgoing queue is not sufficiently
filled.  So expensive DNS lookups are initiated only for promising crawl
candidates."

URLs are prioritised by SVM confidence; tunnelled links decay by a
constant factor per tunnelling step.  Bounded queues evict their *worst*
entry on overflow.  A URL is admitted to the frontier at most once --
except through :meth:`CrawlFrontier.requeue`, which re-admits an entry
the crawler popped but could not fetch (backoff retries, quarantined or
cooling-down hosts).

Entries may carry a ``not_before`` timestamp: the frontier parks them
on a deferred heap and only releases them into the topic queues once
the clock (the ``now`` callable) has caught up.  This is what makes
retry backoff and host quarantines *scheduling* decisions instead of
priority hacks -- a deferred URL cannot be popped early no matter how
good its priority is.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.core.rbtree import RedBlackTree
from repro.errors import StorageError

__all__ = ["QueueEntry", "FrontierShard", "CrawlFrontier"]

SNAPSHOT_FORMAT = 2
"""Marker of the composite :meth:`CrawlFrontier.snapshot` shape; format
1 was the unmarked pair of single-frontier / per-worker images."""

Key = tuple[float, int]
"""``(priority, -sequence)``: priority ties break FIFO."""


@dataclass(frozen=True)
class QueueEntry:
    """One URL waiting to be crawled."""

    url: str
    topic: str
    priority: float
    depth: int
    tunnelled: int = 0
    """Consecutive link steps taken from a *rejected* document."""
    referrer_doc_id: int | None = None
    attempt: int = 0
    """Fetch retries already spent on this URL (0 on first admission)."""
    not_before: float = 0.0
    """Earliest simulated time this entry may be popped."""
    deferrals: int = 0
    """Times a circuit breaker pushed this entry back into the frontier."""

    def to_dict(self) -> dict[str, Any]:
        return {
            "url": self.url,
            "topic": self.topic,
            "priority": self.priority,
            "depth": self.depth,
            "tunnelled": self.tunnelled,
            "referrer_doc_id": self.referrer_doc_id,
            "attempt": self.attempt,
            "not_before": self.not_before,
            "deferrals": self.deferrals,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "QueueEntry":
        return cls(**data)


@dataclass
class _TopicQueues:
    incoming: RedBlackTree = field(default_factory=RedBlackTree)
    outgoing: RedBlackTree = field(default_factory=RedBlackTree)

    def __len__(self) -> int:
        return len(self.incoming) + len(self.outgoing)


def _tree_image(tree: RedBlackTree) -> list[list[Any]]:
    return [
        [list(key), entry.to_dict()] for key, entry in tree.items_in_order()
    ]


def _tree_from(image: list[list[Any]]) -> RedBlackTree:
    tree = RedBlackTree()
    for key, entry in image:
        tree.insert(tuple(key), QueueEntry.from_dict(entry))
    return tree


_COUNTERS = (
    "enqueued", "duplicate_drops", "evictions", "dns_drops", "deferred_total",
)


class FrontierShard:
    """The entries, seen-set and admission counters of one shard's URLs.

    Pure storage: *where* an entry lives.  Every decision about it
    (release, refill, eviction, pop) is made by the owning
    :class:`CrawlFrontier` across all its shards.
    """

    def __init__(self) -> None:
        self.queues: dict[str, _TopicQueues] = {}
        self.seen_urls: set[str] = set()
        self.deferred: list[tuple[float, int, QueueEntry]] = []
        """Heap of ``(not_before, sequence, entry)``."""
        self.enqueued = 0
        self.duplicate_drops = 0
        self.evictions = 0
        self.dns_drops = 0
        self.deferred_total = 0

    def __len__(self) -> int:
        return sum(map(len, self.queues.values())) + len(self.deferred)

    def snapshot(self) -> dict[str, Any]:
        state: dict[str, Any] = {
            name: getattr(self, name) for name in _COUNTERS
        }
        state["seen_urls"] = sorted(self.seen_urls)
        state["queues"] = {
            topic: {
                "incoming": _tree_image(queues.incoming),
                "outgoing": _tree_image(queues.outgoing),
            }
            for topic, queues in self.queues.items()
        }
        state["deferred"] = [
            [ready_at, sequence, entry.to_dict()]
            for ready_at, sequence, entry in sorted(self.deferred)
        ]
        return state

    def restore(self, state: dict[str, Any]) -> None:
        for name in _COUNTERS:
            setattr(self, name, state[name])
        self.seen_urls = set(state["seen_urls"])
        self.queues = {
            topic: _TopicQueues(
                _tree_from(image["incoming"]), _tree_from(image["outgoing"])
            )
            for topic, image in state["queues"].items()
        }
        self.deferred = [
            (ready_at, sequence, QueueEntry.from_dict(entry))
            for ready_at, sequence, entry in state["deferred"]
        ]
        heapq.heapify(self.deferred)


class CrawlFrontier:
    """Bounded, prioritised, DNS-prefetching, time-aware URL frontier.

    The entries live in ``shards`` stores and ``route(url)`` names the
    store of a URL (one store and a constant route by default; the
    sharded runtime passes its worker count and host router).  Routing
    only chooses where an entry is held: sequence numbers, deferred
    release, refill, eviction and pop all read across every store, so
    the pop order does not depend on the number of stores.
    """

    def __init__(
        self,
        incoming_limit: int = 25_000,
        outgoing_limit: int = 1_000,
        refill_batch: int = 50,
        prefetch: Callable[[str], bool] | None = None,
        now: Callable[[], float] | None = None,
        shards: int = 1,
        route: Callable[[str], int] | None = None,
    ) -> None:
        """``prefetch(url) -> bool`` warms the DNS cache for a promising
        candidate; returning False drops the URL (unresolvable host).
        ``now()`` supplies the simulated time that gates deferred
        entries; without it every entry is considered ready.
        """
        if incoming_limit < 1 or outgoing_limit < 1 or refill_batch < 1:
            raise ValueError("queue limits and refill batch must be >= 1")
        self.incoming_limit = incoming_limit
        self.outgoing_limit = outgoing_limit
        self.refill_batch = refill_batch
        self.prefetch = prefetch
        self.now = now or (lambda: float("inf"))
        self.shards = [FrontierShard() for _ in range(shards)]
        self._route = route or (lambda url: 0)
        self._sequence = 0
        """Last admission number drawn; every admission and every
        deferred release draws a fresh one."""
        self._topics: dict[str, list[_TopicQueues]] = {}
        """Each topic's queues in every shard, in the order the topics
        first received an incoming entry (``pop`` breaks cross-topic
        key ties in favour of the earlier topic)."""
        self._deferred_counts: dict[str, int] = {}

    # -- write side ---------------------------------------------------------

    def push(self, entry: QueueEntry) -> bool:
        """Admit a URL; returns False for URLs already seen (or evicted)."""
        shard = self.shards[self._route(entry.url)]
        if entry.url in shard.seen_urls:
            shard.duplicate_drops += 1
            return False
        shard.seen_urls.add(entry.url)
        self._admit(shard, entry)
        shard.enqueued += 1
        return True

    def requeue(self, entry: QueueEntry) -> None:
        """Re-admit an already-seen entry (retry / breaker deferral).

        Bypasses the seen-set so a URL popped for fetching can come back
        -- typically with a bumped ``attempt``/``deferrals`` count and a
        ``not_before`` timestamp the frontier will respect.
        """
        shard = self.shards[self._route(entry.url)]
        shard.seen_urls.add(entry.url)
        self._admit(shard, entry)

    def _admit(self, shard: FrontierShard, entry: QueueEntry) -> None:
        if entry.not_before > self.now():
            self._sequence += 1
            heapq.heappush(
                shard.deferred, (entry.not_before, self._sequence, entry)
            )
            shard.deferred_total += 1
            self._deferred_counts[entry.topic] = (
                self._deferred_counts.get(entry.topic, 0) + 1
            )
            return
        self._insert_incoming(shard, entry)

    def _insert_incoming(
        self, shard: FrontierShard, entry: QueueEntry
    ) -> None:
        """Insert under a fresh ``(priority, -sequence)`` key; past the
        topic's incoming limit evict its worst candidate, wherever it
        is held."""
        topic = entry.topic
        per_shard = self._topics.get(topic)
        if per_shard is None:
            per_shard = self._topics[topic] = [
                s.queues.setdefault(topic, _TopicQueues())
                for s in self.shards
            ]
        self._sequence += 1
        shard.queues[topic].incoming.insert(
            (entry.priority, -self._sequence), entry
        )
        if sum(len(q.incoming) for q in per_shard) > self.incoming_limit:
            holder = min(
                (q.incoming for q in per_shard if q.incoming),
                key=lambda tree: tree.peek_min()[0],
            )
            _key, victim = holder.pop_min()
            self.shards[self._route(victim.url)].evictions += 1

    # -- read side ----------------------------------------------------------

    def _earliest_deferred(self) -> FrontierShard | None:
        """The shard holding the earliest ``(not_before, sequence)``."""
        return min(
            (shard for shard in self.shards if shard.deferred),
            key=lambda shard: shard.deferred[0][:2],
            default=None,
        )

    def _release_ready(self) -> None:
        """Move deferred entries whose time has come into the queues."""
        now = self.now()
        while True:
            shard = self._earliest_deferred()
            if shard is None or shard.deferred[0][0] > now:
                return
            entry = heapq.heappop(shard.deferred)[2]
            self._deferred_counts[entry.topic] -= 1
            self._insert_incoming(shard, entry)

    def _refill(self, per_shard: list[_TopicQueues]) -> None:
        """Move a topic's best incoming links to outgoing, prefetching
        DNS in that order.  Only called with the topic's outgoing
        queues empty, so entries moved == entries outgoing."""
        moved = 0
        limit = min(self.refill_batch, self.outgoing_limit)
        while moved < limit:
            queues = max(
                (q for q in per_shard if q.incoming),
                key=lambda q: q.incoming.peek_max()[0],
                default=None,
            )
            if queues is None:
                return
            key, entry = queues.incoming.pop_max()
            if self.prefetch is not None and not self.prefetch(entry.url):
                self.shards[self._route(entry.url)].dns_drops += 1
                continue
            queues.outgoing.insert(key, entry)
            moved += 1

    def pop(self) -> QueueEntry | None:
        """The globally best *ready* URL across topics, or None.

        None can mean "empty" or "everything still deferred" -- check
        :meth:`next_ready_at` to distinguish (the crawl loop advances
        the clock there and retries).
        """
        self._release_ready()
        best: RedBlackTree | None = None
        best_key: Key | None = None
        for per_shard in self._topics.values():
            if not any(q.outgoing for q in per_shard):
                self._refill(per_shard)
            for queues in per_shard:
                if not queues.outgoing:
                    continue
                key = queues.outgoing.peek_max()[0]
                if best_key is None or key > best_key:
                    best_key = key
                    best = queues.outgoing
        if best is None:
            return None
        entry: QueueEntry = best.pop_max()[1]
        return entry

    def next_ready_at(self) -> float | None:
        """Earliest ``not_before`` among deferred entries, or None."""
        shard = self._earliest_deferred()
        return shard.deferred[0][0] if shard is not None else None

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self.shards))

    def pending_for(self, topic: str) -> int:
        # deferred entries are tallied per topic on admission/release,
        # so this stays O(shards) instead of scanning the deferred
        # heaps -- it runs on every pop retry
        return self._deferred_counts.get(topic, 0) + sum(
            map(len, self._topics.get(topic, ()))
        )

    def has_seen(self, url: str) -> bool:
        return url in self.shards[self._route(url)].seen_urls

    @property
    def seen_urls(self) -> set[str]:
        """Every URL ever admitted (the union of the shards' sets)."""
        return set().union(*(shard.seen_urls for shard in self.shards))

    def _total(self, counter: str) -> int:
        return sum(getattr(shard, counter) for shard in self.shards)

    @property
    def enqueued(self) -> int:
        return self._total("enqueued")

    @property
    def duplicate_drops(self) -> int:
        return self._total("duplicate_drops")

    @property
    def evictions(self) -> int:
        return self._total("evictions")

    @property
    def dns_drops(self) -> int:
        return self._total("dns_drops")

    @property
    def deferred_total(self) -> int:
        return self._total("deferred_total")

    def stats(self) -> dict[str, float]:
        """Admission statistics (the obs ``Instrumented`` protocol)."""
        out = {"size": float(len(self))}
        for name in _COUNTERS:
            out[name] = float(self._total(name))
        return out

    @property
    def topics(self) -> list[str]:
        return sorted(self._topics)

    # -- checkpoint -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Serializable image of the full frontier state.

        Tree keys are stored verbatim so the restored frontier pops in
        exactly the original order (priority ties break by sequence),
        and so is the topic order ``pop`` breaks cross-topic ties by.
        """
        return {
            "format": SNAPSHOT_FORMAT,
            "sequence": self._sequence,
            "topics": list(self._topics),
            "shards": [shard.snapshot() for shard in self.shards],
        }

    def check_image(self, state: dict[str, Any]) -> None:
        """Raise unless ``state`` is an image :meth:`restore` accepts."""
        if state.get("format") != SNAPSHOT_FORMAT:
            raise StorageError(
                f"frontier image has format {state.get('format')!r}, this "
                f"reader takes only {SNAPSHOT_FORMAT}: the checkpoint "
                "predates the composite frontier and must be retaken"
            )
        if len(state["shards"]) != len(self.shards):
            raise ValueError(
                f"checkpoint has {len(state['shards'])} frontier shards, "
                f"this context has {len(self.shards)} -- resume with the "
                "same crawl_workers"
            )

    def restore(self, state: dict[str, Any]) -> None:
        """Rebuild the frontier from a :meth:`snapshot` image."""
        self.check_image(state)
        for shard, shard_state in zip(self.shards, state["shards"]):
            shard.restore(shard_state)
        self._sequence = state["sequence"]
        self._topics = {
            topic: [shard.queues[topic] for shard in self.shards]
            for topic in state["topics"]
        }
        self._deferred_counts = {}
        for shard in self.shards:
            for _ready_at, _sequence, entry in shard.deferred:
                self._deferred_counts[entry.topic] = (
                    self._deferred_counts.get(entry.topic, 0) + 1
                )
