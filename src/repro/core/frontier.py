"""The crawl frontier: per-topic incoming/outgoing priority queues.

Paper section 4.2: "the queue manager maintains several queues, one
(large) incoming and one (small) outgoing queue for each topic,
implemented as Red-Black trees. ... The engine controls the sizes of
queues and starts the asynchronous DNS resolution for a small number of
the best incoming links when the outgoing queue is not sufficiently
filled.  So expensive DNS lookups are initiated only for promising crawl
candidates."

Here each queue is a list of ``(key, entry)`` pairs kept in ascending
key order with :func:`bisect.insort`: the best entry is the last one
(``pop``), the worst the first (eviction).  Keys are unique, so two
entries are never compared.  The queues of the shipped workloads stay
within a few thousand entries, where a sorted list is cheaper than a
balanced tree (DESIGN.md, E9).

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
from bisect import insort
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.errors import StorageError

__all__ = ["QueueEntry", "CrawlFrontier"]

SNAPSHOT_FORMAT = 3
"""Marker of the one-store :meth:`CrawlFrontier.snapshot` shape; format
2 held one store per worker, format 1 was unmarked."""

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


Queue = list[tuple[Key, QueueEntry]]
"""``(key, entry)`` pairs in ascending key order: best last."""


@dataclass
class _TopicQueues:
    incoming: Queue = field(default_factory=list)
    outgoing: Queue = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.incoming) + len(self.outgoing)


def _queue_image(queue: Queue) -> list[list[Any]]:
    return [[list(key), entry.to_dict()] for key, entry in queue]


def _queue_from(image: list[list[Any]]) -> Queue:
    """Sorted on the key alone, so an out-of-order image (or one with a
    repeated key) still loads without comparing entries."""
    return sorted(
        (
            ((key[0], key[1]), QueueEntry.from_dict(entry))
            for key, entry in image
        ),
        key=lambda pair: pair[0],
    )


_COUNTERS = (
    "enqueued", "duplicate_drops", "evictions", "dns_drops", "deferred_total",
)


class CrawlFrontier:
    """Bounded, prioritised, DNS-prefetching, time-aware URL frontier."""

    def __init__(
        self,
        incoming_limit: int = 25_000,
        outgoing_limit: int = 1_000,
        refill_batch: int = 50,
        prefetch: Callable[[str], bool] | None = None,
        now: Callable[[], float] | None = None,
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
        self.queues: dict[str, _TopicQueues] = {}
        """Each topic's queues, in the order the topics first received
        an incoming entry (``pop`` breaks cross-topic key ties in
        favour of the earlier topic)."""
        self.seen_urls: set[str] = set()
        """Every URL ever admitted."""
        self.deferred: list[tuple[float, int, QueueEntry]] = []
        """Heap of ``(not_before, sequence, entry)``."""
        self.enqueued = 0
        self.duplicate_drops = 0
        self.evictions = 0
        self.dns_drops = 0
        self.deferred_total = 0
        self._sequence = 0
        """Last admission number drawn; every admission and every
        deferred release draws a fresh one."""

    # -- write side ---------------------------------------------------------

    def push(self, entry: QueueEntry) -> bool:
        """Admit a URL; returns False for URLs already seen (or evicted)."""
        if entry.url in self.seen_urls:
            self.duplicate_drops += 1
            return False
        self.seen_urls.add(entry.url)
        self._admit(entry)
        self.enqueued += 1
        return True

    def requeue(self, entry: QueueEntry) -> None:
        """Re-admit an already-seen entry (retry / breaker deferral).

        Bypasses the seen-set so a URL popped for fetching can come back
        -- typically with a bumped ``attempt``/``deferrals`` count and a
        ``not_before`` timestamp the frontier will respect.
        """
        self.seen_urls.add(entry.url)
        self._admit(entry)

    def _admit(self, entry: QueueEntry) -> None:
        if entry.not_before > self.now():
            self._sequence += 1
            heapq.heappush(
                self.deferred, (entry.not_before, self._sequence, entry)
            )
            self.deferred_total += 1
            return
        self._insert_incoming(entry)

    def _insert_incoming(self, entry: QueueEntry) -> None:
        """Insert under a fresh ``(priority, -sequence)`` key; past the
        topic's incoming limit evict its worst candidate."""
        queues = self.queues.get(entry.topic)
        if queues is None:
            queues = self.queues[entry.topic] = _TopicQueues()
        self._sequence += 1
        insort(queues.incoming, ((entry.priority, -self._sequence), entry))
        if len(queues.incoming) > self.incoming_limit:
            del queues.incoming[0]
            self.evictions += 1

    # -- read side ----------------------------------------------------------

    def _release_ready(self) -> None:
        """Move deferred entries whose time has come into the queues."""
        now = self.now()
        while self.deferred and self.deferred[0][0] <= now:
            self._insert_incoming(heapq.heappop(self.deferred)[2])

    def _refill(self, queues: _TopicQueues) -> None:
        """Move a topic's best incoming links to outgoing, prefetching
        DNS in that order.  Only called with the topic's outgoing queue
        empty, so it appends best-first and reverses once."""
        incoming, outgoing = queues.incoming, queues.outgoing
        limit = min(self.refill_batch, self.outgoing_limit)
        while len(outgoing) < limit and incoming:
            pair = incoming.pop()
            if self.prefetch is not None and not self.prefetch(pair[1].url):
                self.dns_drops += 1
                continue
            outgoing.append(pair)
        outgoing.reverse()

    def pop(self) -> QueueEntry | None:
        """The globally best *ready* URL across topics, or None.

        None can mean "empty" or "everything still deferred" -- check
        :meth:`next_ready_at` to distinguish (the crawl loop advances
        the clock there and retries).
        """
        self._release_ready()
        best: Queue | None = None
        best_key: Key | None = None
        for queues in self.queues.values():
            if not queues.outgoing:
                self._refill(queues)
                if not queues.outgoing:
                    continue
            key = queues.outgoing[-1][0]
            if best_key is None or key > best_key:
                best_key = key
                best = queues.outgoing
        if best is None:
            return None
        return best.pop()[1]

    def next_ready_at(self) -> float | None:
        """Earliest ``not_before`` among deferred entries, or None."""
        return self.deferred[0][0] if self.deferred else None

    # -- introspection -------------------------------------------------------

    def __len__(self) -> int:
        return sum(map(len, self.queues.values())) + len(self.deferred)

    def has_seen(self, url: str) -> bool:
        return url in self.seen_urls

    def stats(self) -> dict[str, float]:
        """Admission statistics (the obs ``Instrumented`` protocol)."""
        out = {"size": float(len(self))}
        for name in _COUNTERS:
            out[name] = float(getattr(self, name))
        return out

    # -- checkpoint -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """Serializable image of the full frontier state.

        Queue keys are stored verbatim so the restored frontier pops in
        exactly the original order (priority ties break by sequence),
        and so is the topic order ``pop`` breaks cross-topic ties by.
        """
        state: dict[str, Any] = {
            "format": SNAPSHOT_FORMAT,
            "sequence": self._sequence,
            "topics": list(self.queues),
            "seen_urls": sorted(self.seen_urls),
            "queues": {
                topic: {
                    "incoming": _queue_image(queues.incoming),
                    "outgoing": _queue_image(queues.outgoing),
                }
                for topic, queues in self.queues.items()
            },
            "deferred": [
                [ready_at, sequence, entry.to_dict()]
                for ready_at, sequence, entry in sorted(self.deferred)
            ],
        }
        for name in _COUNTERS:
            state[name] = getattr(self, name)
        return state

    def check_image(self, state: dict[str, Any]) -> None:
        """Raise unless ``state`` is an image :meth:`restore` accepts."""
        if state.get("format") != SNAPSHOT_FORMAT:
            raise StorageError(
                f"frontier image has format {state.get('format')!r}, this "
                f"reader takes only {SNAPSHOT_FORMAT}: the checkpoint "
                "predates the one-store frontier and must be retaken"
            )

    def restore(self, state: dict[str, Any]) -> None:
        """Rebuild the frontier from a :meth:`snapshot` image."""
        self.check_image(state)
        for name in _COUNTERS:
            setattr(self, name, state[name])
        self._sequence = state["sequence"]
        self.seen_urls = set(state["seen_urls"])
        self.queues = {
            topic: _TopicQueues(
                _queue_from(state["queues"][topic]["incoming"]),
                _queue_from(state["queues"][topic]["outgoing"]),
            )
            for topic in state["topics"]
        }
        self.deferred = [
            (ready_at, sequence, QueueEntry.from_dict(entry))
            for ready_at, sequence, entry in state["deferred"]
        ]
        heapq.heapify(self.deferred)
