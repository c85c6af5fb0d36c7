"""The frontier against a naive model.

``ModelFrontier`` is paper section 4.2 written the obvious way: plain
lists and ``sorted``/``max``/``min``.  A hypothesis state machine drives
it and the real frontier through the same pushes, requeues, pops, clock
advances and snapshot/restore cycles, and after every step compares
every observable: the popped entry, ``stats()``, ``len``, the pending
count of each topic (read from ``snapshot()``), ``next_ready_at`` and
the seen-set.  Any
queue decision (deferred release, refill gate, refill order and caps,
eviction victim, best-outgoing pop) that strays from the model fails
the comparison.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    rule,
)

from repro.core.frontier import CrawlFrontier, QueueEntry
from repro.errors import StorageError
from repro.shard import ShardedFrontier

from tests.core.conftest import pending_by_topic

TOPICS = ("t0", "t1", "t2")
HOSTS = tuple(f"h{i}.site{i}.example" for i in range(6))
UNRESOLVABLE = HOSTS[4]
COUNTERS = (
    "enqueued", "duplicate_drops", "evictions", "dns_drops", "deferred_total",
)


def resolvable(url: str) -> bool:
    return UNRESOLVABLE not in url


class ModelFrontier:
    """Per-topic incoming/outgoing lists and one deferred list."""

    def __init__(self, incoming_limit, outgoing_limit, refill_batch, clock):
        self.incoming_limit = incoming_limit
        self.outgoing_limit = outgoing_limit
        self.refill_batch = refill_batch
        self.clock = clock
        self.incoming: dict[str, list] = {}  # topic -> [(key, entry)]
        self.outgoing: dict[str, list] = {}
        self.deferred: list = []  # (not_before, sequence, entry)
        self.seen: set[str] = set()
        self.sequence = 0
        self.counters = dict.fromkeys(COUNTERS, 0)

    def push(self, entry) -> bool:
        if entry.url in self.seen:
            self.counters["duplicate_drops"] += 1
            return False
        self.requeue(entry)
        self.counters["enqueued"] += 1
        return True

    def requeue(self, entry) -> None:
        self.seen.add(entry.url)
        if entry.not_before > self.clock["now"]:
            self.sequence += 1
            self.deferred.append((entry.not_before, self.sequence, entry))
            self.counters["deferred_total"] += 1
        else:
            self._insert(entry)

    def _insert(self, entry) -> None:
        self.sequence += 1  # admissions and releases both draw a fresh one
        incoming = self.incoming.setdefault(entry.topic, [])
        self.outgoing.setdefault(entry.topic, [])
        incoming.append(((entry.priority, -self.sequence), entry))
        if len(incoming) > self.incoming_limit:
            incoming.remove(min(incoming, key=lambda item: item[0]))
            self.counters["evictions"] += 1

    def pop(self):
        due = sorted(
            (item for item in self.deferred
             if item[0] <= self.clock["now"]),
            key=lambda item: item[:2],
        )
        for item in due:
            self.deferred.remove(item)
            self._insert(item[2])
        best = None
        for topic, incoming in self.incoming.items():
            outgoing = self.outgoing[topic]
            if not outgoing:
                moved = 0
                while (
                    incoming
                    and len(outgoing) < self.outgoing_limit
                    and moved < self.refill_batch
                ):
                    item = max(incoming, key=lambda item: item[0])
                    incoming.remove(item)
                    if not resolvable(item[1].url):
                        self.counters["dns_drops"] += 1
                        continue
                    outgoing.append(item)
                    moved += 1
            if outgoing:
                top = max(outgoing, key=lambda item: item[0])
                if best is None or top[0] > best[1][0]:
                    best = (outgoing, top)
        if best is None:
            return None
        best[0].remove(best[1])
        return best[1][1]

    def next_ready_at(self):
        return min((item[0] for item in self.deferred), default=None)

    def pending_for(self, topic) -> int:
        return (
            len(self.incoming.get(topic, ()))
            + len(self.outgoing.get(topic, ()))
            + sum(1 for item in self.deferred if item[2].topic == topic)
        )

    def __len__(self) -> int:
        return sum(self.pending_for(topic) for topic in TOPICS)

    def stats(self) -> dict[str, float]:
        return {
            "size": float(len(self)),
            **{name: float(value) for name, value in self.counters.items()},
        }


def build_real(limits: dict, clock: dict) -> CrawlFrontier:
    return CrawlFrontier(
        **limits, prefetch=resolvable, now=lambda: clock["now"]
    )


entries = st.tuples(
    st.sampled_from(HOSTS), st.integers(0, 5), st.sampled_from(TOPICS),
    # few distinct priorities, so FIFO tie-breaking is exercised
    st.sampled_from((0.0, 0.5, 1.0, 2.0)),
    st.sampled_from((0.0, 0.0, 3.0, 7.0)),
)


class FrontierMachine(RuleBasedStateMachine):
    @initialize(
        incoming=st.integers(2, 6), outgoing=st.integers(1, 4),
        batch=st.integers(1, 4),
    )
    def build(self, incoming, outgoing, batch) -> None:
        self.clock = {"now": 0.0}
        self.limits = dict(
            incoming_limit=incoming, outgoing_limit=outgoing,
            refill_batch=batch,
        )
        self.model = ModelFrontier(incoming, outgoing, batch, self.clock)
        self.real = build_real(self.limits, self.clock)

    def entry(self, spec) -> QueueEntry:
        host, page, topic, priority, delay = spec
        return QueueEntry(
            url=f"http://{host}/p{page}", topic=topic, priority=priority,
            depth=page, not_before=self.clock["now"] + delay if delay else 0.0,
        )

    @rule(spec=entries)
    def push(self, spec) -> None:
        entry = self.entry(spec)
        assert self.real.push(entry) == self.model.push(entry)

    @rule(spec=entries)
    def requeue(self, spec) -> None:
        entry = self.entry(spec)
        self.real.requeue(entry)
        self.model.requeue(entry)

    @rule()
    def pop(self) -> None:
        assert self.real.pop() == self.model.pop()

    @rule(seconds=st.sampled_from((1.0, 3.0, 10.0)))
    def advance_clock(self, seconds) -> None:
        self.clock["now"] += seconds

    @rule()
    def snapshot_restore_into_fresh(self) -> None:
        image = json.loads(json.dumps(self.real.snapshot()))
        self.real = build_real(self.limits, self.clock)
        self.real.restore(image)

    @invariant()
    def observables_agree(self) -> None:
        assert self.real.stats() == self.model.stats()
        assert len(self.real) == len(self.model)
        assert self.real.next_ready_at() == self.model.next_ready_at()
        pending = pending_by_topic(self.real)
        for topic in TOPICS:
            assert pending[topic] == self.model.pending_for(topic)
        assert self.real.seen_urls == self.model.seen


FrontierMachine.TestCase.settings = settings(
    max_examples=60, stateful_step_count=60, deadline=None
)
TestFrontierMachine = FrontierMachine.TestCase


# -- the snapshot format -----------------------------------------------------


def _loaded(frontier: CrawlFrontier) -> CrawlFrontier:
    for i in range(4):
        frontier.push(
            QueueEntry(
                url=f"http://{HOSTS[i]}/p", topic="t0", priority=float(i),
                depth=0,
            )
        )
    return frontier


#: what ``snapshot()`` returned before the one-store format: the flat
#: single-frontier image and the per-worker composite without a marker
#: (format 1), and the marked composite of one store per worker (2)
_OLD_SINGLE = {
    "sequence": 1, "enqueued": 1, "duplicate_drops": 0, "evictions": 0,
    "dns_drops": 0, "deferred_total": 0, "seen_urls": ["http://h/p"],
    "queues": {"t0": {"incoming": [], "outgoing": []}}, "deferred": [],
}
_OLD_SHARDED = {
    "workers": 1, "sequence": 1, "topic_order": ["t0"],
    "shards": [_OLD_SINGLE],
}
_PER_WORKER = {
    "format": 2, "sequence": 1, "topics": ["t0"],
    "shards": [{k: v for k, v in _OLD_SINGLE.items() if k != "sequence"}],
}


@pytest.mark.parametrize("image", [_OLD_SINGLE, _OLD_SHARDED, _PER_WORKER])
@pytest.mark.parametrize("fresh", [CrawlFrontier, lambda: ShardedFrontier()])
def test_pre_composite_image_is_refused(image, fresh) -> None:
    frontier = _loaded(fresh())
    before = frontier.snapshot()
    with pytest.raises(StorageError, match="must be retaken"):
        frontier.restore(image)
    assert frontier.snapshot() == before


def test_per_shard_coordination_keywords_stay_gone() -> None:
    with pytest.raises(TypeError):
        CrawlFrontier(managed=True)
    with pytest.raises(TypeError):
        CrawlFrontier(sequence=object())
    # the frontier is one store at every worker count
    with pytest.raises(TypeError):
        CrawlFrontier(**{"shards": 3})
    with pytest.raises(TypeError):
        CrawlFrontier(**{"route": lambda url: 0})
