"""Model-based property tests for the crawl frontier."""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.frontier import CrawlFrontier, QueueEntry


entries = st.lists(
    st.tuples(
        st.integers(0, 400),                       # url id
        st.floats(0, 10, allow_nan=False),          # priority
        st.sampled_from(["t1", "t2", "t3"]),        # topic
    ),
    max_size=120,
)


@given(entries)
@settings(max_examples=60, deadline=None)
def test_pop_order_matches_reference_model(items) -> None:
    """Frontier pops are globally priority-ordered; duplicates dropped."""
    frontier = CrawlFrontier()
    reference: dict[str, tuple[float, int]] = {}
    for order, (url_id, priority, topic) in enumerate(items):
        url = f"http://h/{url_id}"
        accepted = frontier.push(
            QueueEntry(url=url, topic=topic, priority=priority, depth=0)
        )
        if url in reference:
            assert not accepted
        else:
            assert accepted
            reference[url] = (priority, -order)
    popped = []
    while (entry := frontier.pop()) is not None:
        popped.append(entry)
    assert len(popped) == len(reference)
    # priorities weakly decrease and FIFO breaks ties
    keys = [reference[e.url] for e in popped]
    assert keys == sorted(keys, reverse=True)


@given(entries, st.integers(1, 10), st.integers(1, 10))
@settings(max_examples=40, deadline=None)
def test_bounded_queues_never_exceed_limits(items, incoming, outgoing) -> None:
    if incoming < outgoing:
        incoming, outgoing = outgoing, incoming
    frontier = CrawlFrontier(
        incoming_limit=incoming, outgoing_limit=outgoing
    )
    for url_id, priority, topic in items:
        frontier.push(
            QueueEntry(
                url=f"http://h/{url_id}", topic=topic,
                priority=priority, depth=0,
            )
        )
        for queues in frontier.queues.values():
            assert len(queues.incoming) <= incoming
            assert len(queues.outgoing) <= outgoing
    drained = 0
    while frontier.pop() is not None:
        drained += 1
    assert drained <= len(items)
