"""Shared engine configuration for crawler/engine integration tests."""

from __future__ import annotations

from collections import Counter

from repro.core import BingoConfig


def fast_engine_config(**overrides) -> BingoConfig:
    defaults = dict(
        learning_fetch_budget=80,
        retrain_interval=50,
        negative_examples=15,
        selected_features=300,
        tf_preselection=1000,
    )
    defaults.update(overrides)
    return BingoConfig(**defaults)


def pending_by_topic(frontier) -> Counter:
    """Entries each topic still holds, queued or deferred, read from
    the frontier's :meth:`~repro.core.frontier.CrawlFrontier.snapshot`
    image (a topic with none reads 0)."""
    image = frontier.snapshot()
    pending: Counter = Counter()
    for topic, queues in image["queues"].items():
        pending[topic] += len(queues["incoming"]) + len(queues["outgoing"])
    for _ready_at, _sequence, entry in image["deferred"]:
        pending[entry["topic"]] += 1
    return pending
