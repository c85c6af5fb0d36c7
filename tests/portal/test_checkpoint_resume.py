"""Kill-and-resume: a checkpointed portal continues bit-identically.

The scenario each test pins: a portal lives through evolution and a
folded recrawl cycle, then a second cycle is *interrupted* mid-drain
(``fetch_limit``), checkpointed, and the process "dies".  A fresh
process re-runs the deterministic crawl, restores the JSON-round-tripped
checkpoint, and both portals drain the leftover frontier -- every
freshness counter, scheduler stat and ranked result must agree.

Epoch note: a restored engine rebuilds its idf lineage from scratch, so
epoch identity across restore is ``(ordinal, generation, reason)`` --
the snapshot component intentionally follows the new vectorizer.
"""

from __future__ import annotations

import json

import pytest

from repro.core.frontier import CrawlFrontier
from repro.core.records import CrawlStats
from repro.errors import ConfigError
from repro.portal import LivingPortal, RecrawlScheduler
from repro.robust.checkpoint import save_checkpoint

from tests.portal.conftest import build_portal

QUERIES = ("database recovery", "mining patterns")


def epoch_identity(epoch):
    return (epoch.ordinal, epoch.generation, epoch.reason)


def result_tuples(search, query):
    return [
        (h.document.doc_id, h.score)
        for h in search.search(query, top_k=10)
    ]


def interrupt_and_checkpoint(portal) -> dict:
    """Evolve, fold one cycle, interrupt a second one, checkpoint."""
    portal.evolve(3600.0)
    folded = portal.recrawl(budget=60)
    assert folded.folded
    portal.evolve(1800.0)
    partial = portal.recrawl(budget=40, fetch_limit=10)
    assert not partial.folded
    assert partial.search is None
    assert len(portal.scheduler.frontier) > 0
    # the checkpoint must survive a process boundary
    return json.loads(json.dumps(portal.checkpoint()))


def assert_resumed_portals_agree(original, restored) -> None:
    horizon = original.clock.now
    done_a = original.recrawl(None)
    done_b = restored.recrawl(None)
    assert done_a.folded and done_b.folded
    assert done_a.stats() == done_b.stats()
    assert original.scheduler.stats() == restored.scheduler.stats()
    assert original.freshness(at=horizon) == restored.freshness(at=horizon)
    assert epoch_identity(original.search.epoch) == epoch_identity(
        restored.search.epoch
    )
    for query in QUERIES:
        assert result_tuples(original.search, query) == result_tuples(
            restored.search, query
        )


class TestKillMidRecrawl:
    def test_resume_matches_the_uninterrupted_portal(self) -> None:
        original = build_portal()
        state = interrupt_and_checkpoint(original)
        assert type(original.scheduler.frontier) is CrawlFrontier
        assert "workers" not in state["scheduler"]

        restored = build_portal()
        restored.restore(state)
        assert restored.cycles_run == original.cycles_run
        assert restored.clock.now == original.clock.now
        assert (
            restored.evolution.stats() == original.evolution.stats()
        )
        # the restored engine serves exactly the checkpoint-time corpus:
        # the pending (unfolded) delta must not leak into it
        assert [d.doc_id for d in restored.search.documents] == [
            d.doc_id for d in original.search.documents
        ]
        assert epoch_identity(restored.search.epoch) == epoch_identity(
            original.search.epoch
        )
        assert_resumed_portals_agree(original, restored)
        # a further full cycle after resume stays in lockstep
        original.evolve(1800.0)
        restored.evolve(1800.0)
        cycle_a = original.recrawl(budget=30)
        cycle_b = restored.recrawl(budget=30)
        assert cycle_a.stats() == cycle_b.stats()
        assert epoch_identity(cycle_a.epoch) == epoch_identity(
            cycle_b.epoch
        )

    def test_checkpoint_restores_pending_delta_counters(self) -> None:
        original = build_portal()
        state = interrupt_and_checkpoint(original)
        restored = build_portal().restore(state)

        ours = original.scheduler.pending
        theirs = restored.scheduler.pending
        assert [d.doc_id for d in theirs.added] == [
            d.doc_id for d in ours.added
        ]
        assert [d.doc_id for d in theirs.changed] == [
            d.doc_id for d in ours.changed
        ]
        assert theirs.removed == ours.removed
        assert sorted(theirs.previous) == sorted(ours.previous)
        assert len(restored.scheduler.frontier) == len(
            original.scheduler.frontier
        )


class TestRestoredAnchorTerms:
    """A recrawl keeps ``ctx.anchor_terms`` aligned with the pages it
    changes and discovers; a restore must give that alignment back."""

    def test_restored_anchor_terms_equal_the_original(self, tmp_path):
        original = build_portal()
        state = interrupt_and_checkpoint(original)
        restored = build_portal().restore(state)
        ours, theirs = original.engine.ctx, restored.engine.ctx
        assert len(ours.anchor_terms) == len(ours.documents)
        assert theirs.anchor_terms == ours.anchor_terms
        assert theirs.documents == ours.documents
        save_checkpoint(theirs, CrawlStats(), tmp_path)
        records = json.loads(
            (tmp_path / "database-1" / "pages.json").read_text()
        )["pages"]
        assert records == [
            document.to_dict() | {"anchor_terms": anchors}
            for document, anchors in zip(ours.documents, ours.anchor_terms)
        ]

    def test_a_snapshot_without_anchor_terms_is_refused(self) -> None:
        original = build_portal()
        state = interrupt_and_checkpoint(original)
        for record in state["scheduler"]["documents"]:
            del record["anchor_terms"]
        portal = build_portal()
        documents = list(portal.engine.ctx.documents)
        with pytest.raises(ConfigError, match="anchor terms"):
            portal.restore(state)
        assert portal.engine.ctx.documents == documents
        assert len(portal.engine.ctx.anchor_terms) == len(documents)


def test_the_recrawl_frontier_has_no_worker_count() -> None:
    # crawl workers shard the crawl; a revisit cycle is one frontier
    with pytest.raises(TypeError):
        LivingPortal(object(), **{"workers": 3})
    with pytest.raises(TypeError):
        RecrawlScheduler(object(), **{"workers": 3})
