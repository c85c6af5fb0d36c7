"""Oracle user feedback between phases improves the harvest (paper 2.6).

A simulated user (an oracle that knows the generator's true page topics)
reviews the learning phase's archetypes: impostors are rejected, true
ones confirmed.  The subsequent harvest should be at least as precise as
an unreviewed run on the same Web.
"""

from __future__ import annotations

import pytest

from repro.core import ArchetypeReview, BingoEngine
from repro.web import SyntheticWeb, WebGraphConfig

from tests.core.conftest import fast_engine_config


@pytest.fixture(scope="module")
def drifty_web() -> SyntheticWeb:
    """A Web with heterogeneous researcher pages (drift pressure)."""
    return SyntheticWeb.generate(
        WebGraphConfig(
            seed=43, target_researchers=50, other_researchers=25,
            universities=12, hubs_per_topic=3,
            background_hosts_per_category=3, pages_per_background_host=3,
            directory_pages_per_category=4,
            interdisciplinary_rate=0.4,
            vocab_sibling_overlap=0.45,
        )
    )


def run_with(web, reviewer):
    engine = BingoEngine.for_portal(
        web,
        config=fast_engine_config(
            learning_fetch_budget=120, negative_examples=12,
            selected_features=250,
        ),
    )
    engine.run(harvesting_fetch_budget=300, archetype_reviewer=reviewer)
    target = web.config.target_topic
    accepted = [
        doc for doc in engine.ctx.documents
        if doc.topic == f"ROOT/{target}" and doc.page_id is not None
    ]
    if not accepted:
        return engine, 1.0
    correct = sum(
        1 for doc in accepted
        if web.pages[doc.page_id].topic == target
    )
    return engine, correct / len(accepted)


def oracle_reviewer(web):
    target = web.config.target_topic

    def reviewer(topic, documents):
        review = ArchetypeReview()
        for doc in documents:
            if doc.page_id is None:
                continue
            if web.pages[doc.page_id].topic == target:
                review.confirmed.add(doc.doc_id)
            else:
                review.rejected.add(doc.doc_id)
        return review

    return reviewer


def test_oracle_feedback_never_hurts_precision(drifty_web) -> None:
    _, baseline_precision = run_with(drifty_web, reviewer=None)
    engine, reviewed_precision = run_with(
        drifty_web, reviewer=oracle_reviewer(drifty_web)
    )
    assert reviewed_precision >= baseline_precision - 0.02


def test_oracle_feedback_purifies_training_set(drifty_web) -> None:
    engine, _ = run_with(drifty_web, reviewer=oracle_reviewer(drifty_web))
    target = drifty_web.config.target_topic
    promoted = [
        record for record in engine.training[f"ROOT/{target}"].values()
        if record.doc_id is not None
    ]
    # Impostors present at review time were removed; later (harvest-time)
    # promotions may reintroduce a few, but the reviewed set stays clean
    # enough to matter.
    impure = sum(
        1 for record in promoted
        if drifty_web.pages[
            engine.ctx.documents[record.doc_id].page_id
        ].topic != target
    )
    assert impure <= max(1, len(promoted) // 4)
