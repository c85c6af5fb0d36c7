"""A recrawl keeps the crawl's document indexes and training counts exact.

A changed revisit swaps a stored page's out-links in place
(``CrawlContext.replace_document``) and a discovered page is stored
through ``register_document``; the fold stores changed training records
again through the engine's training buckets.  After the cycle the
context's indexes equal a derivation from the store, and every kept
term count equals a fold over the bucket's records.
"""

from __future__ import annotations

import copy

import pytest

from repro.core.feature_selection import TermCounts

from tests.pipeline.reference import (
    context_indexes,
    context_indexes_reference,
)
from tests.portal.conftest import build_portal


@pytest.fixture(scope="module")
def recrawled():
    portal = build_portal()
    portal.evolve(3600.0)
    before = list(portal.engine.ctx.documents)
    version = portal.engine.classifier.model_version
    report = portal.recrawl(budget=60)
    return portal, before, report, version


def test_a_recrawl_leaves_the_indexes_derivable(recrawled) -> None:
    portal, before, report, _ = recrawled
    ctx = portal.engine.ctx
    assert report.recrawl.changed > 0 and report.recrawl.discovered > 0
    assert len(ctx.documents) > len(before)
    assert any(
        ctx.documents[doc.doc_id].out_urls != doc.out_urls for doc in before
    ), "no revisit replaced a page's out-links"
    assert context_indexes(ctx) == context_indexes_reference(ctx.documents)


def test_the_fold_leaves_the_training_counts_derivable(recrawled) -> None:
    portal, _, report, _ = recrawled
    engine = portal.engine
    assert report.models_retrained > 0
    for records in engine.training.values():
        for space, kept in records.counts.items():
            rebuilt = TermCounts(
                record.counts.get(space, {}) for record in records.values()
            )
            assert (kept.documents, kept.df, kept.tf) == (
                rebuilt.documents, rebuilt.df, rebuilt.tf
            )


def test_the_fold_retrains_through_the_classifier(recrawled) -> None:
    """The fold's models are :meth:`retrain_topics`' on the stored
    training sets, and they carry a new model version."""
    portal, _, report, version = recrawled
    engine = portal.engine
    classifier = engine.classifier
    tree = classifier.tree
    # both topics hang off ROOT: a changed training page retrains both
    children = [c for p in tree.inner_nodes() for c in tree.children_of(p)]
    assert report.models_retrained == len(children) > 0
    assert classifier.model_version > version
    again = copy.deepcopy(classifier)
    training, counts = engine._training_sets()
    assert again.retrain_topics(training, children, counts) == len(children)
    pages = [doc.counts for doc in engine.ctx.documents]
    assert classifier.classify_batch(pages) == again.classify_batch(pages)
