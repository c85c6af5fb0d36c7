"""Incremental updates: folding a recrawl delta into the trained models.

The search side is handled by
:meth:`repro.search.engine.LocalSearchEngine.apply_delta` (exact df
bookkeeping, bit-identical to a full rebuild).  This module carries the
delta container shared by both sides and the **classifier** fold:

* per-space document-frequency statistics are adjusted by retracting
  the old term sets and ingesting the new ones, then the idf snapshot
  refreshes once;
* training records whose underlying document changed are stored again
  with the new feature counts; records of deleted documents are dropped
  (both through the bucket that keeps the topic's term counts);
* only the decision models that can actually differ are retrained --
  the changed topics plus their *siblings* (siblings share the changed
  documents as negative examples) -- via
  :meth:`~repro.core.classifier.HierarchicalClassifier.retrain_topics`.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from typing import TYPE_CHECKING

from repro.core.ontology import TopicTree
from repro.core.records import CrawledDocument

if TYPE_CHECKING:
    from repro.core.engine import BingoEngine

__all__ = ["DocumentDelta", "fold_into_classifier"]


@dataclass
class DocumentDelta:
    """New/changed/deleted documents produced by one recrawl cycle.

    ``previous`` maps changed and removed doc_ids to their pre-delta
    records; the classifier fold needs the old term sets for exact df
    retraction.
    """

    added: list[CrawledDocument] = field(default_factory=list)
    changed: list[CrawledDocument] = field(default_factory=list)
    removed: list[int] = field(default_factory=list)
    previous: dict[int, CrawledDocument] = field(default_factory=dict)

    @property
    def empty(self) -> bool:
        return not (self.added or self.changed or self.removed)

    # -- merge-aware recording (one delta spans many fetches) ---------------

    def record_added(self, doc: CrawledDocument) -> None:
        self.added.append(doc)

    def record_changed(
        self, before: CrawledDocument, after: CrawledDocument
    ) -> None:
        """Fold a refresh in; repeat changes collapse to oldest-previous
        -> newest-current, and a change to a doc this delta *added*
        just updates the pending addition."""
        for i, doc in enumerate(self.added):
            if doc.doc_id == after.doc_id:
                self.added[i] = after
                return
        for i, doc in enumerate(self.changed):
            if doc.doc_id == after.doc_id:
                self.changed[i] = after
                return
        self.previous[after.doc_id] = before
        self.changed.append(after)

    def record_removed(self, before: CrawledDocument) -> bool:
        """Fold a death in.  A doc this delta added simply disappears
        (consumers never saw it); returns False in that case."""
        doc_id = before.doc_id
        for i, doc in enumerate(self.added):
            if doc.doc_id == doc_id:
                del self.added[i]
                return False
        for i, doc in enumerate(self.changed):
            if doc.doc_id == doc_id:
                del self.changed[i]
                break
        self.previous.setdefault(doc_id, before)
        self.removed.append(doc_id)
        return True


def _affected_children(
    tree: TopicTree, affected_topics: set[str]
) -> list[str]:
    """Every child topic whose decision model can differ.

    A changed document in topic T is a positive example for T and every
    ancestor on T's path, and a *negative* example for each of their
    siblings -- so all children of any parent whose subtree contains an
    affected topic must retrain.
    """
    retrain: set[str] = set()
    for parent in tree.inner_nodes():
        children = tree.children_of(parent)
        for child in children:
            subtree = {child}
            frontier = [child]
            while frontier:
                node = frontier.pop()
                for grandchild in tree.children_of(node):
                    subtree.add(grandchild)
                    frontier.append(grandchild)
            if any(topic in subtree for topic in sorted(affected_topics)):
                retrain.update(children)
                break
    return sorted(retrain)


def fold_into_classifier(
    engine: "BingoEngine", delta: DocumentDelta
) -> int:
    """Fold a :class:`DocumentDelta` into the engine's classifier.

    Adjusts the per-space df statistics exactly (retract old, ingest
    new), swaps updated feature counts into affected training records,
    and retrains only the decision models whose training data moved.
    Returns the number of models retrained (0 when no training document
    was touched -- the common case: most recrawled pages are not
    archetypes).
    """
    classifier = engine.classifier
    # -- exact df bookkeeping, one snapshot refresh --------------------------
    for doc in delta.added:
        classifier.ingest(doc.counts)
    for doc in delta.changed:
        before = delta.previous[doc.doc_id]
        for space, vectorizer in classifier.vectorizers.items():
            old_counts = before.counts.get(space)
            new_counts = doc.counts.get(space)
            if old_counts:
                vectorizer.retract(old_counts.keys())
            if new_counts:
                vectorizer.ingest(new_counts.keys())
    for doc_id in delta.removed:
        before = delta.previous[doc_id]
        for space, vectorizer in classifier.vectorizers.items():
            old_counts = before.counts.get(space)
            if old_counts:
                vectorizer.retract(old_counts.keys())
    classifier.refresh_idf()

    # -- patch training records ---------------------------------------------
    changed_by_id = {doc.doc_id: doc for doc in delta.changed}
    removed_ids = frozenset(delta.removed)
    affected_topics: set[str] = set()
    for topic in sorted(engine.training):
        records = engine.training[topic]
        for url in sorted(records):
            record = records[url]
            if record.doc_id is None:
                continue
            if record.doc_id in changed_by_id:
                records[url] = replace(
                    record, counts=changed_by_id[record.doc_id].counts
                )
                affected_topics.add(topic)
            elif record.doc_id in removed_ids:
                del records[url]
                affected_topics.add(topic)
    if not affected_topics:
        return 0

    # -- partial retrain -----------------------------------------------------
    targets = _affected_children(classifier.tree, affected_topics)
    training, counts = engine._training_sets()
    retrained = classifier.retrain_topics(training, targets, counts)
    engine._refresh_training_confidences()
    return retrained
