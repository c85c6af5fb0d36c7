"""Interactive relevance feedback (paper section 3.6).

"The user may select additional training documents among the top ranked
results that he sees and possibly drops previous training data; then the
filtered documents are classified again under the retrained model to
improve precision."

A :class:`FeedbackSession` wraps one topic's result set: feedback marks
documents relevant or irrelevant, ``retrain`` folds the marks into the
engine's training set and retrains the classifier, and ``rerank``
re-scores the result set under the new model.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.records import CrawledDocument
from repro.errors import SearchError

__all__ = ["FeedbackSession"]


@dataclass
class FeedbackSession:
    """One relevance-feedback loop bound to a BingoEngine topic."""

    engine: "object"  # BingoEngine (kept loose to avoid an import cycle)
    topic: str
    relevant: dict[int, CrawledDocument] = field(default_factory=dict)
    irrelevant: dict[int, CrawledDocument] = field(default_factory=dict)
    rounds: int = 0

    def mark_relevant(self, document: CrawledDocument) -> None:
        self.irrelevant.pop(document.doc_id, None)
        self.relevant[document.doc_id] = document

    def mark_irrelevant(self, document: CrawledDocument) -> None:
        self.relevant.pop(document.doc_id, None)
        self.irrelevant[document.doc_id] = document

    def retrain(self) -> None:
        """Fold the feedback into the training set and retrain."""
        if not self.relevant and not self.irrelevant:
            raise SearchError("no feedback to retrain on")
        training = self.engine.training
        topic_records = training.setdefault(self.topic, {})
        record_type = None
        for records in training.values():
            for record in records.values():
                record_type = type(record)
                break
            if record_type:
                break
        if record_type is None:
            raise SearchError("engine has no training data to extend")
        for document in self.relevant.values():
            topic_records[document.final_url] = record_type(
                counts=document.counts,
                confidence=document.confidence,
                protected=True,  # explicit user judgement
                doc_id=document.doc_id,
            )
        others = self.engine.tree.others_of(
            self.engine.tree.node(self.topic).parent or "ROOT"
        )
        others_records = training.setdefault(others, {})
        for document in self.irrelevant.values():
            topic_records.pop(document.final_url, None)
            others_records[document.final_url] = record_type(
                counts=document.counts,
                confidence=0.0,
                protected=True,
                doc_id=document.doc_id,
            )
        self.engine._train()
        self.rounds += 1

    def rerank(self, documents: list[CrawledDocument]) -> list[CrawledDocument]:
        """Re-classify ``documents`` under the retrained model; returns
        those still accepted into the topic, best confidence first."""
        classifier = self.engine.classifier
        # one batch call: the retrained model compiles once for the
        # whole result list instead of per document
        results = classifier.classify_batch(
            [document.counts for document in documents]
        )
        surviving = [
            (result.confidence, document)
            for document, result in zip(documents, results)
            if result.topic == self.topic
        ]
        surviving.sort(key=lambda pair: (-pair[0], pair[1].doc_id))
        return [document for _confidence, document in surviving]
