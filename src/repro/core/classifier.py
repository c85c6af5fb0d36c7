"""Hierarchical topic classification (paper sections 2.3-2.4, 3.4-3.5).

For every tree node with children, each real child gets one binary
decision model *per feature space*: topic-specific MI feature selection
followed by a linear SVM whose positives are the child's training
documents and whose negatives are the competing siblings' documents plus
the parent's OTHERS documents.  A trained child model also carries its
xi-alpha precision estimate.

New documents are classified top-down: at each level all competing
children vote (optionally combined by the meta classifier of section
3.5); the document descends into the highest-confidence positive child,
or into the level's OTHERS node when every child says no.

The classifier is agnostic to how feature vectors are built: documents
arrive as ``{space_name: Counter}`` mappings and each space keeps its own
tf*idf statistics.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Iterator, Mapping, Sequence
from dataclasses import dataclass, field

from repro.core.config import BingoConfig
from repro.core.feature_selection import select_features
from repro.core.ontology import TopicTree
from repro.errors import TrainingError
from repro.ml.maxent import MaxEntClassifier
from repro.ml.naive_bayes import NaiveBayesClassifier
from repro.ml.rocchio import RocchioClassifier
from repro.ml.svm import LinearSVM
from repro.ml.xialpha import XiAlphaEstimate, xi_alpha_estimate
from repro.perf.cache import VectorCache
from repro.perf.compiled import (
    ACCEPTANCE_THRESHOLD,
    MODES,
    CompiledClassifier,
    compile_classifier,
)
from repro.text.vectorizer import SparseVector, TfIdfVectorizer

__all__ = [
    "ACCEPTANCE_THRESHOLD",
    "MODES",
    "TrainingDoc",
    "TrainingSet",
    "ClassificationResult",
    "NodeClassifier",
    "TopicDecisionModel",
    "HierarchicalClassifier",
]

#: a document, reduced to per-feature-space term multisets
TrainingDoc = Mapping[str, Counter]

#: topic name -> training documents
TrainingSet = Mapping[str, Sequence[TrainingDoc]]

SVM_COST = 1.0  #: soft-margin cost of every node SVM


def _cross_validation_estimate(
    factory, vectors, labels, folds: int = 3, seed: int = 0,
) -> XiAlphaEstimate:
    """A k-fold generalization estimate shaped like a xi-alpha result.

    Used for learners without the SVM dual state: folds are stratified
    by round-robin so tiny training sets keep both classes per fold; a
    fold that degenerates to one class is skipped.
    """
    import numpy as np

    order = np.random.default_rng(seed).permutation(len(vectors))
    assignments = {int(index): i % folds for i, index in enumerate(order)}
    tp = fp = fn = tn = 0
    for fold in range(folds):
        train_idx = [i for i in range(len(vectors)) if assignments[i] != fold]
        test_idx = [i for i in range(len(vectors)) if assignments[i] == fold]
        train_labels = [labels[i] for i in train_idx]
        if len(set(train_labels)) < 2 or not test_idx:
            continue
        model = factory().fit(
            [vectors[i] for i in train_idx], train_labels
        )
        for i in test_idx:
            predicted = model.predict(vectors[i])
            if predicted == 1 and labels[i] == 1:
                tp += 1
            elif predicted == 1:
                fp += 1
            elif labels[i] == 1:
                fn += 1
            else:
                tn += 1
    total = tp + fp + fn + tn
    return XiAlphaEstimate(
        error=(fp + fn) / total if total else 1.0,
        recall=tp / (tp + fn) if tp + fn else 0.0,
        precision=tp / (tp + fp) if tp + fp else 0.0,
        flagged_positive=fn,
        flagged_negative=fp,
    )


@dataclass(frozen=True)
class ClassificationResult:
    """Where a document landed in the tree and how confidently."""

    topic: str
    confidence: float
    path: tuple[tuple[str, float], ...] = ()
    """(node, confidence) for every accepted descent step."""

    @property
    def accepted(self) -> bool:
        """True when the final node is a real topic (not an OTHERS bin)."""
        return not self.topic.endswith("/OTHERS")


@dataclass
class NodeClassifier:
    """One (topic, feature-space) binary decision model.

    ``svm`` holds the node's decision model; despite the historical name
    it may be any :class:`~repro.ml.common.BinaryClassifier` when the
    config selects an alternative learner (the paper names Naive Bayes
    and Maximum Entropy alongside SVMs, section 1.2).
    """

    topic: str
    space: str
    features: list[str]
    svm: "LinearSVM | object"
    estimate: XiAlphaEstimate
    feature_budget: int = 0
    """The feature count this model was trained with (xi-alpha-chosen
    when the config lists budget candidates)."""
    _feature_set: frozenset = field(init=False, repr=False)

    def __post_init__(self) -> None:
        self._feature_set = frozenset(self.features)

    def _project(self, vectors: Mapping[str, SparseVector]) -> SparseVector | None:
        """Restrict the document to this model's selected features.

        Training vectors are projected *before* normalisation, so the
        decision phase must do the same -- otherwise off-feature mass
        dilutes the normalised vector and shrinks every decision value.
        """
        vector = vectors.get(self.space)
        if vector is None:
            return None
        return vector.project(self._feature_set)

    def decision(self, vectors: Mapping[str, SparseVector]) -> float:
        vector = self._project(vectors)
        if vector is None:
            return 0.0
        return self.svm.decision(vector)


@dataclass
class TopicDecisionModel:
    """All per-space models of one topic.  Their votes are combined by
    the compiled kernel (:mod:`repro.perf.compiled`, paper 3.5)."""

    topic: str
    members: list[NodeClassifier] = field(default_factory=list)


class HierarchicalClassifier:
    """The tree of topic-specific decision models."""

    def __init__(
        self,
        tree: TopicTree,
        config: BingoConfig | None = None,
        spaces: Sequence[str] = ("term",),
    ) -> None:
        self.tree = tree
        self.config = config or BingoConfig()
        self.spaces = list(spaces)
        if not self.spaces:
            raise TrainingError("need at least one feature space")
        self.vectorizers: dict[str, TfIdfVectorizer] = {
            space: TfIdfVectorizer() for space in self.spaces
        }
        self.models: dict[str, TopicDecisionModel] = {}
        self.trained = False
        self.model_version = 0
        """Bumped at every (re)training point, which also drops the
        compiled kernel."""
        self._compiled: CompiledClassifier | None = None
        self._vector_cache = VectorCache()
        self._kernel_stats_retired: dict[str, float] = {}
        """Accumulated counters of kernels discarded by retraining, so
        :meth:`stats` reports lifetime totals across recompiles."""

    # -- corpus statistics --------------------------------------------------

    def ingest(self, doc: TrainingDoc) -> None:
        """Feed a document into the per-space idf statistics (live side)."""
        for space, vectorizer in self.vectorizers.items():
            counts = doc.get(space)
            if counts:
                vectorizer.ingest(counts.keys())

    def refresh_idf(self) -> None:
        """Promote live df counts to the idf snapshot (lazy, on retraining)."""
        for vectorizer in self.vectorizers.values():
            vectorizer.refresh()

    def _snapshot_key(self) -> tuple[int, ...]:
        return tuple(
            self.vectorizers[space].snapshot_version for space in self.spaces
        )

    def vectorize_many(
        self, docs: Sequence[TrainingDoc]
    ) -> list[dict[str, SparseVector]]:
        """Per-space tf*idf vectors for a whole batch, in one wave.

        Repeat vectorizations of the same document object under the
        same idf snapshot (archetype re-scoring, training-confidence
        refreshes) come from the LRU cache; ``refresh_idf`` changes the
        snapshot key and thereby invalidates every cached vector.  The
        misses are vectorized together through
        :func:`repro.perf.text.vectorize_batch` (``vectorize_counts``
        per document), so a row does not depend on which other
        documents share it (pinned by tests).
        """
        from repro.perf.text import vectorize_batch

        key = self._snapshot_key()
        cache = self._vector_cache
        bundles: list[dict[str, SparseVector] | None] = [None] * len(docs)
        miss_indices: list[int] = []
        for i, doc in enumerate(docs):
            cached = cache.get(doc, key)
            if cached is None:
                miss_indices.append(i)
            else:
                bundles[i] = cached
        if miss_indices:
            rows_by_space = {
                space: vectorize_batch(
                    self.vectorizers[space],
                    [docs[i].get(space) or {} for i in miss_indices],
                )
                for space in self.spaces
            }
            for j, i in enumerate(miss_indices):
                bundle = {
                    space: rows_by_space[space][j] for space in self.spaces
                }
                cache.put(docs[i], key, bundle)
                bundles[i] = bundle
        return bundles  # type: ignore[return-value]

    # -- training ------------------------------------------------------------

    def train(self, training: TrainingSet) -> None:
        """(Re)train every tree node's child models from scratch.

        ``training`` maps topic names (including OTHERS nodes) to their
        training documents.  Nodes whose children have no positive
        examples are skipped -- classification then treats those children
        as permanently negative.
        """
        self.refresh_idf()
        self.models = {}
        for child, positives, negatives in self._training_splits(training):
            if positives and negatives:
                self.models[child] = self._train_topic(
                    child, positives, negatives
                )
        self.trained = True
        self.model_version += 1
        if self._compiled is not None:
            self._retire_kernel_stats(self._compiled)
        self._compiled = None

    def retrain_topics(
        self, training: TrainingSet, topics: Sequence[str]
    ) -> int:
        """Retrain only the named child topics' decision models.

        The incremental fold path (:mod:`repro.portal.incremental`):
        positives and negatives are assembled exactly as :meth:`train`
        does, but topics outside ``topics`` keep their existing models.
        Callers must include every sibling of a changed topic -- sibling
        models share the changed documents as negatives.  Bumps the
        model version (retiring the compiled kernel) when anything was
        retrained; returns the number of models rebuilt.
        """
        retrained = 0
        self.refresh_idf()
        for child, positives, negatives in self._training_splits(
            training, frozenset(topics)
        ):
            if positives and negatives:
                self.models[child] = self._train_topic(
                    child, positives, negatives
                )
            else:
                # the topic lost its last usable training data; its
                # stale model must not keep classifying
                self.models.pop(child, None)
            retrained += 1
        if retrained:
            self.model_version += 1
            if self._compiled is not None:
                self._retire_kernel_stats(self._compiled)
            self._compiled = None
        return retrained

    def _training_splits(
        self, training: TrainingSet, only: frozenset[str] | None = None
    ) -> Iterator[tuple[str, list[TrainingDoc], list[TrainingDoc]]]:
        """(child, positives, negatives) per child topic, in tree order.

        Positives are the child's subtree; negatives are its siblings'
        subtrees plus the parent's OTHERS documents.  ``only`` limits
        the walk to the named children.
        """
        for parent in self.tree.inner_nodes():
            children = self.tree.children_of(parent)
            others = self.tree.others_of(parent)
            for child in children:
                if only is not None and child not in only:
                    continue
                positives = self._docs_of_subtree(training, child)
                negatives: list[TrainingDoc] = []
                for sibling in children:
                    if sibling != child:
                        negatives.extend(
                            self._docs_of_subtree(training, sibling)
                        )
                negatives.extend(training.get(others, ()))
                yield child, positives, negatives

    def _docs_of_subtree(
        self, training: TrainingSet, topic: str
    ) -> list[TrainingDoc]:
        """A topic's documents plus those of all real descendants."""
        docs = list(training.get(topic, ()))
        for child in self.tree.children_of(topic):
            docs.extend(self._docs_of_subtree(training, child))
        return docs

    def _train_topic(
        self,
        topic: str,
        positives: Sequence[TrainingDoc],
        negatives: Sequence[TrainingDoc],
    ) -> TopicDecisionModel:
        model = TopicDecisionModel(topic=topic)
        labels = [1] * len(positives) + [-1] * len(negatives)
        budgets = tuple(self.config.feature_budget_candidates) or (
            self.config.selected_features,
        )
        for space in self.spaces:
            pos_counts = [doc.get(space, Counter()) for doc in positives]
            neg_counts = [doc.get(space, Counter()) for doc in negatives]
            ranked = select_features(
                {topic: pos_counts, "__rest__": neg_counts},
                topic,
                tf_preselection=self.config.tf_preselection,
                selected_features=max(budgets),
            )
            idf = self.vectorizers[space].statistics.idf
            best: NodeClassifier | None = None
            for budget in budgets:
                features = [score.feature for score in ranked[:budget]]
                idf_of = {feature: idf(feature) for feature in features}
                # vectorize_counts(counts).project(features), kept terms only
                vectors = [
                    SparseVector({
                        term: (1.0 + math.log(tf)) * idf_of[term]
                        for term, tf in counts.items()
                        if tf > 0 and term in idf_of
                    })
                    for counts in [*pos_counts, *neg_counts]
                ]
                learner, estimate = self._fit_node_model(vectors, labels)
                candidate = NodeClassifier(
                    topic=topic, space=space, features=features,
                    svm=learner, estimate=estimate, feature_budget=budget,
                )
                if (
                    best is None
                    or candidate.estimate.precision > best.estimate.precision
                ):
                    best = candidate
            assert best is not None
            model.members.append(best)
        return model

    def _fit_node_model(self, vectors, labels):
        """Train the configured learner; return (model, estimate).

        SVMs get the xi-alpha estimate (cheap, from the dual solution);
        the alternative learners get a 3-fold cross-validation estimate
        packaged in the same shape.
        """
        kind = self.config.node_classifier
        if kind == "svm":
            svm = LinearSVM(C=SVM_COST, seed=self.config.seed).fit(
                vectors, labels
            )
            return svm, xi_alpha_estimate(svm, labels)
        factories = {
            "maxent": lambda: MaxEntClassifier(),
            "naive-bayes": lambda: NaiveBayesClassifier(),
            "rocchio": lambda: RocchioClassifier(),
        }
        factory = factories[kind]
        estimate = _cross_validation_estimate(
            factory, vectors, labels, seed=self.config.seed
        )
        return factory().fit(vectors, labels), estimate

    # -- decision phase -------------------------------------------------------

    def _kernel(self) -> CompiledClassifier:
        """The compiled decision kernel, recompiled after retraining."""
        if not self.trained:
            raise TrainingError("classifier has not been trained")
        if self._compiled is None:
            self._compiled = compile_classifier(self)
        return self._compiled

    def _retire_kernel_stats(self, kernel: CompiledClassifier) -> None:
        for key, value in kernel.stats().items():
            self._kernel_stats_retired[key] = (
                self._kernel_stats_retired.get(key, 0.0) + value
            )

    def stats(self) -> dict[str, float]:
        """Kernel-layer counters (:class:`repro.obs.api.Instrumented`).

        ``kernel_*`` totals span every compiled kernel this classifier
        has used (retraining discards kernels; their counters are
        retired here, not lost).
        """
        totals = dict(self._kernel_stats_retired)
        if self._compiled is not None:
            for key, value in self._compiled.stats().items():
                totals[key] = totals.get(key, 0.0) + value
        merged = {
            f"kernel_{key}": value for key, value in sorted(totals.items())
        }
        for key, value in self._vector_cache.stats().items():
            merged[f"vector_cache_{key}"] = value
        merged["model_version"] = float(self.model_version)
        merged["trained"] = 1.0 if self.trained else 0.0
        return merged

    def classify(
        self, doc: TrainingDoc, mode: str = "single"
    ) -> ClassificationResult:
        """Top-down classification of one document: a batch of one, so
        a page scores the same whichever entry point classified it."""
        return self.classify_batch([doc], mode)[0]

    def classify_batch(
        self, docs: Sequence[TrainingDoc], mode: str = "single"
    ) -> list[ClassificationResult]:
        """The decision phase (paper sections 2.4 and 3.5).

        Starting at ROOT, all children with trained models vote; each
        document descends into its highest-confidence positive child,
        or lands in the level's OTHERS node when no child accepts.  The
        returned confidence is that of the deepest accepted level (or
        the best rejection distance when nothing accepted).  Runs on
        the compiled kernel; compilation after a retraining point is
        paid once, by the first batch that follows it.
        """
        kernel = self._kernel()
        bundles = self.vectorize_many(docs)
        return [
            ClassificationResult(topic=topic, confidence=confidence, path=path)
            for topic, confidence, path in kernel.classify_many(bundles, mode)
        ]

    def confidence_for(
        self, doc: TrainingDoc, topic: str, mode: str = "single"
    ) -> float:
        """The (distance) confidence of ``doc`` under ``topic``'s model."""
        return self.confidence_for_batch([doc], topic, mode)[0]

    def confidence_for_batch(
        self, docs: Sequence[TrainingDoc], topic: str, mode: str = "single"
    ) -> list[float]:
        """Confidences of many documents under one topic's model: one
        (cache-assisted) vectorization per document and one evaluation
        of the topic's tree level for the whole group."""
        if topic not in self.models:
            raise TrainingError(f"no trained model for topic {topic!r}")
        return [
            confidence
            for _positive, confidence in self._kernel().decide_topic_many(
                topic, self.vectorize_many(docs), mode
            )
        ]
