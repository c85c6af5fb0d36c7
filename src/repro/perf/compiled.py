"""The hierarchical classifier compiled into per-level numpy kernels.

Compilation flattens each tree level into CSR-style blocks: one
vocabulary per (level, space) with its idf column, read once from the
classifier's idf snapshot, a stacked weight matrix with one row per
child model, and a 0/1 membership matrix encoding each model's
selected-feature set.  A descent step scores the whole cohort of
documents sitting at one node straight from their term counts: one CSR
gather weights only the vocabulary's terms, ``(1 + log tf) * idf`` for
each with ``tf > 0`` in counts order (the entries ``vectorize_counts``
gives those terms), and two sparse-dense products per feature space
follow, one ``CsrRows.matvec`` (a ``bincount`` over the cohort's
entries) per stacked row

    dots   = X @ W.T                      (stacked w . x)
    norms2 = X**2 @ M.T                   (per-model projected norm)
    decision = dots / sqrt(norms2) + bias (norm 0 -> divide by 1)
    distance = decision / ||w||           (||w|| 0 -> 0)

each product added in the order scipy's ``csr_matvecs`` adds it, which
reproduces ``LinearSVM.decision`` and the hyperplane distance of paper
section 2.4 on the projected, unit-normalised document (up to float
associativity; the parity tests in
``tests/core/test_compiled_classifier.py`` bound the drift against the
dict-walking oracle of ``tests/core/reference.py`` at 1e-9).
Members whose learner has no linear form (Naive Bayes, Rocchio, MaxEnt
nodes) get the document projected onto their own feature set from the
same counts and idf, and their learner's ``decision`` on it is also
their confidence, so compilation never changes semantics.  No page is
ever weighted on terms outside the features some member selected.

This is the only decision phase: a single document is a cohort of one,
so a page scores the same whichever caller classified it and however
many pages shared its batch.

A compiled kernel is an immutable snapshot of one trained model under
one idf snapshot; the owning classifier drops it whenever it refreshes
idf (every (re)training point) and recompiles lazily.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.errors import TrainingError
from repro.ml.common import CsrRows
from repro.ml.svm import LinearSVM
from repro.text.vectorizer import DAMPENED, SparseVector

__all__ = [
    "ACCEPTANCE_THRESHOLD",
    "MODES",
    "CompiledClassifier",
    "compile_classifier",
]

#: decision-combination modes (paper 3.5)
MODES = ("single", "unanimous", "majority", "weighted", "best")

ACCEPTANCE_THRESHOLD = 0.0
"""Minimum decision value of a member model for a positive vote."""

#: one document's term counts in one feature space (None: space missing)
Counts = Mapping[str, int] | None

#: one document: its term counts per feature space
Bundle = Mapping[str, Counts]


@dataclass
class _SpaceBlock:
    """Stacked linear members of one (tree level, feature space)."""

    space: str
    vocabulary: dict[str, int]
    """The block's feature -> column map."""
    idf: np.ndarray
    """Each column's idf under the snapshot the kernel was compiled in."""
    weights: np.ndarray
    """(rows, vocab) stacked SVM weight rows."""
    membership: np.ndarray
    """(rows, vocab) 1.0 where the feature is in the row's selected set."""
    bias: np.ndarray
    inv_weight_norm: np.ndarray
    """1/||w|| per row (0 where ||w|| == 0: no hyperplane, no distance)."""
    child_rows: np.ndarray
    member_rows: np.ndarray
    """(child index, member position) destination of each stacked row."""

    def evaluate_many(
        self, counts: Sequence[Counts]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(decisions, distances) of shape (docs, rows) for a whole group.

        One CSR gather over the group's term counts, then one matvec per
        stacked row for the dots and one for the projected norms.
        A document whose bundle holds ``None`` for this space scores
        0.0, not ``bias``; an empty bag scores ``bias``.
        """
        column_of = self.vocabulary.get
        tfs: list[float] = []
        columns: list[int] = []
        indptr = [0]
        for bag in counts:
            for term, tf in (bag or {}).items():
                column = column_of(term)
                if column is not None and tf > 0:
                    columns.append(column)
                    tfs.append(DAMPENED[tf])
            indptr.append(len(columns))
        indices = np.asarray(columns, dtype=np.intp)
        data = np.asarray(tfs, dtype=np.float64) * self.idf[indices]
        X = CsrRows(
            data, indices, np.asarray(indptr, dtype=np.intp),
            (len(counts), self.weights.shape[1]),
        )
        X2 = CsrRows(data * data, X.indices, X.indptr, X.shape)
        dots = np.column_stack([X.matvec(w) for w in self.weights])
        norms = np.sqrt(
            np.column_stack([X2.matvec(m) for m in self.membership])
        )
        divisor = np.where(norms > 0.0, norms, 1.0)
        decisions = dots / divisor + self.bias[None, :]
        distances = decisions * self.inv_weight_norm[None, :]
        absent = np.array([bag is None for bag in counts], dtype=bool)
        decisions[absent] = 0.0
        distances[absent] = 0.0
        return decisions, distances


def _projected(
    counts: Mapping[str, int], idf_of: Mapping[str, float]
) -> SparseVector:
    """The document as a member trained on ``idf_of``'s features sees
    it: ``vectorize_counts(counts).project(features)``, entry for entry
    and in counts order, with no other term weighted."""
    return SparseVector({
        term: DAMPENED[tf] * idf_of[term]
        for term, tf in counts.items()
        if tf > 0 and term in idf_of
    })


@dataclass
class _LevelKernel:
    """All child models competing at one tree node."""

    parent: str
    children: list[str]
    precisions: np.ndarray
    """(children, members) xi-alpha precision of each member model."""
    precision_sums: np.ndarray
    vote_weights: np.ndarray
    """``precisions``, or all-ones for a child whose precisions sum to
    zero (its members then vote, and are averaged, as equals)."""
    best_index: np.ndarray
    """Per child, the position of its highest-precision member."""
    blocks: dict[str, _SpaceBlock] = field(default_factory=dict)
    fallbacks: list[tuple[int, int, Any, dict[str, float]]] = field(
        default_factory=list
    )
    """(child index, member position, NodeClassifier, feature -> idf)
    for members without a compilable linear form."""

    def decide_many(
        self, bundles: Sequence[Bundle], mode: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """(is_positive, confidence) arrays of shape (docs, children).

        The group is scored with one :meth:`_SpaceBlock.evaluate_many`
        call per feature space and the mode combination is vectorised
        over the whole group.
        """
        g = len(bundles)
        decisions = np.zeros((g, *self.precisions.shape))
        distances = np.zeros((g, *self.precisions.shape))
        for block in self.blocks.values():
            dec, dist = block.evaluate_many(
                [bundle.get(block.space) for bundle in bundles]
            )
            decisions[:, block.child_rows, block.member_rows] = dec
            distances[:, block.child_rows, block.member_rows] = dist
        for child, position, member, idf_of in self.fallbacks:
            for i, bundle in enumerate(bundles):
                counts = bundle.get(member.space)
                # a learner without a hyperplane is as confident as its
                # raw decision
                decision = 0.0 if counts is None else member.svm.decision(
                    _projected(counts, idf_of)
                )
                decisions[i, child, position] = decision
                distances[i, child, position] = decision
        return self._combine_many(decisions, distances, mode)

    def _combine_many(
        self, decisions: np.ndarray, distances: np.ndarray, mode: str
    ) -> tuple[np.ndarray, np.ndarray]:
        """The meta-classifier of paper 3.5 over (docs, children,
        members) score arrays: who votes, and whose distance counts."""
        if mode in ("single", "best"):
            if mode == "single":
                member_of_child = np.zeros(decisions.shape[1], dtype=np.intp)
            else:
                member_of_child = self.best_index
            child_range = np.arange(decisions.shape[1])
            chosen_dec = decisions[:, child_range, member_of_child]
            chosen_dist = distances[:, child_range, member_of_child]
            return chosen_dec > ACCEPTANCE_THRESHOLD, chosen_dist
        votes = np.where(decisions > ACCEPTANCE_THRESHOLD, 1.0, -1.0)
        if mode == "unanimous":
            return (votes > 0.0).all(axis=2), distances.mean(axis=2)
        if mode == "majority":
            return votes.sum(axis=2) > 0.0, distances.mean(axis=2)
        # weighted by xi-alpha precision
        positive = (votes * self.vote_weights[None]).sum(axis=2) > 0.0
        valid = self.precision_sums > 0.0
        weighted = (
            (distances * self.precisions[None]).sum(axis=2)
            / np.where(valid, self.precision_sums, 1.0)[None]
        )
        confidence = np.where(valid[None], weighted, distances.mean(axis=2))
        return positive, confidence


class CompiledClassifier:
    """A compiled snapshot of one trained hierarchical model.

    ``classify_many`` returns plain ``(topic, confidence, path)`` tuples
    so the kernel stays decoupled from :mod:`repro.core.classifier`,
    which wraps them into :class:`ClassificationResult`.
    """

    def __init__(
        self, levels: dict[str, _LevelKernel], others: dict[str, str]
    ) -> None:
        self.levels = levels
        self.others = others
        self.parent_of: dict[str, str] = {
            child: parent
            for parent, level in levels.items()
            for child in level.children
        }
        self.batch_calls = 0
        self.batch_docs = 0
        self.waves = 0
        """Tree-level waves executed by :meth:`classify_many` (one wave =
        one sparse gather per feature space over one node's cohort)."""
        self.wave_docs = 0
        """Documents summed over all waves (cohort sizes)."""

    def classify_many(
        self, bundles: Sequence[Bundle], mode: str
    ) -> list[tuple[str, float, tuple[tuple[str, float], ...]]]:
        """Top-down descent in waves (paper 2.4): starting at ROOT, the
        documents sitting at the same tree node are scored together
        (:meth:`_LevelKernel.decide_many`); each descends into its
        highest-confidence positive child, or lands in the level's
        OTHERS node with the best rejection distance when every child
        says no.  Results are in input order and do not depend on which
        other documents share the batch.
        """
        if mode not in MODES:
            raise TrainingError(f"unknown decision mode {mode!r}")
        self.batch_calls += 1
        self.batch_docs += len(bundles)
        n = len(bundles)
        results: list = [None] * n
        paths: list[list[tuple[str, float]]] = [[] for _ in range(n)]
        confidences = [0.0] * n
        pending = [("ROOT", list(range(n)))] if n else []
        while pending:
            node, doc_ids = pending.pop()
            self.waves += 1
            self.wave_docs += len(doc_ids)
            level = self.levels.get(node)
            if level is None:
                for i in doc_ids:
                    results[i] = (node, confidences[i], tuple(paths[i]))
                continue
            positive, confidence = level.decide_many(
                [bundles[i] for i in doc_ids], mode
            )
            # among positive children take the first maximal confidence
            masked = np.where(positive, confidence, -np.inf)
            best_child = np.argmax(masked, axis=1)
            any_positive = positive.any(axis=1)
            best_rejection = confidence.max(axis=1)
            others = self.others[node]
            descend: dict[int, list[int]] = {}
            for row, i in enumerate(doc_ids):
                if not any_positive[row]:
                    results[i] = (
                        others, float(best_rejection[row]), tuple(paths[i])
                    )
                    continue
                child_index = int(best_child[row])
                child_confidence = float(confidence[row, child_index])
                confidences[i] = child_confidence
                paths[i].append(
                    (level.children[child_index], child_confidence)
                )
                descend.setdefault(child_index, []).append(i)
            for child_index, sub_ids in descend.items():
                pending.append((level.children[child_index], sub_ids))
        return results

    def stats(self) -> dict[str, float]:
        """Kernel call accounting (:class:`repro.obs.api.Instrumented`)."""
        return {
            "batch_calls": float(self.batch_calls),
            "batch_docs": float(self.batch_docs),
            "waves": float(self.waves),
            "wave_docs": float(self.wave_docs),
        }

    def decide_topic_many(
        self,
        topic: str,
        bundles: Sequence[Bundle],
        mode: str,
    ) -> list[tuple[bool, float]]:
        """One topic's (is_positive, confidence) per bundle -- the
        ``confidence_for_batch`` path: one level evaluation per group."""
        if mode not in MODES:
            raise TrainingError(f"unknown decision mode {mode!r}")
        parent = self.parent_of.get(topic)
        level = self.levels.get(parent) if parent is not None else None
        if level is None or topic not in level.children:
            raise TrainingError(f"no compiled model for topic {topic!r}")
        column = level.children.index(topic)
        positive, confidence = level.decide_many(bundles, mode)
        return [
            (bool(positive[i, column]), float(confidence[i, column]))
            for i in range(len(bundles))
        ]


def _compile_level(parent, children, models, vectorizers) -> _LevelKernel:
    # one member per feature space for every child (_train_topic), so
    # the per-child rows below are all the same length
    precisions = np.asarray(
        [
            [member.estimate.precision for member in models[child].members]
            for child in children
        ],
        dtype=np.float64,
    )
    sums = precisions.sum(axis=1)
    kernel = _LevelKernel(
        parent=parent,
        children=list(children),
        precisions=precisions,
        precision_sums=sums,
        vote_weights=np.where((sums > 0.0)[:, None], precisions, 1.0),
        # the first member of maximal precision, like max() over members
        best_index=np.argmax(precisions, axis=1),
    )
    per_space: dict[str, list[tuple[int, int, object]]] = {}
    for child_index, child in enumerate(children):
        for position, member in enumerate(models[child].members):
            learner = member.svm
            if isinstance(learner, LinearSVM) and learner.is_trained:
                per_space.setdefault(member.space, []).append(
                    (child_index, position, member)
                )
            else:
                idf = vectorizers[member.space].statistics.idf
                kernel.fallbacks.append((
                    child_index, position, member,
                    {feature: idf(feature) for feature in member.features},
                ))
    for space, entries in per_space.items():
        kernel.blocks[space] = _compile_space_block(
            space, entries, vectorizers[space].statistics.idf
        )
    return kernel


def _compile_space_block(space, entries, idf) -> _SpaceBlock:
    vocabulary: dict[str, int] = {}
    exported = []
    for _child, _position, member in entries:
        exported.append(member.svm.export_linear())
        for feature in member.features:
            vocabulary.setdefault(feature, len(vocabulary))
    n_rows = len(entries)
    width = max(len(vocabulary), 1)
    stacked = np.zeros((n_rows, width))
    membership = np.zeros((n_rows, width))
    bias_column = np.zeros(n_rows)
    inv_weight_norm = np.zeros(n_rows)
    for row, ((_child, _position, member), (weights, bias, weight_norm)) in (
        enumerate(zip(entries, exported))
    ):
        for feature in member.features:
            membership[row, vocabulary[feature]] = 1.0
        for feature, weight in weights.items():
            # members project documents onto their selected feature set
            # before the dot product, so weights outside it (none in
            # practice) must stay invisible here too
            column = vocabulary.get(feature)
            if column is not None:
                stacked[row, column] = weight
        bias_column[row] = bias
        inv_weight_norm[row] = 1.0 / weight_norm if weight_norm > 0 else 0.0
    return _SpaceBlock(
        space=space,
        vocabulary=vocabulary,
        idf=np.asarray(
            [idf(feature) for feature in vocabulary], dtype=np.float64
        ),
        weights=stacked,
        membership=membership,
        bias=bias_column,
        inv_weight_norm=inv_weight_norm,
        child_rows=np.asarray([e[0] for e in entries], dtype=np.intp),
        member_rows=np.asarray([e[1] for e in entries], dtype=np.intp),
    )


def compile_classifier(classifier) -> CompiledClassifier:
    """Compile a trained ``HierarchicalClassifier`` into level kernels.

    The returned object is a pure snapshot of the models and of the
    vectorizers' idf: the owner discards it when it refreshes idf and
    compiles a new one.
    """
    if not classifier.trained:
        raise TrainingError("cannot compile an untrained classifier")
    tree = classifier.tree
    levels: dict[str, _LevelKernel] = {}
    others: dict[str, str] = {}
    for parent in tree.inner_nodes():
        children = [
            child for child in tree.children_of(parent)
            if child in classifier.models
        ]
        if not children:
            continue
        levels[parent] = _compile_level(
            parent, children, classifier.models, classifier.vectorizers
        )
        others[parent] = tree.others_of(parent)
    return CompiledClassifier(levels=levels, others=others)
