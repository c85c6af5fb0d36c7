"""The hierarchical classifier compiled into per-level numpy kernels.

The reference decision phase (:class:`repro.core.classifier.
HierarchicalClassifier.classify_reference`) pays one dict projection,
one dict normalisation and one dict dot product per (child, feature
space) pair at every descent step.  Compilation flattens each tree
level into CSR-style blocks: one vocabulary per (level, space), a
stacked weight matrix with one row per child model, and a 0/1
membership matrix encoding each model's selected-feature set.  A
descent step is then a single sparse gather of the document against the
level vocabulary followed by two small matvecs:

    dots   = W[:, cols] @ vals            (stacked w . x)
    norms2 = M[:, cols] @ vals**2         (per-model projected norm)
    decision = dots / sqrt(norms2) + bias (norm 0 -> divide by 1)
    distance = decision / ||w||           (||w|| 0 -> 0)

which reproduces ``LinearSVM.decision``/``distance`` on the projected,
unit-normalised document exactly (up to float associativity; parity
tests bound the drift at 1e-9).  Members whose learner has no linear
form (Naive Bayes, Rocchio, MaxEnt nodes) fall back to the reference
member object, so compilation never changes semantics.

Compiled kernels are immutable snapshots of one trained model: the
owning classifier tags them with its ``model_version`` and recompiles
lazily after every (re)training point.
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse

from repro.errors import TrainingError
from repro.ml.svm import LinearSVM
from repro.text.vectorizer import SparseVector

__all__ = ["CompiledClassifier", "compile_classifier"]

#: decision-combination modes (mirrors repro.core.classifier.MODES)
MODES = ("single", "unanimous", "majority", "weighted", "best")


@dataclass
class _SpaceBlock:
    """Stacked linear members of one (tree level, feature space)."""

    space: str
    vocabulary: dict[str, int]
    weights: np.ndarray
    """(rows, vocab) stacked SVM weight rows."""
    membership: np.ndarray
    """(rows, vocab) 1.0 where the feature is in the row's selected set."""
    bias: np.ndarray
    inv_weight_norm: np.ndarray
    """1/||w|| per row (0 where ||w|| == 0, matching ``distance``)."""
    rows: list[tuple[int, int]]
    """(child index, member position) destination of each stacked row."""

    def gather(self, vector: SparseVector) -> tuple[np.ndarray, np.ndarray]:
        """The document restricted to this block's vocabulary."""
        vocabulary = self.vocabulary
        cols: list[int] = []
        vals: list[float] = []
        for feature, weight in vector.weights.items():
            column = vocabulary.get(feature)
            if column is not None:
                cols.append(column)
                vals.append(weight)
        return (
            np.asarray(cols, dtype=np.intp),
            np.asarray(vals, dtype=np.float64),
        )

    def evaluate(self, vector: SparseVector) -> tuple[np.ndarray, np.ndarray]:
        """(decisions, distances) for every stacked row."""
        n_rows = self.weights.shape[0]
        cols, vals = self.gather(vector)
        if cols.size:
            dots = self.weights[:, cols] @ vals
            norms = np.sqrt(self.membership[:, cols] @ (vals * vals))
        else:
            dots = np.zeros(n_rows)
            norms = np.zeros(n_rows)
        divisor = np.where(norms > 0.0, norms, 1.0)
        decisions = dots / divisor + self.bias
        distances = decisions * self.inv_weight_norm
        return decisions, distances

    def evaluate_many(
        self, vectors: Sequence[SparseVector | None]
    ) -> tuple[np.ndarray, np.ndarray]:
        """(decisions, distances) of shape (docs, rows) for a whole group.

        One CSR gather over the group, then two sparse-dense matmats
        replace the per-document matvecs of :meth:`evaluate`.  Documents
        whose bundle is missing this space score 0.0 (the reference
        contract), not ``bias``.
        """
        g = len(vectors)
        vocabulary = self.vocabulary
        indptr = np.zeros(g + 1, dtype=np.intp)
        cols: list[int] = []
        vals: list[float] = []
        present = np.zeros(g, dtype=bool)
        for i, vector in enumerate(vectors):
            if vector is not None:
                present[i] = True
                for feature, weight in vector.weights.items():
                    column = vocabulary.get(feature)
                    if column is not None:
                        cols.append(column)
                        vals.append(weight)
            indptr[i + 1] = len(cols)
        data = np.asarray(vals, dtype=np.float64)
        indices = np.asarray(cols, dtype=np.int32)
        shape = (g, self.weights.shape[1])
        dots = sparse.csr_matrix((data, indices, indptr), shape=shape) \
            @ self.weights.T
        norms = np.sqrt(
            sparse.csr_matrix((data * data, indices, indptr), shape=shape)
            @ self.membership.T
        )
        divisor = np.where(norms > 0.0, norms, 1.0)
        decisions = dots / divisor + self.bias[None, :]
        distances = decisions * self.inv_weight_norm[None, :]
        decisions[~present] = 0.0
        distances[~present] = 0.0
        return decisions, distances


@dataclass
class _LevelKernel:
    """All child models competing at one tree node."""

    parent: str
    children: list[str]
    member_counts: list[int]
    precisions: list[list[float]]
    best_index: list[int]
    blocks: dict[str, _SpaceBlock] = field(default_factory=dict)
    fallbacks: list[tuple[int, int, object]] = field(default_factory=list)
    """(child index, member position, NodeClassifier) for members
    without a compilable linear form."""
    _batch_tables: dict | None = field(default=None, repr=False)

    def member_scores(
        self, vectors: Mapping[str, SparseVector]
    ) -> tuple[list[list[float]], list[list[float]]]:
        """Per-child (decisions, distances) in reference member order."""
        decisions = [[0.0] * count for count in self.member_counts]
        distances = [[0.0] * count for count in self.member_counts]
        for block in self.blocks.values():
            vector = vectors.get(block.space)
            if vector is None:
                continue  # reference: a missing space scores 0.0
            dec, dist = block.evaluate(vector)
            for (child, position), d, t in zip(block.rows, dec, dist):
                decisions[child][position] = float(d)
                distances[child][position] = float(t)
        for child, position, member in self.fallbacks:
            decisions[child][position] = member.decision(vectors)
            distances[child][position] = member.distance(vectors)
        return decisions, distances

    def decide(
        self,
        vectors: Mapping[str, SparseVector],
        mode: str,
        threshold: float,
    ) -> list[tuple[str, bool, float]]:
        """(child, is_positive, confidence) per child under ``mode``,
        combining member votes exactly like ``TopicDecisionModel.decide``."""
        decisions, distances = self.member_scores(vectors)
        results = []
        for index, child in enumerate(self.children):
            results.append((
                child,
                *_combine(
                    decisions[index],
                    distances[index],
                    self.precisions[index],
                    self.best_index[index],
                    mode,
                    threshold,
                ),
            ))
        return results

    def _tables(self) -> dict:
        """Lazily-built arrays for the batch path.  ``uniform`` is False
        when children disagree on member count (ragged score matrices);
        the batch path then falls back to per-document :meth:`decide`."""
        if self._batch_tables is None:
            uniform = len(set(self.member_counts)) <= 1
            tables: dict = {"uniform": uniform}
            if uniform:
                precisions = np.asarray(self.precisions, dtype=np.float64)
                sums = precisions.sum(axis=1)
                tables["precisions"] = precisions
                tables["precision_sums"] = sums
                tables["precisions_valid"] = sums > 0.0
                # vote weights: precisions, or all-ones when they sum <= 0
                tables["vote_weights"] = np.where(
                    (sums > 0.0)[:, None], precisions, 1.0
                )
                tables["best_index"] = np.asarray(
                    self.best_index, dtype=np.intp
                )
                tables["scatter"] = {
                    space: (
                        np.asarray([r[0] for r in block.rows], dtype=np.intp),
                        np.asarray([r[1] for r in block.rows], dtype=np.intp),
                    )
                    for space, block in self.blocks.items()
                }
            self._batch_tables = tables
        return self._batch_tables

    def decide_many(
        self,
        bundles: Sequence[Mapping[str, SparseVector]],
        mode: str,
        threshold: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """(is_positive, confidence) arrays of shape (docs, children).

        The group is scored with one :meth:`_SpaceBlock.evaluate_many`
        call per feature space and the mode combination is vectorised
        over the whole group -- semantics identical to :meth:`decide`.
        """
        g = len(bundles)
        n_children = len(self.children)
        tables = self._tables()
        if not tables["uniform"]:
            positive = np.zeros((g, n_children), dtype=bool)
            confidence = np.zeros((g, n_children))
            for i, bundle in enumerate(bundles):
                for j, (_child, is_pos, conf) in enumerate(
                    self.decide(bundle, mode, threshold)
                ):
                    positive[i, j] = is_pos
                    confidence[i, j] = conf
            return positive, confidence
        members = self.member_counts[0]
        decisions = np.zeros((g, n_children, members))
        distances = np.zeros((g, n_children, members))
        for block in self.blocks.values():
            child_rows, member_rows = tables["scatter"][block.space]
            dec, dist = block.evaluate_many(
                [bundle.get(block.space) for bundle in bundles]
            )
            decisions[:, child_rows, member_rows] = dec
            distances[:, child_rows, member_rows] = dist
        for child, position, member in self.fallbacks:
            for i, bundle in enumerate(bundles):
                decisions[i, child, position] = member.decision(bundle)
                distances[i, child, position] = member.distance(bundle)
        return self._combine_many(
            decisions, distances, tables, mode, threshold
        )

    def _combine_many(
        self,
        decisions: np.ndarray,
        distances: np.ndarray,
        tables: dict,
        mode: str,
        threshold: float,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorised :func:`_combine` over (docs, children, members)."""
        if mode in ("single", "best"):
            if mode == "single":
                member_of_child = np.zeros(decisions.shape[1], dtype=np.intp)
            else:
                member_of_child = tables["best_index"]
            child_range = np.arange(decisions.shape[1])
            chosen_dec = decisions[:, child_range, member_of_child]
            chosen_dist = distances[:, child_range, member_of_child]
            return chosen_dec > threshold, chosen_dist
        votes = np.where(decisions > threshold, 1.0, -1.0)
        if mode == "unanimous":
            positive = (votes > 0.0).all(axis=2)
        elif mode == "majority":
            positive = votes.sum(axis=2) > 0.0
        else:  # weighted by xi-alpha precision
            positive = (votes * tables["vote_weights"][None]).sum(axis=2) > 0.0
        if mode == "weighted":
            sums = tables["precision_sums"]
            weighted = (
                (distances * tables["precisions"][None]).sum(axis=2)
                / np.where(sums > 0.0, sums, 1.0)[None]
            )
            confidence = np.where(
                tables["precisions_valid"][None],
                weighted,
                distances.mean(axis=2),
            )
        else:
            confidence = distances.mean(axis=2)
        return positive, confidence


def _combine(
    decisions: list[float],
    distances: list[float],
    precisions: list[float],
    best_index: int,
    mode: str,
    threshold: float,
) -> tuple[bool, float]:
    if mode in ("single", "best"):
        member = 0 if mode == "single" else best_index
        return decisions[member] > threshold, distances[member]
    votes = [1 if decision > threshold else -1 for decision in decisions]
    if mode == "unanimous":
        positive = all(vote > 0 for vote in votes)
    elif mode == "majority":
        positive = sum(votes) > 0
    else:  # weighted by xi-alpha precision
        weights = precisions
        if sum(weights) <= 0:
            weights = [1.0] * len(votes)
        positive = sum(w * v for w, v in zip(weights, votes)) > 0
    if mode == "weighted" and sum(precisions) > 0:
        total = sum(precisions)
        confidence = sum(
            w * d for w, d in zip(precisions, distances)
        ) / total
    else:
        confidence = sum(distances) / len(distances)
    return positive, confidence


class CompiledClassifier:
    """A compiled snapshot of one trained hierarchical model.

    ``classify`` returns plain ``(topic, confidence, path)`` tuples so
    the kernel stays decoupled from :mod:`repro.core.classifier`, which
    wraps them into :class:`ClassificationResult`.
    """

    def __init__(
        self,
        levels: dict[str, _LevelKernel],
        others: dict[str, str],
        model_version: int,
    ) -> None:
        self.levels = levels
        self.others = others
        self.model_version = model_version
        self.parent_of: dict[str, str] = {
            child: parent
            for parent, level in levels.items()
            for child in level.children
        }
        # call accounting: proves which descent path (per-document vs
        # wave-based batch) a caller actually exercised
        self.single_calls = 0
        self.batch_calls = 0
        self.batch_docs = 0
        self.waves = 0
        """Tree-level waves executed by :meth:`classify_many` (one wave =
        one sparse matmat per feature space over one node's cohort)."""
        self.wave_docs = 0
        """Documents summed over all waves (cohort sizes)."""

    def classify(
        self,
        vectors: Mapping[str, SparseVector],
        mode: str,
        threshold: float,
    ) -> tuple[str, float, tuple[tuple[str, float], ...]]:
        """Top-down descent, mirroring the reference ``classify`` exactly."""
        if mode not in MODES:
            raise TrainingError(f"unknown decision mode {mode!r}")
        self.single_calls += 1
        current = "ROOT"
        path: list[tuple[str, float]] = []
        confidence = 0.0
        while True:
            level = self.levels.get(current)
            if level is None:
                break
            decisions = level.decide(vectors, mode, threshold)
            positive = [
                (child, conf) for child, is_pos, conf in decisions if is_pos
            ]
            if not positive:
                best_rejection = max(conf for _, _, conf in decisions)
                return self.others[current], best_rejection, tuple(path)
            child, confidence = max(positive, key=lambda pair: pair[1])
            path.append((child, confidence))
            current = child
        return current, confidence, tuple(path)

    def classify_many(
        self,
        bundles: Sequence[Mapping[str, SparseVector]],
        mode: str,
        threshold: float,
    ) -> list[tuple[str, float, tuple[tuple[str, float], ...]]]:
        """Wave-based batch descent: documents sitting at the same tree
        node are scored together (:meth:`_LevelKernel.decide_many`), so
        each level costs one sparse matmat per feature space instead of
        per-document matvecs.  Results are in input order and identical
        to per-document :meth:`classify`.
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
                [bundles[i] for i in doc_ids], mode, threshold
            )
            # among positive children take the first maximal confidence,
            # exactly like max(positive, key=confidence) in classify()
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
            "single_calls": float(self.single_calls),
            "batch_calls": float(self.batch_calls),
            "batch_docs": float(self.batch_docs),
            "waves": float(self.waves),
            "wave_docs": float(self.wave_docs),
        }

    def decide_topic_many(
        self,
        topic: str,
        bundles: Sequence[Mapping[str, SparseVector]],
        mode: str,
        threshold: float,
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
        positive, confidence = level.decide_many(bundles, mode, threshold)
        return [
            (bool(positive[i, column]), float(confidence[i, column]))
            for i in range(len(bundles))
        ]


def _compile_level(parent, children, models) -> _LevelKernel:
    member_counts = [len(models[child].members) for child in children]
    precisions = [
        [member.estimate.precision for member in models[child].members]
        for child in children
    ]
    best_index = [
        max(
            range(len(models[child].members)),
            key=lambda i: models[child].members[i].estimate.precision,
        )
        for child in children
    ]
    kernel = _LevelKernel(
        parent=parent,
        children=list(children),
        member_counts=member_counts,
        precisions=precisions,
        best_index=best_index,
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
                kernel.fallbacks.append((child_index, position, member))
    for space, entries in per_space.items():
        kernel.blocks[space] = _compile_space_block(space, entries)
    return kernel


def _compile_space_block(space, entries) -> _SpaceBlock:
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
    rows: list[tuple[int, int]] = []
    for row, ((child, position, member), (weights, bias, weight_norm)) in (
        enumerate(zip(entries, exported))
    ):
        for feature in member.features:
            membership[row, vocabulary[feature]] = 1.0
        for feature, weight in weights.items():
            # the reference path projects documents onto the selected
            # feature set before the dot product, so weights outside it
            # (none in practice) must stay invisible here too
            column = vocabulary.get(feature)
            if column is not None:
                stacked[row, column] = weight
        bias_column[row] = bias
        inv_weight_norm[row] = 1.0 / weight_norm if weight_norm > 0 else 0.0
        rows.append((child, position))
    return _SpaceBlock(
        space=space,
        vocabulary=vocabulary,
        weights=stacked,
        membership=membership,
        bias=bias_column,
        inv_weight_norm=inv_weight_norm,
        rows=rows,
    )


def compile_classifier(classifier) -> CompiledClassifier:
    """Compile a trained ``HierarchicalClassifier`` into level kernels.

    The returned object is a pure snapshot: retraining the source
    classifier bumps its ``model_version`` and the owner recompiles.
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
        levels[parent] = _compile_level(parent, children, classifier.models)
        others[parent] = tree.others_of(parent)
    return CompiledClassifier(
        levels=levels,
        others=others,
        model_version=getattr(classifier, "model_version", 0),
    )
