"""Feature-selection experiment (paper section 2.3, experiment E7).

The paper selects the top 2000 features per topic by Mutual Information,
pre-filtering to the 5000 most frequent in-topic terms, and reports that
MI "is known as one of the most effective methods [24]".  We quantify
that on the synthetic corpus: rank features by MI, by raw tf, and
randomly; train an SVM on the top-N features for several N; and compare
held-out accuracy.  MI should dominate at small feature budgets and the
curves should converge as N grows -- the Yang/Pedersen (ICML 1997) shape.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core.feature_selection import select_features
from repro.experiments.reporting import ExperimentTable
from repro.ml.svm import LinearSVM
from repro.text.features import analyze_page
from repro.text.vectorizer import TfIdfVectorizer
from repro.web import PageRole, SyntheticWeb, WebGraphConfig

__all__ = ["FeatureSelectionResult", "run_feature_selection_experiment"]


@dataclass
class FeatureSelectionResult:
    """Held-out accuracy per (ranking method, feature budget)."""

    budgets: list[int]
    accuracy: dict[str, list[float]]
    signature_hits: list[str]
    """Top MI features that are true topic-signature stems."""

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            "Feature selection quality (section 2.3)",
            ["Method"] + [f"top {n}" for n in self.budgets],
            note="held-out accuracy of an SVM trained on the selected features",
        )
        for method, accuracies in self.accuracy.items():
            table.add_row([method] + [round(a, 3) for a in accuracies])
        return table


def _counts(web: SyntheticWeb, page) -> Counter:
    return analyze_page(web.renderer.render(page))[0]["term"]


def run_feature_selection_experiment(
    seed: int = 41,
    budgets: tuple[int, ...] = (10, 40, 200),
    train_per_class: int = 30,
    test_per_class: int = 80,
) -> FeatureSelectionResult:
    """MI vs tf vs random feature ranking at several budgets."""
    web = SyntheticWeb.generate(
        WebGraphConfig(
            seed=seed, target_researchers=130, other_researchers=65,
            universities=25, hubs_per_topic=4,
            background_hosts_per_category=8, pages_per_background_host=6,
            directory_pages_per_category=8,
        )
    )
    target = web.config.target_topic
    rng = np.random.default_rng(seed)
    # Negatives are *sibling research topics*: they share the category
    # vocabulary with the target, so frequency-based rankings waste their
    # budget on category terms that discriminate nothing -- the paper's
    # "theorem separates math from agriculture but not algebra from
    # stochastics" situation, one level up.
    sibling_topics = [
        t for t in web.config.research_topics if t != target
    ]
    hard_roles = (PageRole.HOMEPAGE, PageRole.CV)
    positives = [
        p for p in web.pages_by_topic(target) if p.role in hard_roles
    ]
    negatives = [
        p for p in web.pages
        if p.topic in sibling_topics and p.role in hard_roles
    ]
    rng.shuffle(positives)
    rng.shuffle(negatives)
    pos = [_counts(web, p) for p in positives[: train_per_class + test_per_class]]
    neg = [_counts(web, p) for p in negatives[: train_per_class + test_per_class]]
    pos_train, pos_test = pos[:train_per_class], pos[train_per_class:]
    neg_train, neg_test = neg[:train_per_class], neg[train_per_class:]

    vectorizer = TfIdfVectorizer()
    for counts in pos_train + neg_train:
        vectorizer.ingest(counts.keys())
    vectorizer.refresh()

    # -- the three rankings, from the training data only -----------------
    mi_ranked = [
        score.feature
        for score in select_features(
            {"topic": pos_train, "rest": neg_train}, "topic",
            tf_preselection=100_000, selected_features=100_000,
        )
    ]
    tf_totals: Counter = Counter()
    for counts in pos_train:
        tf_totals.update(counts)
    tf_ranked = [term for term, _ in tf_totals.most_common()]
    all_terms = sorted(
        {t for counts in pos_train + neg_train for t in counts}
    )
    random_ranked = list(all_terms)
    rng.shuffle(random_ranked)

    rankings = {"MI": mi_ranked, "tf": tf_ranked, "random": random_ranked}
    labels = [1] * len(pos_train) + [-1] * len(neg_train)
    test_labels = [1] * len(pos_test) + [-1] * len(neg_test)

    accuracy: dict[str, list[float]] = {name: [] for name in rankings}
    for name, ranking in rankings.items():
        for budget in budgets:
            keep = set(ranking[:budget])
            train_vectors = [
                vectorizer.vectorize_counts(c).project(keep)
                for c in pos_train + neg_train
            ]
            test_vectors = [
                vectorizer.vectorize_counts(c).project(keep)
                for c in pos_test + neg_test
            ]
            svm = LinearSVM(C=1.0, seed=seed).fit(train_vectors, labels)
            correct = sum(
                svm.predict(v) == label
                for v, label in zip(test_vectors, test_labels)
            )
            accuracy[name].append(correct / len(test_labels))

    signature = set(web.universe.spec(target).signature)
    signature_hits = [f for f in mi_ranked[:20] if f in _stem_all(signature)]
    return FeatureSelectionResult(
        budgets=list(budgets),
        accuracy=accuracy,
        signature_hits=signature_hits,
    )


def _stem_all(words) -> set[str]:
    from repro.text.stemmer import stem

    return {stem(w) for w in words}


@dataclass
class BudgetSelectionResult:
    """Fixed feature budgets vs the xi-alpha-chosen one (paper 3.5)."""

    rows: list[tuple[str, int, float]]
    """(label, budget used, held-out accuracy)"""
    chosen_budget: int

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            "xi-alpha feature-budget selection (section 3.5)",
            ["Model", "Features", "Held-out accuracy"],
            note="the estimator picks the budget before seeing test data",
        )
        for label, budget, accuracy in self.rows:
            table.add_row([label, budget, round(accuracy, 3)])
        return table

    def accuracy_of(self, label: str) -> float:
        for row_label, _budget, accuracy in self.rows:
            if row_label == label:
                return accuracy
        raise KeyError(label)


def run_budget_selection_experiment(
    seed: int = 47,
    budgets: tuple[int, ...] = (25, 100, 400, 1200),
    train_per_class: int = 30,
    test_per_class: int = 80,
) -> BudgetSelectionResult:
    """Does xi-alpha pick a good feature count without test data?

    Trains one single-topic classifier per fixed budget plus one with
    ``feature_budget_candidates`` set (the engine's adaptive mode) and
    compares held-out accuracy.  The adaptive model should land within a
    small delta of the best fixed budget -- which is the point: BINGO!
    tunes this knob from training data alone.
    """
    from repro.core.classifier import HierarchicalClassifier
    from repro.core.config import BingoConfig
    from repro.core.ontology import TopicTree

    web = SyntheticWeb.generate(
        WebGraphConfig(
            seed=seed, target_researchers=130, other_researchers=65,
            universities=25, hubs_per_topic=4,
            background_hosts_per_category=8, pages_per_background_host=6,
            directory_pages_per_category=8,
        )
    )
    target = web.config.target_topic
    rng = np.random.default_rng(seed)
    hard_roles = (PageRole.HOMEPAGE, PageRole.CV)
    positives = [
        p for p in web.pages_by_topic(target) if p.role in hard_roles
    ]
    siblings = [
        p for p in web.pages
        if p.topic in web.config.research_topics and p.topic != target
        and p.role in hard_roles
    ]
    rng.shuffle(positives)
    rng.shuffle(siblings)
    pos = positives[: train_per_class + test_per_class]
    neg = siblings[: train_per_class + test_per_class]
    pos_docs = [{"term": _counts(web, p)} for p in pos]
    neg_docs = [{"term": _counts(web, p)} for p in neg]

    def build(config) -> HierarchicalClassifier:
        tree = TopicTree.from_leaves([target])
        classifier = HierarchicalClassifier(tree, config)
        training = {
            f"ROOT/{target}": pos_docs[:train_per_class],
            "ROOT/OTHERS": neg_docs[:train_per_class],
        }
        for docs in training.values():
            for doc in docs:
                classifier.ingest(doc)
        classifier.train(training)
        return classifier

    def accuracy(classifier) -> float:
        # one batch call per held-out side: the kernel is built once and
        # the wave-based descent scores the whole evaluation set together
        pos_held = pos_docs[train_per_class:]
        neg_held = neg_docs[train_per_class:]
        correct = sum(
            1 for r in classifier.classify_batch(pos_held) if r.accepted
        ) + sum(
            1 for r in classifier.classify_batch(neg_held) if not r.accepted
        )
        total = len(pos_held) + len(neg_held)
        return correct / total if total else 0.0

    rows: list[tuple[str, int, float]] = []
    for budget in budgets:
        config = BingoConfig(
            seed=seed, tf_preselection=10_000, selected_features=budget,
        )
        rows.append((f"fixed {budget}", budget, accuracy(build(config))))
    adaptive_config = BingoConfig(
        seed=seed, tf_preselection=10_000,
        selected_features=max(budgets),
        feature_budget_candidates=tuple(budgets),
    )
    adaptive = build(adaptive_config)
    member = adaptive.models[f"ROOT/{target}"].members[0]
    rows.append(
        ("xi-alpha chosen", member.feature_budget, accuracy(adaptive))
    )
    return BudgetSelectionResult(rows=rows, chosen_budget=member.feature_budget)
