"""Feature-selection experiments (paper sections 2.3 and 3.5: E7, A5).

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

import numpy as np

from repro.core.config import BingoConfig
from repro.core.feature_selection import select_features
from repro.experiments.common import (
    CLASSIFIER_WEB,
    experiment_web,
    page_counts,
    train_topic,
)
from repro.experiments.reporting import ExperimentTable
from repro.ml.svm import LinearSVM
from repro.text.stemmer import stem
from repro.text.vectorizer import TfIdfVectorizer
from repro.web import PageRole, SyntheticWeb

__all__ = [
    "run_budget_selection_experiment",
    "run_feature_selection_experiment",
]

FEATURE_SELECTION_SEED = 41
BUDGET_SELECTION_SEED = 47
BUDGET_SELECTION_BUDGETS = (25, 100, 400, 1200)
"""A5's fixed feature budgets, and the xi-alpha candidates."""
TRAIN_PER_CLASS = 30
TEST_PER_CLASS = 80
_HARD_ROLES = (PageRole.HOMEPAGE, PageRole.CV)


def _target_vs_siblings(
    seed: int, per_class: int, rng: np.random.Generator
) -> tuple[SyntheticWeb, list[Counter], list[Counter]]:
    """Term counts of ``per_class`` target and sibling-topic
    homepages/CVs, each side shuffled by ``rng``.

    Negatives are *sibling research topics*: they share the category
    vocabulary with the target, so frequency-based rankings waste their
    budget on category terms that discriminate nothing -- the paper's
    "theorem separates math from agriculture but not algebra from
    stochastics" situation, one level up.
    """
    web = experiment_web(
        seed, **{**CLASSIFIER_WEB, "target_researchers": 130,
                 "other_researchers": 65},
    )
    target = web.config.target_topic
    positives = [
        p for p in web.pages_by_topic(target) if p.role in _HARD_ROLES
    ]
    siblings = [
        p for p in web.pages
        if p.topic in web.config.research_topics and p.topic != target
        and p.role in _HARD_ROLES
    ]
    rng.shuffle(positives)
    rng.shuffle(siblings)
    pos = [page_counts(web, p)["term"] for p in positives[:per_class]]
    neg = [page_counts(web, p)["term"] for p in siblings[:per_class]]
    return web, pos, neg


def run_feature_selection_experiment(
    budgets: tuple[int, ...] = (10, 40, 200),
    train_per_class: int = TRAIN_PER_CLASS,
    test_per_class: int = TEST_PER_CLASS,
) -> tuple[ExperimentTable, list[str]]:
    """MI vs tf vs random feature ranking at several budgets.

    Returns the accuracy table and the MI top-20 features that are true
    topic-signature stems.
    """
    seed = FEATURE_SELECTION_SEED
    rng = np.random.default_rng(seed)
    web, pos, neg = _target_vs_siblings(
        seed, train_per_class + test_per_class, rng
    )
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

    labels = [1] * len(pos_train) + [-1] * len(neg_train)
    test_labels = [1] * len(pos_test) + [-1] * len(neg_test)
    table = ExperimentTable(
        "Feature selection quality (section 2.3)",
        ["Method"] + [f"top {n}" for n in budgets],
        note="held-out accuracy of an SVM trained on the selected features",
    )
    for name, ranking in (
        ("MI", mi_ranked), ("tf", tf_ranked), ("random", random_ranked),
    ):
        accuracies = []
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
            accuracies.append(correct / len(test_labels))
        table.add_row([name] + accuracies)

    signature = {
        stem(w) for w in web.universe.spec(web.config.target_topic).signature
    }
    return table, [f for f in mi_ranked[:20] if f in signature]


def run_budget_selection_experiment() -> ExperimentTable:
    """Does xi-alpha pick a good feature count without test data?

    Trains one single-topic classifier per fixed budget plus one with
    ``feature_budget_candidates`` set (the engine's adaptive mode) and
    compares held-out accuracy.  The adaptive model should land within a
    small delta of the best fixed budget -- which is the point: BINGO!
    tunes this knob from training data alone.
    """
    seed, budgets = BUDGET_SELECTION_SEED, BUDGET_SELECTION_BUDGETS
    web, pos, neg = _target_vs_siblings(
        seed, TRAIN_PER_CLASS + TEST_PER_CLASS, np.random.default_rng(seed)
    )
    target = web.config.target_topic
    pos_docs = [{"term": counts} for counts in pos]
    neg_docs = [{"term": counts} for counts in neg]

    training = (pos_docs[:TRAIN_PER_CLASS], neg_docs[:TRAIN_PER_CLASS])
    def accuracy(classifier) -> float:
        # one batch call per held-out side: the kernel is built once and
        # the wave-based descent scores the whole evaluation set together
        pos_held = pos_docs[TRAIN_PER_CLASS:]
        neg_held = neg_docs[TRAIN_PER_CLASS:]
        correct = sum(
            1 for r in classifier.classify_batch(pos_held) if r.accepted
        ) + sum(
            1 for r in classifier.classify_batch(neg_held) if not r.accepted
        )
        total = len(pos_held) + len(neg_held)
        return correct / total if total else 0.0

    table = ExperimentTable(
        "xi-alpha feature-budget selection (section 3.5)",
        ["Model", "Features", "Held-out accuracy"],
        note="the estimator picks the budget before seeing test data",
    )
    for budget in budgets:
        config = BingoConfig(
            seed=seed, tf_preselection=10_000, selected_features=budget,
        )
        classifier = train_topic(target, config, *training)
        table.add_row([f"fixed {budget}", budget, accuracy(classifier)])
    adaptive = train_topic(
        target,
        BingoConfig(
            seed=seed, tf_preselection=10_000,
            selected_features=max(budgets),
            feature_budget_candidates=tuple(budgets),
        ),
        *training,
    )
    member = adaptive.models[f"ROOT/{target}"].members[0]
    table.add_row(
        ["xi-alpha chosen", member.feature_budget, accuracy(adaptive)]
    )
    return table
