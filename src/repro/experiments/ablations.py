"""Design-choice ablations (experiments A1-A4 and A6 in DESIGN.md).

Each ablation isolates one of the improvements sections 3.1-3.4 of the
paper introduced after "fairly mixed success" with the first prototype:

* **A1** sharp vs soft focus x tunnelling on/off (section 3.3);
* **A2** archetype mean-confidence threshold on/off -- the topic-drift
  guard (section 3.2);
* **A3** systematic vs arbitrary negative examples for OTHERS (3.1);
* **A4** feature spaces: terms vs term pairs vs anchors vs combined (3.4);
* **A6** the node learner: SVM vs MaxEnt vs Naive Bayes vs Rocchio (1.2).

Because the synthetic Web knows every page's true topic, ablations can
measure *true* precision (accepted documents whose underlying page truly
belongs to the target topic) and true recall against the page inventory
-- something the paper could only estimate by hand.  Each runner returns
the :class:`ExperimentTable` it renders, holding the raw values.
"""

from __future__ import annotations

import numpy as np

from repro.core import BingoConfig
from repro.core.archetypes import select_archetypes
from repro.core.config import NODE_CLASSIFIERS
from repro.core.crawler import FocusedCrawler
from repro.core.records import SHARP, SOFT, PhaseSettings
from repro.experiments.common import (
    experiment_web,
    mean_over_seeds,
    page_counts,
    train_topic,
)
from repro.experiments.metrics import BinaryCounts, ranking_precision_at_k
from repro.experiments.reporting import ExperimentTable
from repro.ml.svm import LinearSVM
from repro.ml.xialpha import xi_alpha_estimate
from repro.text.features import (
    AnchorTextSpace,
    CombinedSpace,
    TermPairSpace,
    TermSpace,
)
from repro.text.scanner import text_stems
from repro.text.stopwords import ANCHOR_STOPWORDS
from repro.text.vectorizer import TfIdfVectorizer
from repro.web import PageRole, SyntheticWeb

__all__ = [
    "run_focus_ablation",
    "run_archetype_ablation",
    "run_negatives_ablation",
    "run_feature_space_ablation",
    "run_classifier_ablation",
]

FOCUS_SEED = 53
NEGATIVES_SEED = 61
FEATURE_SPACE_SEED = 67
CLASSIFIER_SEED = 89
CLASSIFIER_BUDGET = 400
"""A6's fetch budget per learner."""
PROMOTIONS_PER_ROUND = 20


def _true_topic(web: SyntheticWeb, doc) -> str | None:
    if doc.page_id is None:
        return None
    return web.pages[doc.page_id].topic


def _paper_vs_directory(
    web: SyntheticWeb, target: str
) -> tuple[list[dict], list[dict]]:
    """A1/A6 training sets: 25 paper pages vs 25 directory pages."""
    positives = [
        page_counts(web, p)
        for p in web.pages_by_topic(target)
        if p.role == PageRole.PAPER
    ][:25]
    negatives = [page_counts(web, p) for p in web.negative_example_pages(25)]
    return positives, negatives


def _crawl_and_score(
    web: SyntheticWeb, classifier, config: BingoConfig, seeds: list[str],
    settings: PhaseSettings,
) -> tuple[int, int, float, set[int]]:
    """Crawl under ``settings`` with a fixed classifier: visited, accepted,
    true precision of the accepted and the target pages found."""
    target = web.config.target_topic
    topic = f"ROOT/{target}"
    crawler = FocusedCrawler(web, classifier, config)
    crawler.seed(seeds, topic=topic, priority=10.0)
    stats = crawler.crawl(settings)
    accepted = [doc for doc in crawler.ctx.documents if doc.topic == topic]
    correct = sum(1 for doc in accepted if _true_topic(web, doc) == target)
    found = {
        doc.page_id for doc in crawler.ctx.documents
        if _true_topic(web, doc) == target
    }
    precision = correct / len(accepted) if accepted else 0.0
    return stats.visited_urls, len(accepted), precision, found


# ---------------------------------------------------------------------------
# A1: focus rules and tunnelling
# ---------------------------------------------------------------------------


def run_focus_ablation(budget: int = 500) -> ExperimentTable:
    """Crawl the same Web under the four focus/tunnelling combinations."""
    # half the homepages hide behind topic-unspecific welcome pages
    web = experiment_web(FOCUS_SEED, welcome_only_rate=0.5)
    target = web.config.target_topic
    hidden_homepages = {
        web.researchers[a].homepage_page_id
        for a in web.welcome_only
        if web.researchers[a].topic == target
    }
    # One fixed classifier for all variants, so the comparison isolates
    # the crawl policy (the engine's learning phase always tunnels and
    # would blur the contrast).
    config = BingoConfig(
        seed=FOCUS_SEED, selected_features=800, tf_preselection=3000,
    )
    classifier = train_topic(
        target, config, *_paper_vs_directory(web, target)
    )
    seeds = web.seed_homepages(3, topic=target)
    table = ExperimentTable(
        "A1: focus strategy x tunnelling (section 3.3)",
        ["Variant", "Visited", "Accepted", "True precision",
         "Target pages found", "Hidden authors reached"],
        note=(
            "hidden authors are linked only from topic-unspecific "
            "welcome pages -- tunnelling territory"
        ),
    )
    for name, focus, tunnelling in (
        ("sharp, no tunnelling", SHARP, False),
        ("sharp + tunnelling", SHARP, True),
        ("soft, no tunnelling", SOFT, False),
        ("soft + tunnelling", SOFT, True),
    ):
        visited, accepted, precision, found = _crawl_and_score(
            web, classifier, config, seeds,
            PhaseSettings(
                name=name, focus=focus, tunnelling=tunnelling,
                decision_mode="single", fetch_budget=budget,
            ),
        )
        table.add_row(
            [name, visited, accepted, precision, len(found),
             len(found & hidden_homepages)]
        )
    return table


# ---------------------------------------------------------------------------
# A2: archetype confidence threshold (topic drift)
# ---------------------------------------------------------------------------


def run_archetype_ablation(
    seeds: tuple[int, ...] = (59, 61, 67, 71),
    rounds: int = 5,
) -> ExperimentTable:
    """Averaged drift comparison over several seeds (drift is a runaway
    phenomenon: single runs may or may not tip over)."""
    table = ExperimentTable(
        "A2: archetype confidence threshold (section 3.2)",
        ["Variant", "Archetypes added", "Training purity",
         "Held-out true precision"],
        note=(
            "purity = promoted training docs truly of the target "
            "topic; precision = ranking precision@k on a held-out "
            f"target/sibling mix; means over seeds {list(seeds)}"
        ),
    )
    for variant, added, purity, precision in mean_over_seeds(
        _archetype_one_seed(seed, rounds) for seed in seeds
    ):
        table.add_row([variant, round(added, 1), purity, precision])
    return table


def _archetype_one_seed(
    seed: int, rounds: int
) -> dict[str, tuple[float, float, float]]:
    """Iterated archetype promotion with and without the admission rule.

    This is a controlled version of the retraining loop: each round a
    candidate pool (target pages mixed with sibling-topic and background
    pages) is classified, positively classified candidates are promoted
    through :func:`select_archetypes`, and the classifier is retrained on
    the grown training set.  Without the mean-confidence threshold,
    borderline sibling pages that sneak past the classifier get promoted,
    poisoning the next round's model -- the compounding "topic drift" of
    section 3.2.  The threshold admits only candidates more confident
    than the current training mean, which blocks the borderline poison.
    """
    web = experiment_web(
        seed, other_researchers=60,
        vocab_sibling_overlap=0.45,   # confusable siblings
        interdisciplinary_rate=0.35,  # heterogeneous researcher pages
    )
    target = web.config.target_topic
    topic = f"ROOT/{target}"

    rng_master = np.random.default_rng(seed)
    # paper-faithful candidate mix: dense papers are the good archetypes
    # hiding among borderline homepages/CVs and sibling material
    roles = (
        PageRole.HOMEPAGE, PageRole.PUBLICATIONS, PageRole.CV,
        PageRole.PAPER,
    )
    target_pages = [p for p in web.pages_by_topic(target) if p.role in roles]
    sibling_pages = [
        p for p in web.pages
        if p.topic in web.config.research_topics and p.topic != target
        and p.role in roles
    ]
    background_pages = web.pages_by_role(PageRole.BACKGROUND)
    rng_master.shuffle(target_pages)
    rng_master.shuffle(sibling_pages)
    rng_master.shuffle(background_pages)
    seeds = target_pages[:3]
    held_out = target_pages[3:63] + sibling_pages[:60]

    results: dict[str, tuple[float, float, float]] = {}
    for name, enforce in (
        ("threshold on (paper 3.2)", True),
        ("threshold off", False),
    ):
        config = BingoConfig(
            seed=seed, selected_features=250, tf_preselection=1500,
        )
        training: dict[int, tuple[dict, float]] = {
            page.page_id: (page_counts(web, page), 0.0) for page in seeds
        }
        negatives = [
            page_counts(web, p)
            for p in web.negative_example_pages(12, seed=seed)
        ]
        pool_rng = np.random.default_rng(seed + 1)
        classifier = train_topic(
            target, config, [doc for doc, _conf in training.values()],
            negatives,
        )
        promoted_ids: list[int] = []
        for round_index in range(rounds):
            # Bootstrap warm-up: with only a handful of seeds the paper
            # itself "did not enforce the thresholding scheme" (5.2); the
            # variants start differing once the training set has grown.
            enforce_now = enforce and round_index > 0
            # a thin stream of true-topic pages amid plenty of sibling
            # material: the regime where promotion slots outnumber the
            # clearly-on-topic candidates
            pool = (
                list(pool_rng.choice(target_pages[63:], 18, replace=False))
                + list(pool_rng.choice(sibling_pages[60:], 60, replace=False))
                + list(pool_rng.choice(background_pages, 20, replace=False))
            )
            # score the whole candidate pool in one batch descent
            pool_docs = [page_counts(web, page) for page in pool]
            pool_results = classifier.classify_batch(pool_docs)
            candidates = [
                (page, doc, result.confidence)
                for page, doc, result in zip(pool, pool_docs, pool_results)
                if result.accepted
            ]
            candidates.sort(key=lambda t: -t[2])
            confidence_candidates = [
                (page.page_id, conf) for page, _doc, conf in candidates
            ]
            # re-score the current training docs under the current model
            training_confidences = {
                pid: classifier.confidence_for(doc, topic)
                for pid, (doc, _old) in training.items()
            }
            decision = select_archetypes(
                confidence_candidates,
                confidence_candidates,  # authorities stand-in: same pool
                training_confidences,
                {page.page_id: conf for page, _d, conf in candidates},
                max_new=PROMOTIONS_PER_ROUND,
                enforce_threshold=enforce_now,
                confidence_factor=0.9,
                protected={page.page_id for page in seeds},
            )
            by_id = {page.page_id: doc for page, doc, _c in candidates}
            for page_id, confidence, _source in decision.added:
                training[page_id] = (by_id[page_id], confidence)
                promoted_ids.append(page_id)
            for page_id in decision.removed:
                training.pop(page_id, None)
            train_topic(
                target, config, [doc for doc, _conf in training.values()],
                negatives, classifier,
            )

        pure = sum(
            1 for pid in promoted_ids if web.pages[pid].topic == target
        )
        purity = pure / len(promoted_ids) if promoted_ids else 1.0
        # Threshold-free evaluation: rank the held-out mix by the final
        # model's confidence and measure precision at the true positive
        # count.  A drifted model ranks sibling pages above true target
        # pages, dragging this down.
        precision = ranking_precision_at_k(
            (
                (classifier.confidence_for(page_counts(web, page), topic),
                 page.topic == target)
                for page in held_out
            )
        )
        results[name] = (float(len(promoted_ids)), purity, precision)
    return results


# ---------------------------------------------------------------------------
# A3: negative examples for OTHERS
# ---------------------------------------------------------------------------


def _fit_svm(train_counts: list, labels: list[int], seed: int):
    """A tf*idf vectorizer over ``train_counts`` and the SVM trained on
    their vectors."""
    vectorizer = TfIdfVectorizer()
    for c in train_counts:
        vectorizer.ingest(c.keys())
    vectorizer.refresh()
    vectors = [vectorizer.vectorize_counts(c) for c in train_counts]
    return vectorizer, LinearSVM(C=1.0, seed=seed).fit(vectors, labels)


def run_negatives_ablation(test_per_class: int = 150) -> ExperimentTable:
    """Train the same topic classifier under two OTHERS regimes."""
    seed = NEGATIVES_SEED
    web = experiment_web(seed)
    target = web.config.target_topic
    rng = np.random.default_rng(seed)

    positives = [
        p for p in web.pages_by_topic(target)
        if p.role in (PageRole.HOMEPAGE, PageRole.PUBLICATIONS)
    ]
    rng.shuffle(positives)
    pos_train = [page_counts(web, p)["term"] for p in positives[:20]]

    # systematic: directory pages spanning all categories (the paper's
    # ~50 Yahoo top-level pages); arbitrary: 5 pages of ONE category
    systematic_pages = web.negative_example_pages(50, seed=seed)
    one_category = [
        p for p in web.pages_by_role(PageRole.BACKGROUND)
        if p.topic == web.config.background_categories[0]
    ]
    arbitrary_pages = one_category[:5]

    test_pool = [
        p for p in web.pages
        if p.page_id not in {q.page_id for q in positives[:20]}
        and p.role in (
            PageRole.HOMEPAGE, PageRole.PUBLICATIONS, PageRole.BACKGROUND,
            PageRole.DIRECTORY, PageRole.CV,
        )
    ]
    rng.shuffle(test_pool)
    test_pages = test_pool[: 2 * test_per_class]

    table = ExperimentTable(
        "A3: OTHERS population (section 3.1)",
        ["Negative examples", "Precision", "Recall"],
        note="systematic directory coverage vs a few arbitrary pages",
    )
    for name, negative_pages in (
        ("systematic (50 directory pages)", systematic_pages),
        ("arbitrary (5 same-category pages)", arbitrary_pages),
    ):
        neg_train = [page_counts(web, p)["term"] for p in negative_pages]
        labels = [1] * len(pos_train) + [-1] * len(neg_train)
        vectorizer, svm = _fit_svm(pos_train + neg_train, labels, seed)
        counts = BinaryCounts()
        for page in test_pages:
            vector = vectorizer.vectorize_counts(
                page_counts(web, page)["term"]
            )
            counts.update(
                svm.predict(vector), 1 if page.topic == target else -1
            )
        table.add_row([name, counts.precision, counts.recall])
    return table


# ---------------------------------------------------------------------------
# A4: feature spaces
# ---------------------------------------------------------------------------


def _incoming_anchor_terms(web: SyntheticWeb) -> dict[int, list[str]]:
    """Anchor-text stems pointing at each page, from the link structure."""
    incoming: dict[int, list[str]] = {}
    for source in web.pages:
        for target_id in source.out_links:
            text = web.renderer.anchor_text(source, web.pages[target_id])
            stems = text_stems(text, stopwords=ANCHOR_STOPWORDS)
            if stems:
                incoming.setdefault(target_id, []).extend(stems)
    return incoming


def run_feature_space_ablation(
    train_per_class: int = 25,
    test_per_class: int = 100,
) -> ExperimentTable:
    """Single terms vs pairs vs anchors vs a combined space."""
    seed = FEATURE_SPACE_SEED
    web = experiment_web(seed)
    target = web.config.target_topic
    rng = np.random.default_rng(seed)
    incoming = _incoming_anchor_terms(web)
    spaces = {
        "terms": TermSpace(),
        "term pairs": TermPairSpace(window=4),
        "anchors": AnchorTextSpace(),
        "terms + pairs + anchors": CombinedSpace(
            [TermSpace(), TermPairSpace(window=4), AnchorTextSpace()]
        ),
    }
    positives = [
        p for p in web.pages_by_topic(target)
        if p.role in (PageRole.HOMEPAGE, PageRole.CV)
    ]
    negatives = [
        p for p in web.pages
        if p.topic != target and p.role in (
            PageRole.HOMEPAGE, PageRole.CV, PageRole.BACKGROUND,
        )
    ]
    rng.shuffle(positives)
    rng.shuffle(negatives)

    def analyzed(pages) -> list[dict]:
        return [
            page_counts(web, p, spaces, incoming.get(p.page_id, ()))
            for p in pages[: train_per_class + test_per_class]
        ]

    pos_docs, neg_docs = analyzed(positives), analyzed(negatives)

    table = ExperimentTable(
        "A4: feature spaces (section 3.4)",
        ["Feature space", "xi-alpha estimate", "Precision", "Recall"],
        note="the xi-alpha estimate drives BINGO!'s model selection",
    )
    labels = [1] * train_per_class + [-1] * train_per_class
    test_labels = (
        [1] * (len(pos_docs) - train_per_class)
        + [-1] * (len(neg_docs) - train_per_class)
    )
    for name in spaces:
        train_counts = [
            d[name]
            for d in pos_docs[:train_per_class] + neg_docs[:train_per_class]
        ]
        test_counts = [
            d[name]
            for d in pos_docs[train_per_class:] + neg_docs[train_per_class:]
        ]
        vectorizer, svm = _fit_svm(train_counts, labels, seed)
        estimate = xi_alpha_estimate(svm, labels)
        measured = BinaryCounts()
        for counts, label in zip(test_counts, test_labels):
            measured.update(
                svm.predict(vectorizer.vectorize_counts(counts)), label
            )
        table.add_row(
            [name, estimate.precision, measured.precision, measured.recall]
        )
    return table


# ---------------------------------------------------------------------------
# A6: node-classifier choice (section 1.2's learner menu)
# ---------------------------------------------------------------------------


def run_classifier_ablation() -> ExperimentTable:
    """Crawl the same Web once per node-learner choice.

    The paper (1.2) lists Naive Bayes, Maximum Entropy and SVMs as the
    classifier menu and picks linear SVMs; this ablation shows how the
    crawl fares under each choice.  Soft focus + tunnelling throughout.
    """
    web = experiment_web(CLASSIFIER_SEED)
    target = web.config.target_topic
    seeds = web.seed_homepages(3, topic=target)
    training = _paper_vs_directory(web, target)
    table = ExperimentTable(
        "A6: node classifier choice (section 1.2)",
        ["Learner", "Visited", "Accepted", "True precision",
         "Target pages found"],
        note=(
            "same Web, seeds and budget; only the per-topic decision "
            "model differs (the paper settles on linear SVMs)"
        ),
    )
    for learner in NODE_CLASSIFIERS:
        config = BingoConfig(
            seed=CLASSIFIER_SEED, selected_features=800,
            tf_preselection=3000, node_classifier=learner,
        )
        visited, accepted, precision, found = _crawl_and_score(
            web, train_topic(target, config, *training), config, seeds,
            PhaseSettings(
                name=learner, focus=SOFT, tunnelling=True,
                decision_mode="single", fetch_budget=CLASSIFIER_BUDGET,
            ),
        )
        table.add_row([learner, visited, accepted, precision, len(found)])
    return table
