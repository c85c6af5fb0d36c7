"""Design-choice ablations (experiments A1-A4 in DESIGN.md).

Each ablation isolates one of the improvements sections 3.1-3.4 of the
paper introduced after "fairly mixed success" with the first prototype:

* **A1** sharp vs soft focus x tunnelling on/off (section 3.3);
* **A2** archetype mean-confidence threshold on/off -- the topic-drift
  guard (section 3.2);
* **A3** systematic vs arbitrary negative examples for OTHERS (3.1);
* **A4** feature spaces: terms vs term pairs vs anchors vs combined (3.4).

Because the synthetic Web knows every page's true topic, ablations can
measure *true* precision (accepted documents whose underlying page truly
belongs to the target topic) and true recall against the page inventory
-- something the paper could only estimate by hand.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.core import BingoConfig
from repro.core.config import NODE_CLASSIFIERS
from repro.core.crawler import FocusedCrawler
from repro.core.records import SHARP, SOFT, PhaseSettings
from repro.experiments.metrics import BinaryCounts, ranking_precision_at_k
from repro.experiments.reporting import ExperimentTable
from repro.ml.svm import LinearSVM
from repro.ml.xialpha import xi_alpha_estimate
from repro.text.features import (
    AnchorTextSpace,
    CombinedSpace,
    TermPairSpace,
    TermSpace,
    analyze_page,
)
from repro.text.scanner import text_stems
from repro.text.stopwords import ANCHOR_STOPWORDS
from repro.text.vectorizer import TfIdfVectorizer
from repro.web import PageRole, SyntheticWeb, WebGraphConfig

__all__ = [
    "FocusAblationResult",
    "run_focus_ablation",
    "ArchetypeAblationResult",
    "run_archetype_ablation",
    "NegativesAblationResult",
    "run_negatives_ablation",
    "FeatureSpaceAblationResult",
    "run_feature_space_ablation",
    "ClassifierAblationResult",
    "run_classifier_ablation",
]


def _term_counts(web: SyntheticWeb, page) -> dict[str, Counter]:
    """A rendered page's counts under the default term-only spaces."""
    return analyze_page(web.renderer.render(page))[0]


def _ablation_web(seed: int, **overrides) -> SyntheticWeb:
    return SyntheticWeb.generate(
        WebGraphConfig(
            seed=seed, target_researchers=120, other_researchers=40,
            universities=30, hubs_per_topic=5,
            background_hosts_per_category=10, pages_per_background_host=5,
            directory_pages_per_category=8,
            **overrides,
        )
    )


def _true_topic(web: SyntheticWeb, doc) -> str | None:
    if doc.page_id is None:
        return None
    return web.pages[doc.page_id].topic


# ---------------------------------------------------------------------------
# A1: focus rules and tunnelling
# ---------------------------------------------------------------------------


@dataclass
class FocusAblationResult:
    rows: list[tuple[str, int, int, float, int, int]]
    """(variant, visited, accepted, true precision, target pages found,
    hidden authors reached)"""

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            "A1: focus strategy x tunnelling (section 3.3)",
            ["Variant", "Visited", "Accepted", "True precision",
             "Target pages found", "Hidden authors reached"],
            note=(
                "hidden authors are linked only from topic-unspecific "
                "welcome pages -- tunnelling territory"
            ),
        )
        for row in self.rows:
            variant, visited, accepted, precision, found, hidden = row
            table.add_row(
                [variant, visited, accepted, round(precision, 3), found,
                 hidden]
            )
        return table

    def variant(self, name: str) -> tuple[int, int, float, int, int]:
        for variant, *rest in self.rows:
            if variant == name:
                return tuple(rest)
        raise KeyError(name)


def run_focus_ablation(
    seed: int = 53,
    budget: int = 500,
) -> FocusAblationResult:
    """Crawl the same Web under the four focus/tunnelling combinations."""
    # half the homepages hide behind topic-unspecific welcome pages
    web = _ablation_web(seed, welcome_only_rate=0.5)
    target = web.config.target_topic
    topic = f"ROOT/{target}"
    hidden_homepages = {
        web.researchers[a].homepage_page_id
        for a in web.welcome_only
        if web.researchers[a].topic == target
    }
    variants = [
        ("sharp, no tunnelling", SHARP, False),
        ("sharp + tunnelling", SHARP, True),
        ("soft, no tunnelling", SOFT, False),
        ("soft + tunnelling", SOFT, True),
    ]
    # One fixed classifier for all variants, so the comparison isolates
    # the crawl policy (the engine's learning phase always tunnels and
    # would blur the contrast).
    config = BingoConfig(
        seed=seed, selected_features=800, tf_preselection=3000,
    )
    classifier = _train_topic_classifier(web, target, config)
    seeds = web.seed_homepages(3, topic=target)
    rows = []
    for name, focus, tunnelling in variants:
        crawler = FocusedCrawler(web, classifier, config)
        crawler.seed(seeds, topic=topic, priority=10.0)
        settings = PhaseSettings(
            name=name, focus=focus, tunnelling=tunnelling,
            decision_mode="single",
            fetch_budget=budget,
        )
        stats = crawler.crawl(settings)
        accepted = [
            doc for doc in crawler.ctx.documents if doc.topic == topic
        ]
        correct = sum(
            1 for doc in accepted if _true_topic(web, doc) == target
        )
        found_pages = {
            doc.page_id for doc in crawler.ctx.documents
            if _true_topic(web, doc) == target
        }
        hidden_reached = len(found_pages & hidden_homepages)
        precision = correct / len(accepted) if accepted else 0.0
        rows.append(
            (name, stats.visited_urls, len(accepted), precision,
             len(found_pages), hidden_reached)
        )
    return FocusAblationResult(rows=rows)


def _train_topic_classifier(web: SyntheticWeb, target: str, config: BingoConfig):
    """A single-topic classifier trained on paper pages vs directory pages."""
    from repro.core.classifier import HierarchicalClassifier
    from repro.core.ontology import TopicTree

    positives = [
        _term_counts(web, p)
        for p in web.pages_by_topic(target)
        if p.role == PageRole.PAPER
    ][:25]
    negatives = [
        _term_counts(web, p) for p in web.negative_example_pages(25)
    ]
    tree = TopicTree.from_leaves([target])
    classifier = HierarchicalClassifier(tree, config)
    training = {f"ROOT/{target}": positives, "ROOT/OTHERS": negatives}
    for docs in training.values():
        for doc in docs:
            classifier.ingest(doc)
    classifier.train(training)
    return classifier


# ---------------------------------------------------------------------------
# A2: archetype confidence threshold (topic drift)
# ---------------------------------------------------------------------------


@dataclass
class ArchetypeAblationResult:
    rows: list[tuple[str, float, float, float]]
    """(variant, mean archetypes added, mean training purity,
    mean held-out true precision)"""
    seeds: tuple[int, ...] = ()

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            "A2: archetype confidence threshold (section 3.2)",
            ["Variant", "Archetypes added", "Training purity",
             "Held-out true precision"],
            note=(
                "purity = promoted training docs truly of the target "
                "topic; precision = ranking precision@k on a held-out "
                f"target/sibling mix; means over seeds {list(self.seeds)}"
            ),
        )
        for variant, added, purity, precision in self.rows:
            table.add_row(
                [variant, round(added, 1), round(purity, 3),
                 round(precision, 3)]
            )
        return table

    def purity_of(self, variant: str) -> float:
        for name, _added, purity, _precision in self.rows:
            if name == variant:
                return purity
        raise KeyError(variant)

    def precision_of(self, variant: str) -> float:
        for name, _added, _purity, precision in self.rows:
            if name == variant:
                return precision
        raise KeyError(variant)


def run_archetype_ablation(
    seeds: tuple[int, ...] = (59, 61, 67, 71),
    rounds: int = 5,
) -> ArchetypeAblationResult:
    """Averaged drift comparison over several seeds (drift is a runaway
    phenomenon: single runs may or may not tip over)."""
    accumulated: dict[str, list[tuple[float, float, float]]] = {}
    for seed in seeds:
        for name, triple in _archetype_one_seed(seed, rounds).items():
            accumulated.setdefault(name, []).append(triple)
    rows = [
        (
            name,
            float(np.mean([t[0] for t in triples])),
            float(np.mean([t[1] for t in triples])),
            float(np.mean([t[2] for t in triples])),
        )
        for name, triples in accumulated.items()
    ]
    return ArchetypeAblationResult(rows=rows, seeds=tuple(seeds))


PROMOTIONS_PER_ROUND = 20


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
    from repro.core.archetypes import select_archetypes
    from repro.core.classifier import HierarchicalClassifier
    from repro.core.ontology import TopicTree

    web = SyntheticWeb.generate(
        WebGraphConfig(
            seed=seed, target_researchers=120, other_researchers=60,
            universities=30, hubs_per_topic=5,
            background_hosts_per_category=10, pages_per_background_host=5,
            directory_pages_per_category=8,
            vocab_sibling_overlap=0.45,   # confusable siblings
            interdisciplinary_rate=0.35,  # heterogeneous researcher pages
        )
    )
    target = web.config.target_topic
    topic = f"ROOT/{target}"

    rng_master = np.random.default_rng(seed)
    # paper-faithful candidate mix: dense papers are the good archetypes
    # hiding among borderline homepages/CVs and sibling material
    target_pages = [
        p for p in web.pages_by_topic(target)
        if p.role in (
            PageRole.HOMEPAGE, PageRole.PUBLICATIONS, PageRole.CV,
            PageRole.PAPER,
        )
    ]
    sibling_pages = [
        p for p in web.pages
        if p.topic in web.config.research_topics and p.topic != target
        and p.role in (
            PageRole.HOMEPAGE, PageRole.PUBLICATIONS, PageRole.CV,
            PageRole.PAPER,
        )
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
        tree = TopicTree.from_leaves([target])
        classifier = HierarchicalClassifier(tree, config)
        training: dict[int, tuple[dict, float]] = {
            page.page_id: (_term_counts(web, page), 0.0) for page in seeds
        }
        negatives = [
            _term_counts(web, p)
            for p in web.negative_example_pages(12, seed=seed)
        ]
        pool_rng = np.random.default_rng(seed + 1)

        def retrain() -> None:
            sets = {
                topic: [doc for doc, _conf in training.values()],
                "ROOT/OTHERS": negatives,
            }
            for docs in sets.values():
                for doc in docs:
                    classifier.ingest(doc)
            classifier.train(sets)

        retrain()
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
            pool_docs = [_term_counts(web, page) for page in pool]
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
            retrain()

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
                (classifier.confidence_for(_term_counts(web, page), topic),
                 page.topic == target)
                for page in held_out
            )
        )
        results[name] = (float(len(promoted_ids)), purity, precision)
    return results


# ---------------------------------------------------------------------------
# A3: negative examples for OTHERS
# ---------------------------------------------------------------------------


@dataclass
class NegativesAblationResult:
    rows: list[tuple[str, float, float]]
    """(variant, held-out precision, held-out recall)"""

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            "A3: OTHERS population (section 3.1)",
            ["Negative examples", "Precision", "Recall"],
            note="systematic directory coverage vs a few arbitrary pages",
        )
        for variant, precision, recall in self.rows:
            table.add_row([variant, round(precision, 3), round(recall, 3)])
        return table

    def precision_of(self, variant: str) -> float:
        for name, precision, _recall in self.rows:
            if name == variant:
                return precision
        raise KeyError(variant)


def run_negatives_ablation(
    seed: int = 61,
    test_per_class: int = 150,
) -> NegativesAblationResult:
    """Train the same topic classifier under two OTHERS regimes."""
    web = _ablation_web(seed)
    target = web.config.target_topic
    rng = np.random.default_rng(seed)

    positives = [
        p for p in web.pages_by_topic(target)
        if p.role in (PageRole.HOMEPAGE, PageRole.PUBLICATIONS)
    ]
    rng.shuffle(positives)
    pos_train = [_term_counts(web, p)["term"] for p in positives[:20]]

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

    rows = []
    for name, negative_pages in (
        ("systematic (50 directory pages)", systematic_pages),
        ("arbitrary (5 same-category pages)", arbitrary_pages),
    ):
        neg_train = [_term_counts(web, p)["term"] for p in negative_pages]
        vectorizer = TfIdfVectorizer()
        for c in pos_train + neg_train:
            vectorizer.ingest(c.keys())
        vectorizer.refresh()
        vectors = [vectorizer.vectorize_counts(c) for c in pos_train + neg_train]
        labels = [1] * len(pos_train) + [-1] * len(neg_train)
        svm = LinearSVM(C=1.0, seed=seed).fit(vectors, labels)
        counts = BinaryCounts()
        for page in test_pages:
            vector = vectorizer.vectorize_counts(
                _term_counts(web, page)["term"]
            )
            counts.update(
                svm.predict(vector), 1 if page.topic == target else -1
            )
        rows.append((name, counts.precision, counts.recall))
    return NegativesAblationResult(rows=rows)


# ---------------------------------------------------------------------------
# A4: feature spaces
# ---------------------------------------------------------------------------


@dataclass
class FeatureSpaceAblationResult:
    rows: list[tuple[str, float, float, float]]
    """(space, xi-alpha precision estimate, held-out precision, recall)"""

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            "A4: feature spaces (section 3.4)",
            ["Feature space", "xi-alpha estimate", "Precision", "Recall"],
            note="the xi-alpha estimate drives BINGO!'s model selection",
        )
        for space, estimate, precision, recall in self.rows:
            table.add_row(
                [space, round(estimate, 3), round(precision, 3),
                 round(recall, 3)]
            )
        return table


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
    seed: int = 67,
    train_per_class: int = 25,
    test_per_class: int = 100,
) -> FeatureSpaceAblationResult:
    """Single terms vs pairs vs anchors vs a combined space."""
    web = _ablation_web(seed)
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

    def analyzed(page) -> dict[str, Counter]:
        return analyze_page(
            web.renderer.render(page), spaces,
            incoming_anchor_terms=incoming.get(page.page_id, []),
        )[0]

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
    pos = positives[: train_per_class + test_per_class]
    neg = negatives[: train_per_class + test_per_class]
    pos_docs = [analyzed(p) for p in pos]
    neg_docs = [analyzed(p) for p in neg]

    rows = []
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
        vectorizer = TfIdfVectorizer()
        for c in train_counts:
            vectorizer.ingest(c.keys())
        vectorizer.refresh()
        train_vectors = [vectorizer.vectorize_counts(c) for c in train_counts]
        svm = LinearSVM(C=1.0, seed=seed).fit(train_vectors, labels)
        estimate = xi_alpha_estimate(svm, labels)
        measured = BinaryCounts()
        for counts, label in zip(test_counts, test_labels):
            measured.update(
                svm.predict(vectorizer.vectorize_counts(counts)), label
            )
        rows.append(
            (name, estimate.precision, measured.precision, measured.recall)
        )
    return FeatureSpaceAblationResult(rows=rows)


# ---------------------------------------------------------------------------
# A6: node-classifier choice (section 1.2's learner menu)
# ---------------------------------------------------------------------------


@dataclass
class ClassifierAblationResult:
    rows: list[tuple[str, int, int, float, int]]
    """(learner, visited, accepted, true precision, target pages found)"""

    def table(self) -> ExperimentTable:
        table = ExperimentTable(
            "A6: node classifier choice (section 1.2)",
            ["Learner", "Visited", "Accepted", "True precision",
             "Target pages found"],
            note=(
                "same Web, seeds and budget; only the per-topic decision "
                "model differs (the paper settles on linear SVMs)"
            ),
        )
        for learner, visited, accepted, precision, found in self.rows:
            table.add_row(
                [learner, visited, accepted, round(precision, 3), found]
            )
        return table

    def row_of(self, learner: str) -> tuple[int, int, float, int]:
        for name, *rest in self.rows:
            if name == learner:
                return tuple(rest)
        raise KeyError(learner)


def run_classifier_ablation(
    seed: int = 89,
    budget: int = 400,
) -> ClassifierAblationResult:
    """Crawl the same Web once per node-learner choice.

    The paper (1.2) lists Naive Bayes, Maximum Entropy and SVMs as the
    classifier menu and picks linear SVMs; this ablation shows how the
    crawl fares under each choice.  Soft focus + tunnelling throughout.
    """
    web = _ablation_web(seed)
    target = web.config.target_topic
    topic = f"ROOT/{target}"
    seeds = web.seed_homepages(3, topic=target)
    rows = []
    for learner in NODE_CLASSIFIERS:
        config = BingoConfig(
            seed=seed, selected_features=800, tf_preselection=3000,
            node_classifier=learner,
        )
        classifier = _train_topic_classifier(web, target, config)
        crawler = FocusedCrawler(web, classifier, config)
        crawler.seed(seeds, topic=topic, priority=10.0)
        stats = crawler.crawl(
            PhaseSettings(
                name=learner, focus=SOFT, tunnelling=True,
                decision_mode="single", fetch_budget=budget,
            )
        )
        accepted = [doc for doc in crawler.ctx.documents if doc.topic == topic]
        correct = sum(
            1 for doc in accepted if _true_topic(web, doc) == target
        )
        found = {
            doc.page_id for doc in crawler.ctx.documents
            if _true_topic(web, doc) == target
        }
        precision = correct / len(accepted) if accepted else 0.0
        rows.append(
            (learner, stats.visited_urls, len(accepted), precision,
             len(found))
        )
    return ClassifierAblationResult(rows=rows)
