"""The pieces every classifier-level experiment shares.

* :func:`experiment_web` -- the laptop-scale synthetic Web the
  ablations draw from, with per-experiment overrides;
* :func:`page_counts` -- a rendered page's per-space feature counts;
* :func:`train_topic` -- a single-topic classifier, target vs OTHERS;
* :func:`mean_over_seeds` -- per-name column means of several seeded runs.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping, Sequence

import numpy as np

from repro.core import BingoConfig, HierarchicalClassifier, TopicTree
from repro.text.features import TERM_SPACES, FeatureSpace, analyze_page
from repro.web import SyntheticWeb, WebGraphConfig

__all__ = [
    "CLASSIFIER_WEB",
    "experiment_web",
    "mean_over_seeds",
    "page_counts",
    "train_topic",
]

_EXPERIMENT_WEB = {
    "target_researchers": 120,
    "other_researchers": 40,
    "universities": 30,
    "hubs_per_topic": 5,
    "background_hosts_per_category": 10,
    "pages_per_background_host": 5,
    "directory_pages_per_category": 8,
}
CLASSIFIER_WEB = {
    "other_researchers": 60,
    "universities": 25,
    "hubs_per_topic": 4,
    "background_hosts_per_category": 8,
    "pages_per_background_host": 6,
}
"""Overrides of the smaller-host Web that E6, E7 and A5 draw their
training and test pages from (no crawl runs on it)."""


def experiment_web(seed: int, **overrides) -> SyntheticWeb:
    """The ablation Web at ``seed``, with ``overrides`` of its config."""
    return SyntheticWeb.generate(
        WebGraphConfig(**{**_EXPERIMENT_WEB, "seed": seed, **overrides})
    )


def page_counts(
    web: SyntheticWeb,
    page,
    spaces: Mapping[str, FeatureSpace] = TERM_SPACES,
    incoming_anchor_terms: Sequence[str] = (),
) -> dict[str, Counter]:
    """A rendered page's feature counts under ``spaces``."""
    return analyze_page(
        web.renderer.render(page), spaces, incoming_anchor_terms
    )[0]


def train_topic(
    target: str,
    config: BingoConfig,
    positives: list[dict],
    negatives: list[dict],
    classifier: HierarchicalClassifier | None = None,
) -> HierarchicalClassifier:
    """Train ``target`` against OTHERS -- on a fresh single-topic
    classifier, or by retraining ``classifier`` on the grown sets."""
    if classifier is None:
        classifier = HierarchicalClassifier(
            TopicTree.from_leaves([target]), config
        )
    training = {f"ROOT/{target}": positives, "ROOT/OTHERS": negatives}
    for docs in training.values():
        for doc in docs:
            classifier.ingest(doc)
    classifier.train(training)
    return classifier


def mean_over_seeds(
    runs: Iterable[Mapping[str, Sequence[float]]],
) -> list[tuple]:
    """``(name, mean, mean, ...)`` per name over the runs, in the order
    the names first appear; each column is averaged on its own."""
    accumulated: dict[str, list[Sequence[float]]] = {}
    for run in runs:
        for name, values in run.items():
            accumulated.setdefault(name, []).append(values)
    return [
        (name, *(float(np.mean(column)) for column in zip(*values)))
        for name, values in accumulated.items()
    ]
