"""Shared workload builders + timing runners for the perf kernel layer.

Produces the machine-readable payload written to
``benchmarks/results/BENCH_kernels.json``: classification docs/sec
(reference dict path vs compiled batch kernel) and HITS iterations/sec
(dict formulation vs CSR matvecs); what the kernels are worth to a
whole crawl is ``ops_per_s`` on ``crawl-n1`` of ``benchmarks/e2e``.
Used by the ``bench_kernels.py`` pytest module and
the ``run_kernels.py`` CLI (which the CI smoke job runs against the
committed baseline).

Absolute throughputs vary across machines; regression checks therefore
compare the *speedup ratios*, which are machine-independent to first
order (same interpreter, same workload on both sides of each ratio).
"""

from __future__ import annotations

import time
from collections import Counter

import numpy as np

from repro.analysis.graph import LinkGraph
from repro.analysis.hits import hits_reference
from repro.core.classifier import HierarchicalClassifier
from repro.core.config import BingoConfig
from repro.core.ontology import TopicTree
from repro.perf.csr_hits import hits_csr
from repro.web import SyntheticWeb, WebGraphConfig

__all__ = [
    "build_classification_workload",
    "build_random_graph",
    "bench_classification",
    "bench_hits",
    "run_all",
]


# -- classification ---------------------------------------------------------


def _topic_docs(vocab, n, seed, spaces=("term", "pair")):
    rng = np.random.default_rng(seed)
    docs = []
    for _ in range(n):
        words: dict[str, int] = {}
        for _ in range(40):
            term = vocab[int(rng.integers(len(vocab)))]
            words[term] = words.get(term, 0) + 1
        docs.append({space: Counter(words) for space in spaces})
    return docs


def build_classification_workload(
    n_topics: int = 6,
    train_per_topic: int = 30,
    eval_per_topic: int = 60,
    seed: int = 7,
):
    """A trained flat classifier plus a mixed evaluation set.

    The vector cache is disabled so that the reference and compiled
    paths both pay full vectorization -- the measured ratio is then the
    decision-phase speedup, not a cache artefact.
    """
    topics = [f"t{i}" for i in range(n_topics)]
    tree = TopicTree.from_leaves(topics)
    config = BingoConfig(
        selected_features=200, tf_preselection=600, vector_cache_size=0
    )
    classifier = HierarchicalClassifier(tree, config)
    vocabs = {
        t: [f"{t}_w{j}" for j in range(60)]
        + [f"shared{j}" for j in range(30)]
        for t in topics
    }
    background = [f"bg{j}" for j in range(80)]
    training = {
        f"ROOT/{t}": _topic_docs(vocabs[t], train_per_topic, seed + i)
        for i, t in enumerate(topics)
    }
    training["ROOT/OTHERS"] = _topic_docs(background, train_per_topic, seed + 99)
    for docs in training.values():
        for doc in docs:
            classifier.ingest(doc)
    classifier.train(training)
    eval_docs = []
    for i, t in enumerate(topics):
        eval_docs.extend(_topic_docs(vocabs[t], eval_per_topic, seed + 1000 + i))
    eval_docs.extend(_topic_docs(background, eval_per_topic, seed + 2000))
    np.random.default_rng(seed).shuffle(eval_docs)
    return classifier, eval_docs


def bench_classification(
    repeats: int = 5, mode: str = "weighted", **workload_kwargs
) -> dict:
    """Reference per-document dict path vs compiled batch kernel."""
    classifier, eval_docs = build_classification_workload(**workload_kwargs)
    # warm both paths once (kernel compilation is amortised, as in a crawl)
    classifier.classify_reference(eval_docs[0], mode)
    classifier.classify_batch(eval_docs[:2], mode)

    start = time.perf_counter()
    for _ in range(repeats):
        for doc in eval_docs:
            classifier.classify_reference(doc, mode)
    reference_s = (time.perf_counter() - start) / repeats

    start = time.perf_counter()
    for _ in range(repeats):
        classifier.classify_batch(eval_docs, mode)
    batch_s = (time.perf_counter() - start) / repeats

    n = len(eval_docs)
    return {
        "docs": n,
        "mode": mode,
        "repeats": repeats,
        "reference_docs_per_s": round(n / reference_s, 1),
        "batch_docs_per_s": round(n / batch_s, 1),
        "speedup": round(reference_s / batch_s, 2),
    }


# -- HITS -------------------------------------------------------------------


def build_random_graph(
    nodes: int = 10_000, out_degree: int = 8, seed: int = 11
) -> LinkGraph:
    """A sparse random digraph sized like a retraining-point base set."""
    rng = np.random.default_rng(seed)
    graph = LinkGraph()
    for node in range(nodes):
        graph.add_node(node)
    targets = rng.integers(0, nodes, size=(nodes, out_degree))
    for source in range(nodes):
        for target in targets[source]:
            graph.add_edge(source, int(target))
    return graph


def bench_hits(
    nodes: int = 10_000,
    out_degree: int = 8,
    iterations: int = 10,
    seed: int = 11,
) -> dict:
    """Dict-walking HITS vs CSR matvec HITS at a fixed iteration count.

    ``tolerance=0.0`` forces exactly ``iterations`` rounds on both
    sides, so the ratio of iterations/sec is a pure per-iteration cost
    comparison.
    """
    graph = build_random_graph(nodes=nodes, out_degree=out_degree, seed=seed)

    start = time.perf_counter()
    hits_reference(graph, max_iterations=iterations, tolerance=0.0)
    reference_s = time.perf_counter() - start

    start = time.perf_counter()
    hits_csr(graph, max_iterations=iterations, tolerance=0.0)
    csr_s = time.perf_counter() - start

    return {
        "nodes": len(graph),
        "edges": graph.edge_count(),
        "iterations": iterations,
        "reference_iter_per_s": round(iterations / reference_s, 2),
        "csr_iter_per_s": round(iterations / csr_s, 2),
        "speedup": round(reference_s / csr_s, 2),
    }


# -- crawl fixtures shared with the pipeline and scale runners ---------------


def _crawl_web(seed: int = 7) -> SyntheticWeb:
    return SyntheticWeb.generate(
        WebGraphConfig(
            seed=seed,
            target_researchers=40,
            other_researchers=12,
            universities=10,
            hubs_per_topic=3,
            background_hosts_per_category=3,
            pages_per_background_host=3,
            directory_pages_per_category=4,
        )
    )


def _crawl_config(**overrides) -> BingoConfig:
    defaults = dict(
        learning_fetch_budget=80,
        retrain_interval=50,
        negative_examples=15,
        selected_features=300,
        tf_preselection=1000,
    )
    defaults.update(overrides)
    return BingoConfig(**defaults)


# -- aggregate --------------------------------------------------------------


def run_all() -> dict:
    """The full BENCH_kernels.json payload."""
    return {
        "schema": 1,
        "classification": bench_classification(),
        "hits": bench_hits(),
    }
