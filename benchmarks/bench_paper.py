"""The paper's tables and figures, regenerated with one claim per test.

Each test runs one runner of :mod:`repro.experiments` once under
``benchmark.pedantic``, records the table it returns (printed in the
terminal summary and written to ``benchmarks/results/<name>.txt``) and
asserts the expected shape on the table's raw values.  Every run is
deterministic; the wall time pytest-benchmark reports is not a claim.

    PYTHONPATH=src:. python -m pytest benchmarks/ --benchmark-only -rs
"""

from __future__ import annotations

import functools

from repro.core import BingoConfig, BingoEngine
from repro.experiments.ablations import (
    run_archetype_ablation,
    run_classifier_ablation,
    run_feature_space_ablation,
    run_focus_ablation,
    run_negatives_ablation,
)
from repro.experiments.expert import run_expert_experiment
from repro.experiments.featsel import (
    run_budget_selection_experiment,
    run_feature_selection_experiment,
)
from repro.experiments.meta_bench import run_meta_experiment
from repro.experiments.portal import TOP_K, run_portal_experiment
from repro.experiments.reporting import ExperimentTable
from repro.web import SyntheticWeb, scale_web_config

from benchmarks.conftest import record_table

SHORT_BUDGET = 700
LONG_BUDGET = 6000
TOP_REGISTRY = f"Top {TOP_K} registry"


def _row(table: ExperimentTable, key) -> dict:
    """The row whose first cell is ``key``, by column header."""
    return {header: table.cell(key, header) for header in table.headers}


# ---------------------------------------------------------------------------
# E1-E3: Tables 1, 2 and 3 -- the portal-generation experiment
# ---------------------------------------------------------------------------


@functools.cache
def _portal():
    # one crawl produces all three artifacts, exactly as in the paper
    # (section 5.2): paused at the short budget ("90 minutes") and
    # scored (Table 2), resumed to the long budget ("12 hours") and
    # scored again (Tables 1 and 3)
    return run_portal_experiment(
        short_budget=SHORT_BUDGET, long_budget=LONG_BUDGET
    )


def test_table1_crawl_summary(benchmark) -> None:
    """E1 -- Table 1: the long crawl visits several times more
    URLs/hosts and crawls deeper (paper: 100k -> 3M URLs, 3.8k -> 34.6k
    hosts)."""
    table = benchmark.pedantic(_portal, rounds=1, iterations=1).table1
    record_table("table1_crawl_summary", table.render())
    short, long = "short crawl", "long crawl"
    assert (
        table.cell("Visited URLs", long)
        >= 2 * table.cell("Visited URLs", short)
    )
    assert (
        table.cell("Visited hosts", long) > table.cell("Visited hosts", short)
    )
    assert (
        table.cell("Max crawling depth", long)
        >= table.cell("Max crawling depth", short)
    )
    assert table.cell("Stored pages", long) > table.cell("Stored pages", short)
    assert (
        table.cell("Extracted links", long)
        > table.cell("Extracted links", short)
    )
    assert (
        table.cell("Positively classified", long)
        >= table.cell("Positively classified", short)
    )


def test_table2_portal_precision_short(benchmark) -> None:
    """E2 -- Table 2: the short crawl already finds registry authors,
    more of them the deeper the cutoff."""
    table = benchmark.pedantic(_portal, rounds=1, iterations=1).table2
    record_table("table2_portal_short", table.render())
    # recall grows with the cutoff (rows are cumulative windows)
    found = table.column("All authors")
    assert found == sorted(found)
    assert found[-1] > 0
    assert table.column(TOP_REGISTRY)[-1] > 0


def test_table3_portal_precision_long(benchmark) -> None:
    """E3 -- Tables 2 vs 3: recall of registry authors grows severalfold
    (paper: 218 -> 712 of the top-1000 found overall) and the top-cutoff
    precision improves markedly (paper: 27 -> 267 top-1000 authors
    inside the first 1000 results)."""
    result = benchmark.pedantic(_portal, rounds=1, iterations=1)
    record_table("table3_portal_long", result.table3.render())
    short, long = result.table2, result.table3
    # paper shape: the long crawl finds several times more authors ...
    assert (
        long.column("All authors")[-1]
        >= 1.4 * short.column("All authors")[-1]
    )
    # ... and more of the top-ranked registry inside the first cutoff
    assert long.column(TOP_REGISTRY)[0] >= short.column(TOP_REGISTRY)[0]
    # overall top-registry recall grows substantially (paper: 218 -> 712)
    assert (
        long.column(TOP_REGISTRY)[-1] >= 1.4 * short.column(TOP_REGISTRY)[-1]
    )


# ---------------------------------------------------------------------------
# E4/E5: Figures 4 and 5 -- the expert Web search experiment
# ---------------------------------------------------------------------------


@functools.cache
def _expert():
    return run_expert_experiment(crawl_fetch_budget=700)


def test_figure4_seed_selection(benchmark) -> None:
    """E4 -- Figure 4: seed selection from an external keyword engine
    (section 5.3's needle-in-a-haystack workflow)."""
    result = benchmark.pedantic(_expert, rounds=1, iterations=1)
    record_table("figure4_seed_selection", result.figure4.render())
    # the paper hand-picked 7 reasonable documents from the top 10
    assert 3 <= len(result.seed_hits) <= 7
    # seeds come from an unfocused engine -- none should be a needle
    needle_urls = result.needle_urls
    assert all(hit.url not in needle_urls for hit in result.seed_hits)


def test_figure5_expert_top10(benchmark) -> None:
    """E5 -- Figure 5: after a short focused crawl, keyword
    postprocessing should surface the open-source project pages.  The
    *unfocused* baseline finds no needles in its top 10, the focused
    pipeline puts several right at the top (paper: Shore and MiniBase
    in the top 10)."""
    result = benchmark.pedantic(_expert, rounds=1, iterations=1)
    figure5 = result.figure5
    record_table("figure5_expert_top10", figure5.render())
    needles_in_top10 = figure5.column("Needle?").count("yes")
    # the focused pipeline surfaces needles the keyword baseline misses
    assert needles_in_top10 >= 1
    assert needles_in_top10 > result.unfocused_needles_in_top10
    assert result.needles_crawled >= needles_in_top10
    # the needles rank at the very top (paper: Shore doc pages lead)
    top3_urls = figure5.column("URL")[:3]
    assert any(url in result.needle_urls for url in top3_urls)


# ---------------------------------------------------------------------------
# E6, E7 and A5: meta classification and feature selection
# ---------------------------------------------------------------------------


def test_meta_classification_precision_lift(benchmark) -> None:
    """E6 -- section 3.5: "unanimous and weighted average decisions
    improved precision from values around 80 percent to values above 90
    percent".  Expected shape: mean single-member precision around 0.8,
    unanimous meta precision close to or above 0.9, recall traded away
    via abstentions."""
    table = benchmark.pedantic(run_meta_experiment, rounds=1, iterations=1)
    record_table("meta_classification", table.render())
    singles = [
        precision
        for name, precision in zip(
            table.column("Decision function"), table.column("Precision")
        )
        if not name.startswith("meta")
    ]
    mean_single = sum(singles) / len(singles)
    unanimous = table.cell("meta: unanimous", "Precision")
    unanimous_recall = table.cell("meta: unanimous", "Recall")
    # the paper's ~80% -> >90% lift, with tolerance for seed variance
    assert unanimous >= mean_single + 0.05
    assert unanimous >= 0.85
    assert 0.6 <= mean_single <= 0.92
    # the lift must not be vacuous: unanimity still finds positives
    assert unanimous_recall >= 0.2


def test_feature_selection_quality(benchmark) -> None:
    """E7 -- section 2.3 (Yang/Pedersen 1997): MI-ranked features
    dominate random selection at aggressive budgets and match or beat
    frequency ranking; the MI top-20 should contain the topic's
    signature stems, mirroring the paper's "mine, knowledg, olap, ..."
    example."""
    table, signature_hits = benchmark.pedantic(
        run_feature_selection_experiment, rounds=1, iterations=1
    )
    record_table("feature_selection", table.render())
    smallest = 0
    mi, tf, random = (
        [table.cell(method, budget) for budget in table.headers[1:]]
        for method in ("MI", "tf", "random")
    )
    # MI beats random decisively at every budget, most at the smallest
    assert all(m >= r for m, r in zip(mi, random))
    assert mi[smallest] - random[smallest] >= 0.15
    # MI is at least competitive with plain frequency ranking
    assert all(m >= t - 0.03 for m, t in zip(mi, tf))
    # the characteristic stems surface at the top (paper section 2.3)
    assert len(signature_hits) >= 5


def test_xialpha_budget_selection(benchmark) -> None:
    """A5 -- section 3.5: the xi-alpha estimator also tunes the feature
    count, before seeing test data."""
    table = benchmark.pedantic(
        run_budget_selection_experiment, rounds=1, iterations=1
    )
    record_table("feature_budget_selection", table.render())
    fixed = [
        accuracy
        for label, accuracy in zip(
            table.column("Model"), table.column("Held-out accuracy")
        )
        if label.startswith("fixed")
    ]
    chosen = table.cell("xi-alpha chosen", "Held-out accuracy")
    # the blind choice lands within a small delta of the best fixed
    # budget and beats the worst one
    assert chosen >= max(fixed) - 0.05
    assert chosen >= min(fixed)


# ---------------------------------------------------------------------------
# A1-A4, A6: design-choice ablations
# ---------------------------------------------------------------------------


def test_focus_and_tunnelling_ablation(benchmark) -> None:
    """A1 -- focus strategies and tunnelling (section 3.3): tunnelling
    reaches substantially more target pages -- in particular the
    "hidden" homepages linked only from topic-unspecific welcome pages
    -- while sharp focusing keeps precision at least as high as soft
    focusing."""
    table = benchmark.pedantic(
        lambda: run_focus_ablation(budget=450), rounds=1, iterations=1
    )
    record_table("ablation_focus", table.render())
    sharp_plain = _row(table, "sharp, no tunnelling")
    sharp_tunnel = _row(table, "sharp + tunnelling")
    soft_plain = _row(table, "soft, no tunnelling")
    soft_tunnel = _row(table, "soft + tunnelling")
    # without tunnelling the crawl starves before its budget (3.3: the
    # crawler "would quickly run out of links to be visited")
    assert sharp_plain["Visited"] < 450
    assert sharp_tunnel["Visited"] >= sharp_plain["Visited"]
    # tunnelling unlocks more target pages -- above all the hidden
    # homepages behind topic-unspecific welcome pages
    found, hidden = "Target pages found", "Hidden authors reached"
    assert sharp_tunnel[found] > sharp_plain[found]
    assert sharp_tunnel[hidden] > sharp_plain[hidden]
    assert soft_tunnel[hidden] > soft_plain[hidden]
    # focused acceptance stays precise in all variants
    for precision in table.column("True precision"):
        assert precision >= 0.8


def test_archetype_threshold_blocks_drift(benchmark) -> None:
    """A2 -- archetype confidence threshold vs topic drift (section
    3.2): without the mean-confidence admission rule the iterated
    promotion loop absorbs heterogeneous borderline pages and drifts --
    lower training purity and lower held-out precision than with the
    rule."""
    table = benchmark.pedantic(
        run_archetype_ablation, rounds=1, iterations=1
    )
    record_table("ablation_archetypes", table.render())
    on = "threshold on (paper 3.2)"
    off = "threshold off"
    purity, precision = "Training purity", "Held-out true precision"
    assert table.cell(on, purity) >= table.cell(off, purity)
    assert table.cell(on, precision) >= table.cell(off, precision) + 0.05
    assert table.cell(on, purity) >= 0.85


def test_systematic_negatives_beat_arbitrary(benchmark) -> None:
    """A3 -- systematic vs arbitrary negative examples (section 3.1):
    populating OTHERS with broad, systematic directory coverage yields
    higher precision than a handful of arbitrary pages from a single
    category ("saying what the crawl should not return is as important
    as specifying what ... we are interested in")."""
    table = benchmark.pedantic(
        run_negatives_ablation, rounds=1, iterations=1
    )
    record_table("ablation_negatives", table.render())
    systematic = table.cell("systematic (50 directory pages)", "Precision")
    arbitrary = table.cell("arbitrary (5 same-category pages)", "Precision")
    assert systematic > arbitrary


def test_feature_space_ablation(benchmark) -> None:
    """A4 -- feature spaces and xi-alpha model selection (section
    3.4/3.5): every space reaches usable held-out precision; the
    anchor-only space trades recall for cheap evidence; and the xi-alpha
    estimates give BINGO!'s model selection a clear preference ordering
    (it prefers the single-term space at runtime, as the paper does when
    "the crawler's run-time is critical")."""
    table = benchmark.pedantic(
        run_feature_space_ablation, rounds=1, iterations=1
    )
    record_table("ablation_features", table.render())
    by_space = {
        space: _row(table, space) for space in table.column("Feature space")
    }
    terms_estimate = by_space["terms"]["xi-alpha estimate"]
    # xi-alpha must find the term space at least as trustworthy as any
    # other single space (BINGO! picks it for run-time-critical crawls)
    for space, row in by_space.items():
        if space != "terms":
            assert terms_estimate >= row["xi-alpha estimate"] - 1e-9
    # all spaces classify usefully on held-out pages
    for space, row in by_space.items():
        assert row["Precision"] >= 0.8, space
    # anchors alone lose recall (incoming evidence is sparse)
    assert by_space["anchors"]["Recall"] <= by_space["terms"]["Recall"]


def test_classifier_choice_ablation(benchmark) -> None:
    """A6 -- node-classifier choice (section 1.2's learner menu).  The
    paper lists "Naive Bayes, Maximum Entropy, Support Vector Machines
    (SVM), or other supervised learning methods" and builds BINGO! on
    linear SVMs: the margin-based learners (SVM, MaxEnt) hold the
    highest crawl precision; the generative/centroid learners trail but
    stay usable."""
    table = benchmark.pedantic(
        run_classifier_ablation, rounds=1, iterations=1
    )
    record_table("ablation_classifiers", table.render())
    svm = _row(table, "svm")
    for learner in ("maxent", "naive-bayes", "rocchio"):
        row = _row(table, learner)
        # every learner completes the crawl and finds substantial recall
        assert row["Target pages found"] >= svm["Target pages found"] * 0.8
        assert row["True precision"] >= 0.6
    # the SVM's crawl precision is near the top of the field
    precisions = {
        learner: table.cell(learner, "True precision")
        for learner in ("svm", "maxent", "naive-bayes", "rocchio")
    }
    assert precisions["svm"] >= max(precisions.values()) - 0.02


# ---------------------------------------------------------------------------
# Sharded-crawl scaling: simulated pages/s vs worker count
# ---------------------------------------------------------------------------

WORKER_COUNTS = (1, 2, 4, 8)

#: threads per worker.  Small enough that a single worker's pool is
#: the bottleneck (so adding workers buys simulated time), large enough
#: that the curve reflects real fetch concurrency.
THREADS_PER_WORKER = 4

HARVEST_BUDGET = 2000


def crawl_at(web: SyntheticWeb, workers: int) -> dict:
    """One full portal run at ``workers``; throughput from the harvest
    phase (the learning phase is budget-bound and identical anyway)."""
    config = BingoConfig(
        crawl_workers=workers,
        crawler_threads=THREADS_PER_WORKER,
        learning_fetch_budget=80,
        retrain_interval=50,
        negative_examples=15,
        selected_features=300,
        tf_preselection=1000,
    )
    engine = BingoEngine.for_portal(web, config=config)
    report = engine.run(harvesting_fetch_budget=HARVEST_BUDGET)
    harvest = report.phases[-1].stats
    return {
        "workers": workers,
        "simulated_seconds": round(harvest.simulated_seconds, 3),
        "pages_per_sim_s": round(
            harvest.visited_urls / harvest.simulated_seconds, 3
        ),
        "table1": report.table1_row(),
    }


def _scale_curve() -> tuple[ExperimentTable, list[dict]]:
    # generated once and reused: on a healthy Web fetch outcomes are
    # (seed, url)-deterministic, so server fetch counters carried over
    # from a previous run cannot change any decision -- and the
    # table1_identical assertion would catch it if they did
    web = SyntheticWeb.generate(scale_web_config(seed=7))
    runs = [crawl_at(web, workers) for workers in WORKER_COUNTS]
    base = runs[0]
    for run in runs:
        run["speedup"] = round(
            base["simulated_seconds"] / run["simulated_seconds"], 3
        )
    table = ExperimentTable(
        "Sharded crawl scaling (simulated time, identical results)",
        ["Workers", "Simulated s", "Pages/sim-s", "Speedup"],
        note=f"{len(web.pages)} pages / {len(web.hosts)} hosts; "
             "simulated time is deterministic",
    )
    for run in runs:
        table.add_row([
            str(run["workers"]),
            f"{run['simulated_seconds']}",
            f"{run['pages_per_sim_s']}",
            f"{run['speedup']}x",
        ])
    return table, runs


def test_scale_curve(benchmark) -> None:
    """The same portal crawl at 1, 2, 4 and 8 host-partitioned workers
    over the 100k+ page / 1k+ host scale Web
    (:func:`repro.web.scale_web_config`).  More workers shrink the
    simulated makespan (each worker owns its own fetch pool) while every
    run crawls the exact same pages -- Table-1 must be bit-identical
    across the curve, which is the sharding determinism contract.

    Every figure here is *simulated* time: a property of the scheduler,
    identical on any machine.  What sharding costs in real seconds is
    ``ops_per_s`` on the ``crawl-n4-faults`` workload of
    ``benchmarks/e2e``.
    """
    table, runs = benchmark.pedantic(_scale_curve, rounds=1, iterations=1)
    record_table("scale_curve", table.render())
    base = runs[0]
    table1_identical = all(run["table1"] == base["table1"] for run in runs)
    assert table1_identical, [run["table1"] for run in runs]
    rates = [run["pages_per_sim_s"] for run in runs]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    assert monotone, rates
    # 8 pooled workers must beat 1 by a real margin, not noise
    max_speedup = runs[-1]["speedup"]
    assert max_speedup > 1.5, runs
