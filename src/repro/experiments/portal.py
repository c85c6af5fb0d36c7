"""Portal generation experiment: Table 1 and Tables 2/3 (paper 5.2).

The paper seeds a single-topic "database research" crawl with two leading
researchers' homepages, pauses after 90 minutes (Table 2), resumes to 12
hours total (Table 3), and scores the confidence-ranked result list
against DBLP's publication-ranked author registry.

We replay the same protocol against the synthetic Web, scaled: the
registry holds hundreds (not 31,582) of authors, so cutoffs scale from
(1000 / 5000 / all vs top-1000) to (100 / 500 / all vs top-100) and the
two checkpoints are fetch budgets standing in for the two wall-clock
budgets.  Expected *shape* (not absolute numbers): the long crawl visits
roughly an order of magnitude more URLs, multiplies overall recall
several-fold, and improves top-cutoff precision markedly (paper: 27 ->
267 top-1000 authors in the top-1000 results; 218 -> 712 found overall).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import BingoConfig, BingoEngine
from repro.core.engine import CrawlReport
from repro.experiments.reporting import ExperimentTable
from repro.web import SyntheticWeb, WebGraphConfig

__all__ = [
    "PortalExperimentResult",
    "bench_web_config",
    "bench_engine_config",
    "run_portal_experiment",
]

TOP_K = 100
"""Registry authors counted as top-ranked (the paper's top 1000, scaled)."""
CUTOFFS = (100, 500, 0)
"""Best-crawl-result cutoffs of Tables 2/3; 0 scores every result."""
_TABLE1_LABELS = {
    "visited_urls": "Visited URLs",
    "stored_pages": "Stored pages",
    "extracted_links": "Extracted links",
    "positively_classified": "Positively classified",
    "visited_hosts": "Visited hosts",
    "max_crawling_depth": "Max crawling depth",
}


def bench_web_config(seed: int = 17) -> WebGraphConfig:
    """The benchmark Web: bigger than the test fixtures, laptop-scale."""
    return WebGraphConfig(
        seed=seed,
        target_researchers=300,
        other_researchers=70,
        universities=60,
        hubs_per_topic=8,
        background_hosts_per_category=25,
        pages_per_background_host=8,
        directory_pages_per_category=20,
    )


def bench_engine_config(seed: int = 17) -> BingoConfig:
    return BingoConfig(
        seed=seed,
        learning_fetch_budget=250,
        retrain_interval=400,
        selected_features=2000,
        tf_preselection=5000,
    )


@dataclass
class PortalExperimentResult:
    """Tables 1-3 of both checkpoints, raw values in their rows."""

    table1: ExperimentTable
    table2: ExperimentTable
    table3: ExperimentTable
    registry_size: int
    notes: list[str]


def run_portal_experiment(
    seed: int = 17,
    short_budget: int = 700,
    long_budget: int = 7000,
) -> PortalExperimentResult:
    """Run the two-checkpoint portal crawl and score both checkpoints.

    The crawl is paused at ``short_budget`` fetches, scored, resumed to
    ``long_budget`` total fetches, and scored again -- exactly the
    pause/resume protocol of the paper.
    """
    if short_budget >= long_budget:
        raise ValueError("short_budget must be smaller than long_budget")
    web = SyntheticWeb.generate(bench_web_config(seed))
    config = bench_engine_config(seed)
    engine = BingoEngine.for_portal(web, config=config)
    registry = web.registry(web.config.target_topic)
    topic = f"ROOT/{web.config.target_topic}"

    def precision_table(title: str) -> ExperimentTable:
        table = ExperimentTable(
            title,
            ["Best crawl results", f"Top {TOP_K} registry", "All authors"],
            note=(
                f"registry holds {len(registry)} authors; paper used "
                "DBLP with 31,582"
            ),
        )
        ranked = engine.ranked_result_urls(topic)
        for row in registry.score(ranked, cutoffs=list(CUTOFFS), top_k=TOP_K):
            table.add_row([row.cutoff, row.found_top, row.found_all])
        return table

    learning = engine.run_learning_phase()
    phases = [learning, engine.run_harvesting_phase(
        fetch_budget=max(short_budget - learning.stats.visited_urls, 1)
    )]
    short = CrawlReport(phases=list(phases)).table1_row()
    table2 = precision_table("Table 2: BINGO! precision (short crawl)")
    phases.append(
        engine.run_harvesting_phase(fetch_budget=long_budget - short_budget)
    )
    long = CrawlReport(phases=phases).table1_row()
    table3 = precision_table("Table 3: BINGO! precision (long crawl)")

    table1 = ExperimentTable(
        "Table 1: Crawl summary data",
        ["Property", "short crawl", "long crawl"],
        note="paper: 90 minutes vs 12 hours on the live Web",
    )
    for key, label in _TABLE1_LABELS.items():
        table1.add_row([label, short[key], long[key]])
    return PortalExperimentResult(
        table1=table1,
        table2=table2,
        table3=table3,
        registry_size=len(registry),
        notes=[
            f"retrainings: {engine.retrainings}",
            f"archetypes promoted: {engine.archetypes_added}",
        ],
    )
