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

from dataclasses import dataclass, field

from repro.core import BingoConfig, BingoEngine
from repro.experiments.reporting import ExperimentTable
from repro.web import SyntheticWeb, WebGraphConfig
from repro.web.dblp import PortalScores

__all__ = [
    "PortalCheckpoint",
    "PortalExperimentResult",
    "bench_web_config",
    "bench_engine_config",
    "run_portal_experiment",
]


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
class PortalCheckpoint:
    """One pause point ("90 minutes" / "12 hours")."""

    label: str
    table1: dict[str, int]
    scores: list[PortalScores]
    simulated_seconds: float


@dataclass
class PortalExperimentResult:
    """Both checkpoints plus the scaled evaluation parameters."""

    short: PortalCheckpoint
    long: PortalCheckpoint
    top_k: int
    cutoffs: list[int]
    registry_size: int
    web_size: int
    notes: list[str] = field(default_factory=list)

    def table1(self) -> ExperimentTable:
        table = ExperimentTable(
            "Table 1: Crawl summary data",
            ["Property", self.short.label, self.long.label],
            note="paper: 90 minutes vs 12 hours on the live Web",
        )
        labels = {
            "visited_urls": "Visited URLs",
            "stored_pages": "Stored pages",
            "extracted_links": "Extracted links",
            "positively_classified": "Positively classified",
            "visited_hosts": "Visited hosts",
            "max_crawling_depth": "Max crawling depth",
        }
        for key, label in labels.items():
            table.add_row([label, self.short.table1[key], self.long.table1[key]])
        return table

    def _score_table(
        self, title: str, checkpoint: PortalCheckpoint
    ) -> ExperimentTable:
        table = ExperimentTable(
            title,
            [
                "Best crawl results",
                f"Top {self.top_k} registry",
                "All authors",
            ],
            note=(
                f"registry holds {self.registry_size} authors; paper used "
                "DBLP with 31,582"
            ),
        )
        for row in checkpoint.scores:
            table.add_row([row.cutoff, row.found_top, row.found_all])
        return table

    def table2(self) -> ExperimentTable:
        return self._score_table(
            f"Table 2: BINGO! precision ({self.short.label})", self.short
        )

    def table3(self) -> ExperimentTable:
        return self._score_table(
            f"Table 3: BINGO! precision ({self.long.label})", self.long
        )


def run_portal_experiment(
    seed: int = 17,
    short_budget: int = 700,
    long_budget: int = 7000,
    top_k: int = 100,
    cutoffs: tuple[int, ...] = (100, 500, 0),
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

    learning = engine.run_learning_phase()
    first = engine.run_harvesting_phase(
        fetch_budget=max(short_budget - learning.stats.visited_urls, 1)
    )

    def checkpoint(label: str) -> PortalCheckpoint:
        total = {"visited_urls": 0, "stored_pages": 0, "extracted_links": 0,
                 "positively_classified": 0}
        # cumulative Table-1 row over everything crawled so far
        stats_rows = [learning.stats, first.stats]
        if len(phases) == 3:
            stats_rows.append(phases[2].stats)
        hosts: set[str] = set()
        max_depth = 0
        sim = 0.0
        for stats in stats_rows:
            total["visited_urls"] += stats.visited_urls
            total["stored_pages"] += stats.stored_pages
            total["extracted_links"] += stats.extracted_links
            total["positively_classified"] += stats.positively_classified
            hosts |= stats.hosts_visited
            max_depth = max(max_depth, stats.max_depth)
            sim += stats.simulated_seconds
        table1 = dict(total)
        table1["visited_hosts"] = len(hosts)
        table1["max_crawling_depth"] = max_depth
        ranked = engine.ranked_result_urls(topic)
        scores = registry.score(ranked, cutoffs=list(cutoffs), top_k=top_k)
        return PortalCheckpoint(
            label=label, table1=table1, scores=scores,
            simulated_seconds=sim,
        )

    phases = [learning, first]
    short = checkpoint("short crawl")
    second = engine.run_harvesting_phase(
        fetch_budget=long_budget - short_budget
    )
    phases.append(second)
    long = checkpoint("long crawl")

    return PortalExperimentResult(
        short=short,
        long=long,
        top_k=top_k,
        cutoffs=[c if c else len(engine.ranked_result_urls(topic)) for c in cutoffs],
        registry_size=len(registry),
        web_size=web.size,
        notes=[
            f"retrainings: {engine.retrainings}",
            f"archetypes promoted: {engine.archetypes_added}",
        ],
    )
