"""Expert Web search experiment: Figures 4 and 5 (paper 5.3).

The paper hunts for "public domain open source implementations of the
ARIES recovery algorithm": a needle-in-a-haystack query for which a
plain keyword engine returns nothing useful.  The workflow:

1. query an external engine for "aries recovery method/algorithm" and
   intellectually select 7 reasonable seed documents (Figure 4);
2. run a short focused crawl from those seeds;
3. postprocess with the local search engine: keyword filter "source code
   release" with cosine ranking (Figure 5);
4. success = open-source project pages (the needles) in the top 10.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core import BingoConfig, BingoEngine
from repro.experiments.reporting import ExperimentTable
from repro.search.engine import LocalSearchEngine, RankingWeights
from repro.search.seed_queries import ExternalSearchEngine, SeedHit
from repro.web import SyntheticWeb

__all__ = ["ExpertExperimentResult", "run_expert_experiment"]

LEARNING_FETCH_BUDGET = 120


@dataclass
class ExpertExperimentResult:
    """Figures 4 and 5 plus what they do not show: the seeds, the needle
    pages, the crawl's Table-1 row and the needle counts of the crawl and
    of the unfocused baseline."""

    figure4: ExperimentTable
    figure5: ExperimentTable
    seed_hits: list[SeedHit]
    needle_urls: set[str]
    crawl_table1: dict[str, int]
    needles_crawled: int
    unfocused_needles_in_top10: int


def run_expert_experiment(
    seed: int = 7,
    crawl_fetch_budget: int = 700,
) -> ExpertExperimentResult:
    """Run the full expert-search workflow on the ARIES synthetic Web."""
    web = SyntheticWeb.generate_expert(seed=seed)
    external = ExternalSearchEngine(web)

    # Figure 4: seed selection from the unfocused engine's top 10.
    seed_hits = external.select_seeds(
        "aries recovery method algorithm", top_k=10, max_seeds=7
    )
    figure4 = ExperimentTable(
        "Figure 4: Initial training documents",
        ["#", "Seed URL", "Role"],
        note="selected from the external engine's top 10",
    )
    for i, hit in enumerate(seed_hits, 1):
        figure4.add_row([i, hit.url, hit.page.role.value])
    unfocused = external.query("source code release aries recovery", top_k=10)
    needle_urls = web.needle_urls()
    unfocused_needles = sum(hit.url in needle_urls for hit in unfocused)

    config = BingoConfig(
        seed=seed,
        learning_fetch_budget=LEARNING_FETCH_BUDGET,
        retrain_interval=150,
        selected_features=1000,
        tf_preselection=4000,
    )
    engine = BingoEngine.for_expert(
        web, [hit.url for hit in seed_hits], topic="aries", config=config
    )
    report = engine.run(harvesting_fetch_budget=crawl_fetch_budget)

    # Figure 5: keyword filtering with cosine ranking over the *whole*
    # crawl database.  (The paper's own top-10 includes pages that were
    # not classified into the ARIES class -- the focused-crawl advantage
    # lies in the corpus the crawl collected, not in the class filter.)
    search = LocalSearchEngine(engine.ctx.documents)
    hits = search.search(
        "source code release",
        topic=None,
        weights=RankingWeights(cosine=1.0),
        top_k=10,
    )
    needles_in_top10 = sum(hit.url in needle_urls for hit in hits)
    figure5 = ExperimentTable(
        "Figure 5: Top 10 results for query 'source code release'",
        ["Score", "URL", "Needle?"],
        note=(
            f"{needles_in_top10} needle page(s) in the top 10; "
            f"unfocused baseline had {unfocused_needles}"
        ),
    )
    for hit in hits:
        figure5.add_row(
            [hit.score, hit.url, "yes" if hit.url in needle_urls else ""]
        )
    return ExpertExperimentResult(
        figure4=figure4,
        figure5=figure5,
        seed_hits=seed_hits,
        needle_urls=needle_urls,
        crawl_table1=report.table1_row(),
        needles_crawled=sum(
            doc.final_url in needle_urls for doc in engine.ctx.documents
        ),
        unfocused_needles_in_top10=unfocused_needles,
    )
