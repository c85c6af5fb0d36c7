"""Information portal generation (paper section 5.2, Tables 1-3).

Runs the full portal experiment -- a single-topic "database research"
crawl seeded with two homepages, paused and resumed like the paper's
90-minute/12-hour checkpoints -- then post-processes the result like a
portal administrator would: registry scoring, a keyword query through
the local search engine, and cluster-based subclass suggestions.

Run with::

    python examples/portal_generation.py
"""

from __future__ import annotations

from repro.experiments.portal import run_portal_experiment
from repro.search.clustering import suggest_subclasses
from repro.search.engine import LocalSearchEngine, RankingWeights


def main() -> None:
    result = run_portal_experiment(short_budget=500, long_budget=3000)
    print(result.table1.render())
    print()
    print(result.table2.render())
    print()
    print(result.table3.render())
    print()
    for note in result.notes:
        print(f"note: {note}")

    # Rerun a small crawl to demonstrate postprocessing on live objects.
    from repro.core import BingoEngine
    from repro.experiments.portal import bench_engine_config, bench_web_config
    from repro.web import SyntheticWeb

    web = SyntheticWeb.generate(bench_web_config(seed=17))
    engine = BingoEngine.for_portal(web, config=bench_engine_config(seed=17))
    engine.run(harvesting_fetch_budget=800)
    documents = engine.ranked_results("ROOT/databases")

    print("\n--- local search engine: query 'concurrency recovery' ---")
    search = LocalSearchEngine(engine.ctx.documents)
    hits = search.search(
        "concurrency recovery",
        topic="ROOT/databases",
        weights=RankingWeights(cosine=0.6, confidence=0.2, authority=0.2),
        top_k=5,
    )
    for hit in hits:
        print(
            f"  {hit.score:5.3f} (cos {hit.cosine:4.2f} / conf "
            f"{hit.confidence:4.2f} / auth {hit.authority:4.2f})  {hit.url}"
        )

    print("\n--- subclass suggestions for the 'databases' class ---")
    suggestions = suggest_subclasses(documents[:80], k_range=(2, 3, 4))
    for suggestion in suggestions:
        print(
            f"  proposed subclass '{suggestion.label}' "
            f"({len(suggestion.documents)} documents)"
        )


if __name__ == "__main__":
    main()
