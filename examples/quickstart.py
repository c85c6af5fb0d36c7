"""Quickstart: run a focused crawl end to end in under a minute.

Generates a small synthetic Web, points BINGO! at the homepages of two
leading "database researchers", runs the learning + harvesting phases,
and prints the crawl summary plus the ten most confident results.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro.core import BingoConfig, BingoEngine
from repro.web import SyntheticWeb, WebGraphConfig


def main() -> None:
    # A small Web: ~1,500 pages across six research topics and five
    # background categories, with hubs, welcome pages, traps and noise.
    web = SyntheticWeb.generate(
        WebGraphConfig(
            seed=7,
            target_researchers=60,
            other_researchers=20,
            universities=15,
            hubs_per_topic=3,
            background_hosts_per_category=4,
            pages_per_background_host=3,
            directory_pages_per_category=4,
        )
    )
    print(f"synthetic web: {web.size} pages on {len(web.hosts)} hosts")

    # BINGO! seeded with the two most-published researchers' homepages
    # (the paper seeds with the homepages of DeWitt and Gray).
    config = BingoConfig(
        learning_fetch_budget=120,
        retrain_interval=60,
        negative_examples=20,
    )
    engine = BingoEngine.for_portal(web, config=config)
    print(f"seeds: {engine.seeds}")

    report = engine.run(harvesting_fetch_budget=500)
    for phase in report.phases:
        row = phase.stats.table1_row()
        print(
            f"{phase.name:>10}: visited={row['visited_urls']} "
            f"stored={row['stored_pages']} "
            f"accepted={row['positively_classified']} "
            f"hosts={row['visited_hosts']} depth={row['max_crawling_depth']} "
            f"(retrainings={phase.retrainings}, "
            f"archetypes +{phase.archetypes_added}/-{phase.archetypes_removed})"
        )

    print("\ntop 10 results by SVM confidence:")
    for doc in engine.ranked_results("ROOT/databases")[:10]:
        print(f"  {doc.confidence:6.3f}  {doc.final_url}")

    registry = web.registry("databases")
    found = registry.found_authors(
        doc.final_url for doc in engine.ctx.documents
    )
    print(
        f"\nregistry recall: {len(found)}/{len(registry)} database "
        "researchers have a page in the crawl result"
    )

    # Every subsystem keeps its own counts behind stats(); one metrics
    # registry (repro.obs) reads them all at snapshot time, and the same
    # snapshot is exportable as Prometheus text or JSON via
    # `python -m repro.cli portal crawl --metrics-out metrics.json`.
    snapshot = engine.obs.snapshot()
    print("\nfinal metrics snapshot (per-subsystem stats sources):")
    for source, stats in snapshot["sources"].items():
        line = " ".join(
            f"{key}={value:g}" for key, value in sorted(stats.items())
        )
        print(f"  {source}: {line}")
    sources = snapshot["sources"]
    print(
        f"  in short: batches={sources['pipeline']['classify_batches']:g}"
        f" accepted={sources['pipeline']['docs_accepted']:g}"
        f" retries={sources['crawl']['retries']:g}"
    )


if __name__ == "__main__":
    main()
