"""Fault-tolerance smoke: burst failures, quarantine recovery, resume.

Two demonstrations of the robustness layer (``repro.robust``), each with
a hard pass/fail verdict so CI can run this script as a gate:

1. **Burst failures** -- a fault-injection window takes one host down
   for 40 simulated seconds.  The crawl must quarantine the host, defer
   its URLs (no retry before its backoff), re-probe it after probation,
   and store its pages once the burst passes.
2. **Checkpoint / kill / resume** -- a crawl checkpointing every 25
   visits is killed after 60; a fresh crawler restored from the last
   checkpoint finishes the phase and must land on exactly the Table-1
   counters of an uninterrupted run.

Run with::

    python examples/fault_tolerance.py [--metrics-out PATH]

``--metrics-out`` writes both demos' final metrics snapshots
(:mod:`repro.obs`) as one JSON document, keyed ``burst`` / ``resume``
-- CI uses it to assert the breaker trip and probe counts exported.
Exits non-zero if any check fails.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import tempfile

from repro.core import BingoConfig, FocusedCrawler, HierarchicalClassifier
from repro.core.records import SOFT, PhaseSettings
from repro.core.ontology import TopicTree
from repro.robust import Checkpointer, FaultWindow, restore_context
from repro.text.features import analyze_page
from repro.web import PageRole, SyntheticWeb, WebGraphConfig

WEB_CONFIG = WebGraphConfig(
    seed=7,
    target_researchers=40,
    other_researchers=12,
    universities=10,
    hubs_per_topic=3,
    background_hosts_per_category=3,
    pages_per_background_host=3,
    directory_pages_per_category=4,
)

failures: list[str] = []


def check(condition: bool, label: str) -> None:
    print(f"  [{'ok' if condition else 'FAIL'}] {label}")
    if not condition:
        failures.append(label)


def train_classifier(web, config: BingoConfig) -> HierarchicalClassifier:
    """A single-topic classifier trained straight from web contents."""
    tree = TopicTree.from_leaves(["databases"])
    classifier = HierarchicalClassifier(tree, config)

    def counts_for(page):
        return analyze_page(web.renderer.render(page))[0]

    positives = [
        counts_for(p)
        for p in web.pages_by_topic("databases")
        if p.role == PageRole.PAPER
    ][:20]
    negatives = [counts_for(p) for p in web.negative_example_pages(20)]
    training = {"ROOT/databases": positives, "ROOT/OTHERS": negatives}
    for docs in training.values():
        for counts in docs:
            classifier.ingest(counts)
    classifier.train(training)
    return classifier


def build_crawler(config: BingoConfig) -> FocusedCrawler:
    web = SyntheticWeb.generate(WEB_CONFIG)
    crawler = FocusedCrawler(web, train_classifier(web, config), config)
    crawler.seed(web.seed_homepages(3), topic="ROOT/databases", priority=10.0)
    return crawler


def burst_failure_demo() -> FocusedCrawler:
    print("== crawl under an injected burst-failure window ==")
    web = SyntheticWeb.generate(WEB_CONFIG)
    victim = next(
        h for h in web.hosts.values() if h.name.startswith("u")
    )
    config = BingoConfig(
        max_retries=2,
        retry_base_delay=2.0,
        retry_jitter=0.0,
        host_quarantine=30.0,
        max_host_deferrals=10,
        selected_features=300,
        tf_preselection=1000,
        fault_windows=(
            FaultWindow(0.0, 40.0, kind="timeout", hosts=(victim.name,)),
        ),
    )
    crawler = FocusedCrawler(web, train_classifier(web, config), config)
    urls = [p.url for p in web.pages if p.host == victim.name][:5]
    crawler.seed(urls, topic="ROOT/databases", priority=10.0)
    stats = crawler.crawl(
        PhaseSettings(name="burst", focus=SOFT, fetch_budget=80)
    )

    state = crawler.ctx.host_state(victim.name)
    print(
        f"  injected={dict(crawler.ctx.faults.injected)} "
        f"retries={stats.retries} deferred={stats.quarantine_deferred} "
        f"trips={state.trips} probes={state.probes}"
    )
    check(crawler.ctx.faults.injected["timeout"] > 0, "faults were injected")
    check(state.trips >= 1, "burst host was quarantined")
    check(state.probes >= 1, "quarantined host was re-probed after probation")
    check(not state.bad, "host recovered once the window passed")
    check(
        any(d.host == victim.name for d in crawler.ctx.documents),
        "pages of the burst host were stored after recovery",
    )
    check(
        all(
            record["not_before"] > record["scheduled_at"]
            for record in crawler.ctx.retry_log
        ),
        "every retry carried a backoff deadline",
    )
    robust = crawler.ctx.obs.snapshot()["sources"]["robust"]
    check(
        robust["breaker_trips"] >= 1 and robust["breaker_probes"] >= 1,
        "the registry exports the breaker's own trip and probe counts",
    )
    return crawler


def checkpoint_resume_demo() -> FocusedCrawler:
    print("== checkpoint / kill / resume ==")
    config = BingoConfig(
        max_retries=2, selected_features=300, tf_preselection=1000
    )
    phase = PhaseSettings(name="harvest", focus=SOFT, fetch_budget=120)

    baseline = build_crawler(config)
    baseline_stats = baseline.crawl(phase)

    with tempfile.TemporaryDirectory() as checkpoint_dir:
        interrupted = build_crawler(config)
        checkpointer = Checkpointer(checkpoint_dir, every=25)
        interrupted.crawl(
            PhaseSettings(name="harvest", focus=SOFT, fetch_budget=60),
            checkpointer=checkpointer,
        )
        print(f"  killed after 60 visits ({checkpointer.saves} checkpoints)")
        del interrupted

        resumed = build_crawler(config)
        resume_stats = restore_context(resumed.ctx, checkpoint_dir)
        print(f"  restored at visit {resume_stats.visited_urls}")
        final_stats = resumed.crawl(phase, resume=resume_stats)

    print(f"  baseline: {baseline_stats.table1_row()}")
    print(f"  resumed:  {final_stats.table1_row()}")
    check(
        final_stats.table1_row() == baseline_stats.table1_row(),
        "resumed crawl reached identical Table-1 counters",
    )
    check(
        [d.final_url for d in resumed.ctx.documents]
        == [d.final_url for d in baseline.ctx.documents],
        "resumed crawl stored identical documents",
    )
    return resumed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--metrics-out", metavar="PATH", default=None,
        help="write both demos' metrics snapshots to PATH as JSON",
    )
    args = parser.parse_args(argv)

    burst_crawler = burst_failure_demo()
    resumed_crawler = checkpoint_resume_demo()

    if args.metrics_out:
        path = pathlib.Path(args.metrics_out)
        if path.parent != pathlib.Path("."):
            path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(
            {
                "burst": burst_crawler.ctx.obs.snapshot(),
                "resume": resumed_crawler.ctx.obs.snapshot(),
            },
            sort_keys=True,
            indent=2,
        ) + "\n")
        print(f"\nmetrics written: {path}")

    if failures:
        print(f"\n{len(failures)} check(s) FAILED: {failures}")
        return 1
    print("\nall fault-tolerance checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
