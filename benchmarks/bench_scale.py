"""Sharded-crawl scaling: simulated pages/s vs worker count.

The same portal crawl runs at 1, 2, 4 and 8 host-partitioned workers
over the 100k+ page / 1k+ host scale Web
(:func:`repro.web.scale_web_config`).  More workers shrink the
simulated makespan (each worker owns its own fetch pool) while every
run crawls the exact same pages -- Table-1 must be bit-identical
across the curve, which is the sharding determinism contract.

Every figure here is *simulated* time: a property of the scheduler,
identical on any machine.  What sharding costs in real seconds is
``ops_per_s`` on the ``crawl-n4-faults`` workload of ``benchmarks/e2e``.
"""

from __future__ import annotations

from repro.core import BingoConfig, BingoEngine
from repro.experiments.reporting import ExperimentTable
from repro.web import SyntheticWeb, scale_web_config

from benchmarks.conftest import record_table

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


def test_scale_curve() -> None:
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
    record_table("scale_curve", table.render())

    table1_identical = all(run["table1"] == base["table1"] for run in runs)
    assert table1_identical, [run["table1"] for run in runs]
    rates = [run["pages_per_sim_s"] for run in runs]
    monotone = all(a <= b for a, b in zip(rates, rates[1:]))
    assert monotone, rates
    # 8 pooled workers must beat 1 by a real margin, not noise
    max_speedup = runs[-1]["speedup"]
    assert max_speedup > 1.5, runs
