"""E8 -- section 4.1: bulk loading vs row-at-a-time inserts.

"Each thread batches the storing of new documents and avoids SQL insert
commands ... This way the crawler can sustain a throughput of up to ten
thousand documents per minute."

These are genuine micro-benchmarks (multiple timed rounds).  Expected
shape: bulk loading through workspaces beats per-row inserts by a clear
constant factor, and validating a batch (the crawl path: the engine's
store always validates) costs less than storing it -- about 0.14
microseconds for a three-column ``terms`` tuple, the commonest row of a
crawl, against about 0.2 to key-check and store it.
"""

from __future__ import annotations

import time

from repro.experiments.reporting import ExperimentTable
from repro.storage.bulkloader import BulkLoader
from repro.storage.database import Database, Relation
from repro.storage.schema import BINGO_SCHEMA

from benchmarks.conftest import record_table

N_DOCS = 2000
N_TERMS = 40_000
TERMS_BATCH = 200

_timings: dict[str, float] = {}
_terms_row_us: dict[str, float] = {}


def _document_row(i: int) -> tuple:
    """A ``documents`` row, in column order."""
    return (
        i,
        f"http://host{i % 50}.example/~user{i}/index.html",
        f"host{i % 50}.example",
        "text/html",
        1000 + i,
        f"document {i}",
        "ROOT/databases",
        0.5,
        i % 7,
        float(i),
        i,
    )


def test_row_at_a_time_inserts(benchmark) -> None:
    def run():
        database = Database(validate=False)
        table = database["documents"]
        for i in range(N_DOCS):
            table.insert(_document_row(i))
        return database

    database = benchmark(run)
    _timings["row-at-a-time"] = benchmark.stats["mean"]
    assert len(database["documents"]) == N_DOCS


def test_bulk_loader_inserts(benchmark) -> None:
    def run():
        database = Database(validate=False)
        loader = BulkLoader(database, batch_size=200)
        for i in range(N_DOCS):
            loader.add(i % 15, "documents", _document_row(i))
        loader.flush_all()
        return database

    database = benchmark(run)
    _timings["bulk loader"] = benchmark.stats["mean"]
    assert len(database["documents"]) == N_DOCS


def test_bulk_loader_validated(benchmark) -> None:
    def run():
        database = Database(validate=True)
        loader = BulkLoader(database, batch_size=200)
        for i in range(N_DOCS):
            loader.add(i % 15, "documents", _document_row(i))
        loader.flush_all()
        return database

    database = benchmark(run)
    _timings["bulk loader + validation"] = benchmark.stats["mean"]
    assert len(database["documents"]) == N_DOCS


def test_terms_row_cost(benchmark) -> None:
    """Microseconds per ``terms`` row through ``bulk_insert`` with and
    without validation, interleaved so both see the same machine."""
    batches = [
        [
            (start + i, f"term{i % 997}", 1 + i % 5)
            for i in range(TERMS_BATCH)
        ]
        for start in range(0, N_TERMS, TERMS_BATCH)
    ]

    def load(validate: bool) -> float:
        relation = Relation(BINGO_SCHEMA["terms"], validate=validate)
        started = time.perf_counter()
        for batch in batches:
            relation.bulk_insert(batch)
        elapsed = time.perf_counter() - started
        assert len(relation) == N_TERMS
        return elapsed / N_TERMS * 1e6

    def run() -> None:
        for name, validate in (("stored", False), ("validated", True)):
            _terms_row_us[name] = min(
                load(validate), _terms_row_us.get(name, float("inf"))
            )

    benchmark(run)
    _report_storage_shape()


def _report_storage_shape() -> None:
    """Summarise and check the paper's efficiency claim (shape only).

    Runs at the end of the last storage benchmark so it is included
    under ``--benchmark-only`` (plain tests are skipped there).
    """
    assert set(_timings) >= {"row-at-a-time", "bulk loader"}
    table = ExperimentTable(
        "Storage ingest (section 4.1)",
        ["Strategy", "Mean seconds / 2000 docs", "Docs per minute"],
        note="paper: bulk loading sustains ~10k documents per minute",
    )
    for name, mean in _timings.items():
        table.add_row([name, round(mean, 4), int(N_DOCS / mean * 60)])
    stored = _terms_row_us["stored"]
    validation = _terms_row_us["validated"] - stored
    rows = ExperimentTable(
        "Bulk path, microseconds per `terms` row (best round)",
        ["Step", "us / row"],
        note=f"{N_TERMS:,} rows in batches of {TERMS_BATCH}; relations "
             "have no secondary indexes",
    )
    rows.add_row(["key check + store", round(stored, 3)])
    rows.add_row(["schema validation", round(validation, 3)])
    record_table(
        "storage_throughput", table.render() + "\n\n" + rows.render()
    )
    # fewer statements is the mechanism; time should not be worse
    assert _timings["bulk loader"] <= _timings["row-at-a-time"] * 1.1
    # the simulated crawler comfortably exceeds the paper's 10k docs/min
    assert N_DOCS / _timings["bulk loader"] * 60 > 10_000
    # what made deleting the validate_storage knob cheap: checking a
    # row costs about what storing it does (0.14 vs 0.2 us on the
    # reference box; relative, so a slower machine does not fail it)
    assert validation < 1.5 * stored
