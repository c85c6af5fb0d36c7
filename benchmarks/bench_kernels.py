"""Kernel-layer speedups: compiled classification, CSR HITS.

The decision phase runs "for each retrieved document" inside the crawl
loop (paper section 2.4) and link analysis runs at every retraining
point (section 2.5), so both are hot paths worth compiling.  Expected
shape: batch classification >= 3x over the per-document dict reference
and CSR HITS >= 2x over the dict formulation on a 10k-node graph.

Results are written machine-readably to
``benchmarks/results/BENCH_kernels.json`` (also produced standalone by
``benchmarks/run_kernels.py``, which CI runs against the committed
baseline).
"""

from __future__ import annotations

from repro.experiments.reporting import ExperimentTable

from benchmarks.conftest import record_json, record_table
from benchmarks.kernel_runner import run_all

_RESULTS: dict = {}


def test_kernel_speedups() -> None:
    results = run_all()
    _RESULTS.update(results)
    record_json("BENCH_kernels", results)

    table = ExperimentTable(
        "Kernel-layer speedups (compiled vs reference)",
        ["Benchmark", "Reference", "Compiled", "Speedup"],
        note="throughputs are machine-dependent; ratios are what CI tracks",
    )
    classification = results["classification"]
    table.add_row([
        f"classification ({classification['docs']} docs, "
        f"{classification['mode']})",
        f"{classification['reference_docs_per_s']} docs/s",
        f"{classification['batch_docs_per_s']} docs/s",
        f"{classification['speedup']}x",
    ])
    hits = results["hits"]
    table.add_row([
        f"HITS ({hits['nodes']} nodes, {hits['edges']} edges)",
        f"{hits['reference_iter_per_s']} iter/s",
        f"{hits['csr_iter_per_s']} iter/s",
        f"{hits['speedup']}x",
    ])
    record_table("kernel_speedups", table.render())

    assert classification["speedup"] >= 3.0, classification
    assert hits["speedup"] >= 2.0, hits
