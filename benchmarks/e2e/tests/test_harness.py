"""Timing rules, the metric contract and the output checks."""

from __future__ import annotations

import argparse
import json
import time

import pytest

from benchmarks.e2e import harness, run, workloads
from benchmarks.e2e.calibrate import Calibrator
from benchmarks.e2e.harness import best_segments, percentile
from benchmarks.e2e.workloads import Repeat

SPEC = harness.load_spec()
NAMES = [workload["name"] for workload in SPEC["workloads"]]


class TestPercentile:
    def test_nearest_rank(self) -> None:
        values = [float(value) for value in range(1, 1201)]
        assert percentile(values, 0.5) == 600.0
        assert percentile(values, 0.99) == 1188.0

    def test_refuses_fewer_than_ten_samples_beyond(self) -> None:
        values = [float(value) for value in range(1000)]
        assert percentile(values, 0.99) == 989.0
        with pytest.raises(ValueError, match="beyond"):
            percentile(values[:999], 0.99)
        with pytest.raises(ValueError, match="beyond"):
            percentile(values[:19], 0.5)


class TestBestOfR:
    def test_each_segment_takes_its_fastest_repeat(self) -> None:
        quiet_then_noisy = [0.0, 1.0, 5.0]
        noisy_then_quiet = [10.0, 13.0, 15.0]
        assert best_segments([quiet_then_noisy, noisy_then_quiet]) == [
            1.0, 2.0,
        ]

    def test_without_inner_marks_it_is_the_best_repeat(self) -> None:
        assert best_segments([[0.0, 3.0], [5.0, 7.5], [9.0, 13.0]]) == [2.5]


class _Flaky:
    """A workload whose second repeat produces a different output."""

    name = "crawl-n1"
    rebuild_per_repeat = False

    def __init__(self) -> None:
        self.calls = 0

    def setup(self, seed: int) -> None:
        return None

    def repeat(self, state: None) -> Repeat:
        self.calls += 1
        started = time.perf_counter()
        return Repeat(
            ops=1, failed=0, fingerprint={"output": min(self.calls, 2)},
            marks=[started, time.perf_counter()],
        )

    def verify(self, state: None) -> list[str]:
        return []


class TestOutputChecks:
    def test_fingerprint_drift_between_repeats_is_incorrect(self) -> None:
        result = harness.run_workload(
            _Flaky(), 7, seconds=0, repeats=2, trace=False
        )
        # no calibrator: plain wall seconds
        assert result.details["repeat_s"] == result.details["wall_s"]
        assert not result.correct
        assert any("fingerprint differs" in p for p in result.problems)
        assert json.loads(result.line())["correct"] is False

    def test_golden_mismatch_exits_non_zero(
        self, tmp_path, monkeypatch, capsys
    ) -> None:
        monkeypatch.setitem(
            workloads.SIZES, "full", workloads.SIZES["toy"]
        )
        monkeypatch.setattr(run, "GOLDEN_DIR", tmp_path)
        args = argparse.Namespace(
            workload="crawl-n1", seed=harness.GOLDEN_SEED, seconds=0.0,
            repeats=2, trace=0, out=None, update_golden=True,
        )
        assert run.run_leaf(args) == 0
        args.update_golden = False
        assert run.run_leaf(args) == 0
        golden = tmp_path / "crawl-n1.json"
        stored = json.loads(golden.read_text())
        stored["fingerprint"]["table1"]["visited_urls"] += 1
        golden.write_text(json.dumps(stored))
        assert run.run_leaf(args) == 1
        last_line = capsys.readouterr().out.strip().splitlines()[-1]
        assert json.loads(last_line)["correct"] is False


@pytest.fixture(scope="module", params=NAMES)
def toy_results(request):
    """One end-to-end toy run per workload, on the speed reference as
    `run.py` makes it, and one traced run."""
    results = {}
    for trace in (False, True):
        calibrator = None if trace else Calibrator()
        if calibrator is not None:
            calibrator.start()
        try:
            results[trace] = harness.run_workload(
                workloads.build(request.param, "toy"), 7, seconds=0,
                repeats=2, trace=trace, calibrator=calibrator,
            )
        finally:
            if calibrator is not None:
                calibrator.stop()
    return results


class TestMetricContract:
    def test_workloads_match_benchmark_json(self) -> None:
        assert sorted(NAMES) == sorted(workloads.WORKLOADS)
        assert all(name in workloads.SIZES["full"] for name in NAMES)

    def test_end_to_end_names_and_units(self, toy_results) -> None:
        result = toy_results[False]
        assert result.correct, result.problems
        assert {
            name: metric["unit"] for name, metric in result.metrics.items()
        } == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
        assert all(m["value"] > 0 for m in result.metrics.values())
        assert result.failed == 0 and result.attempted >= 1
        assert len(result.details["repeat_s"]) == 2

    def test_end_to_end_times_are_reference_seconds(
        self, toy_results
    ) -> None:
        details = toy_results[False].details
        assert details["ticks"] > 0
        for wall_s, reference_s, speed in zip(
            details["wall_s"], details["repeat_s"], details["speed"]
        ):
            # ticks are taken out, then the speed divides
            assert 0.0 < reference_s * speed < wall_s
        assert toy_results[True].details["ticks"] == 0

    def test_per_layer_names_and_units(self, toy_results) -> None:
        result = toy_results[True]
        assert result.correct, result.problems
        assert {
            name: metric["unit"] for name, metric in result.metrics.items()
        } == {m["name"]: m["unit"] for m in SPEC["per_layer"]}

    def test_layer_self_times_sum_to_the_traced_repeat(
        self, toy_results
    ) -> None:
        result = toy_results[True]
        busy = sum(
            metric["value"] for name, metric in result.metrics.items()
            if name.endswith(".busy_s") and name != "portal.prime.busy_s"
        )
        assert busy == pytest.approx(
            result.details["traced_repeat_s"], rel=harness.SUM_TOLERANCE
        )
        assert result.metrics["trace.overhead_ratio"]["value"] > 0

    def test_every_repeat_printed_the_same_fingerprint(
        self, toy_results
    ) -> None:
        assert (
            toy_results[False].details["fingerprint"]
            == toy_results[True].details["fingerprint"]
        )


class TestAttribution:
    """The 'does the work / does none' split the workloads were chosen
    for, at toy size."""

    @staticmethod
    def value(result, name: str) -> float:
        return result.metrics[name]["value"]

    def test_layers_a_workload_bypasses_read_zero(self, toy_results) -> None:
        result = toy_results[True]
        idle = {
            "crawl-n1": ("shard.", "robust.", "search.", "portal."),
            "crawl-n4-faults": ("search.", "portal."),
            "serve-cold": ("pipeline.", "shard.", "robust.", "portal."),
            "living-portal": ("pipeline.", "shard.", "robust."),
        }[result.workload]
        for name, metric in result.metrics.items():
            if name.startswith(idle) and name != "portal.prime.busy_s":
                assert metric["value"] == 0, name

    def test_layers_a_workload_stresses_are_busy(self, toy_results) -> None:
        result = toy_results[True]
        busy = {
            "crawl-n1": ("pipeline.persist.busy_s", "text.scan.busy_s"),
            "crawl-n4-faults": (
                "shard.frontier.pop.busy_s", "storage.dump_database.busy_s",
                "robust.checkpoint.restore.busy_s", "robust.retries",
            ),
            "serve-cold": ("perf.wand_topk.busy_s", "query_p99_ms"),
            "living-portal": (
                "portal.scheduler.run.busy_s", "search.apply_delta.busy_s",
                "search.cache.hit_ratio", "portal.prime.busy_s",
            ),
        }[result.workload]
        for name in busy:
            assert self.value(result, name) > 0, name
