"""``benchmarks/paired.py``: the verdict rule on hand-made run lists."""

from __future__ import annotations

from benchmarks.paired import (
    arguments,
    quartiles,
    schedule,
    summarize,
    verdict,
)

HIGHER = {"name": "ops_per_s", "better": "higher"}
LOWER = {"name": "setup_s", "better": "lower"}
PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 100.0, 103.0, 97.0, 100.0, 101.0]


def test_quartiles_are_inclusive_and_survive_one_run() -> None:
    assert quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 4.0)
    assert quartiles([7.0]) == (7.0, 7.0)


def test_gain_needs_nine_tenths_of_untied_pairs_and_a_gap_past_the_iqr() -> None:
    change = [value + 10.0 for value in PARENT]
    assert verdict(HIGHER, PARENT, change) == "gain"
    assert verdict(LOWER, PARENT, change) == "loss"
    # nine wins of ten still carry it, eight do not
    assert verdict(HIGHER, PARENT, [90.0] + change[1:]) == "gain"
    assert verdict(HIGHER, PARENT, [90.0, 90.0] + change[2:]) == "unresolved"
    # ties count for neither side: 9 wins of 9 untied pairs
    assert verdict(HIGHER, PARENT, [PARENT[0]] + change[1:]) == "gain"


def test_a_gap_inside_the_parents_spread_is_unresolved() -> None:
    low, high = quartiles(PARENT)
    nudge = (high - low) / 2
    change = [value + nudge for value in PARENT]  # wins 10 of 10
    assert verdict(HIGHER, PARENT, change) == "unresolved"
    assert verdict(HIGHER, PARENT, list(PARENT)) == "unresolved"  # all ties


def test_summarize_prints_quartiles_wins_and_the_verdict() -> None:
    text = summarize(LOWER, [2.0, 2.2, 2.1, 2.0], [1.0, 1.1, 1.0, 1.2])
    first, second = text.splitlines()
    assert "setup_s" in first and "q[2 .. 2.125]" in first
    assert "change won 4 of 4" in first and "-48.8%" in first
    assert "verdict: gain" in second
    assert "inter-quartile distance 0.125" in second


def test_ten_pairs_by_default_and_several_workloads_in_one_session() -> None:
    args = arguments(["--parent", "HEAD", "--workload", "crawl-n1"])
    assert args.workload == ["crawl-n1"] and args.pairs == 10
    args = arguments([
        "--parent", "HEAD", "--workload", "crawl-n1", "serve-cold",
        "--pairs", "3",
    ])
    assert args.workload == ["crawl-n1", "serve-cold"] and args.pairs == 3


def test_schedule_interleaves_workloads_and_alternates_sides() -> None:
    assert schedule(["a", "b"], 2) == [
        (0, "a", "parent"), (0, "a", "change"),
        (0, "b", "parent"), (0, "b", "change"),
        (1, "a", "change"), (1, "a", "parent"),
        (1, "b", "change"), (1, "b", "parent"),
    ]
    runs = schedule(["a", "b", "c"], 10)
    for workload in "abc":
        for side in ("parent", "change"):
            assert sum(
                (w, s) == (workload, side) for _, w, s in runs
            ) == 10
