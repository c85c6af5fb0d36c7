"""The A/A comparison rules."""

from __future__ import annotations

from benchmarks.e2e.aa import compare, count_mismatches

SPEC = {
    "workloads": [{"name": "w"}],
    "end_to_end": [
        {"name": "ops_per_s", "unit": "1/s", "better": "higher",
         "bound": 0.1},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.1},
    ],
    "per_layer": [
        {"name": "x.busy_s", "unit": "s"},
        {"name": "x.calls", "unit": "count"},
        {"name": "trace.overhead_ratio", "unit": "ratio"},
    ],
}


def sets(ops_a, ops_b, setup_a=(1.0, 1.0, 1.0), setup_b=(1.0, 1.0, 1.0)):
    return [
        {"w": {"ops_per_s": list(ops_a), "setup_s": list(setup_a)}},
        {"w": {"ops_per_s": list(ops_b), "setup_s": list(setup_b)}},
    ]


def test_worse_direction_follows_better() -> None:
    rows = compare(SPEC, sets((100, 100, 100), (80, 80, 80)))
    ops = rows[0]
    assert ops["worse_by"] == 0.2 and not ops["ok"]
    rows = compare(SPEC, sets((100, 100, 100), (120, 120, 120)))
    assert rows[0]["worse_by"] == -0.2 and rows[0]["ok"]


def test_spread_gates_every_metric_but_setup() -> None:
    rows = compare(SPEC, sets(
        (100, 150, 200), (100, 150, 200),
        setup_a=(1.0, 1.5, 2.0), setup_b=(1.0, 1.5, 2.0),
    ))
    by_name = {row["metric"]: row for row in rows}
    assert not by_name["ops_per_s"]["ok"]
    assert by_name["setup_s"]["ok"]


def test_only_exact_values_must_repeat() -> None:
    first = {"w": {"x.busy_s": 1.0, "x.calls": 5.0,
                   "trace.overhead_ratio": 1.1}}
    second = {"w": {"x.busy_s": 1.3, "x.calls": 5.0,
                    "trace.overhead_ratio": 1.2}}
    assert count_mismatches(SPEC, [first, second]) == []
    second["w"]["x.calls"] = 6.0
    assert count_mismatches(SPEC, [first, second]) == [
        "w x.calls: 5.0 != 6.0"
    ]
