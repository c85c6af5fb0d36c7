"""Span bookkeeping and the wrapper installer."""

from __future__ import annotations

import importlib

import pytest

from benchmarks.e2e.trace import TARGETS, Target, Tracer, totals


def span(name, start, end, parent=-1, label="r"):
    return [name, float(start), float(end), parent, label]


class TestSelfTime:
    def test_nested_spans_subtract_only_direct_children(self) -> None:
        spans = [
            span("outer", 0, 10),
            span("middle", 1, 7, parent=0),
            span("inner", 2, 5, parent=1),
        ]
        result = totals(spans, "r")
        assert result.self_s == {"outer": 4.0, "middle": 3.0, "inner": 3.0}
        assert result.inclusive_s["outer"] == 10.0
        assert result.untraced_s == 0.0

    def test_sibling_spans_share_a_name(self) -> None:
        spans = [
            span("outer", 0, 10),
            span("leaf", 1, 3, parent=0),
            span("leaf", 4, 8, parent=0),
        ]
        result = totals(spans, "r")
        assert result.self_s == {"outer": 4.0, "leaf": 6.0}
        assert result.calls == {"outer": 1, "leaf": 2}

    def test_self_times_and_untraced_sum_to_the_window(self) -> None:
        spans = [
            span("a", 1, 4),
            span("b", 2, 3, parent=0),
            span("a", 6, 9),
            span("outside", 11, 12),
            span("other-label", 1, 2, label="setup"),
        ]
        result = totals(spans, "r", window=(0.0, 10.0))
        assert "outside" not in result.self_s
        assert "other-label" not in result.self_s
        assert result.untraced_s == pytest.approx(4.0)
        assert sum(result.self_s.values()) + result.untraced_s == (
            pytest.approx(10.0)
        )


class TestWrappers:
    def test_wrapper_records_nesting_and_observes(self) -> None:
        tracer = Tracer()
        tracer.label = "r"
        inner = tracer.wrap(lambda value: value + 1, "inner")
        outer = tracer.wrap(
            lambda value: inner(value) * 2, "outer",
            observe=lambda counts, args, result: counts.update(seen=result),
        )
        assert outer(1) == 4
        assert [s[0] for s in tracer.spans] == ["outer", "inner"]
        assert tracer.spans[1][3] == 0
        assert tracer.spans[0][1] <= tracer.spans[1][1]
        assert tracer.spans[1][2] <= tracer.spans[0][2]
        assert tracer.counts["seen"] == 4

    def test_span_closes_when_the_callable_raises(self) -> None:
        tracer = Tracer()

        def boom() -> None:
            raise ValueError("boom")

        with pytest.raises(ValueError):
            tracer.wrap(boom, "boom")()
        assert tracer.spans[0][2] >= tracer.spans[0][1] > 0
        tracer.wrap(lambda: None, "next")()
        assert tracer.spans[1][3] == -1

    def test_install_uninstall_leaves_owners_identical(self) -> None:
        owners = {target.owner: target.resolve() for target in TARGETS}
        before = {name: dict(vars(owner)) for name, owner in owners.items()}
        tracer = Tracer()
        tracer.install()
        try:
            for target in TARGETS:
                assert (
                    vars(owners[target.owner])[target.attr]
                    is not before[target.owner][target.attr]
                )
        finally:
            tracer.uninstall()
        for name, owner in owners.items():
            after = dict(vars(owner))
            assert after.keys() == before[name].keys()
            assert all(after[key] is before[name][key] for key in after)

    def test_classmethods_stay_classmethods(self) -> None:
        index = importlib.import_module("repro.search.index")
        tracer = Tracer()
        tracer.install((
            Target("repro.search.index:InvertedIndex", "build", "build"),
        ))
        try:
            assert isinstance(
                vars(index.InvertedIndex)["build"], classmethod
            )
        finally:
            tracer.uninstall()

    def test_every_target_resolves_to_a_callable(self) -> None:
        for target in TARGETS:
            attribute = vars(target.resolve())[target.attr]
            function = getattr(attribute, "__func__", attribute)
            assert callable(function), target
