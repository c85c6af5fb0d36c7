"""Tests for experiment table rendering."""

from __future__ import annotations

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.experiments.reporting import ExperimentTable


def test_render_alignment_and_content() -> None:
    table = ExperimentTable("Title", ["Property", "Value"], note="a note")
    table.add_row(["Visited URLs", 100_209])
    table.add_row(["Precision", 0.953])
    text = table.render()
    lines = text.splitlines()
    assert lines[0] == "Title"
    assert "a note" in lines[1]
    assert "Property" in lines[2]
    assert "100,209" in text
    assert "0.953" in text


def test_row_width_mismatch_rejected() -> None:
    table = ExperimentTable("T", ["a", "b"])
    with pytest.raises(ValueError):
        table.add_row([1])


def test_float_formatting_trims_zeros() -> None:
    table = ExperimentTable("T", ["x"])
    table.add_row([0.5])
    assert "0.5" in table.render()
    assert "0.500" not in table.render()


def test_empty_table_renders_headers() -> None:
    table = ExperimentTable("T", ["only", "headers"])
    text = table.render()
    assert "only" in text
    assert "headers" in text


@given(st.floats(allow_nan=False, allow_infinity=False))
def test_rendering_a_raw_float_equals_rendering_it_rounded(x: float) -> None:
    # rows hold raw values; render's three decimals do the rounding
    assert ExperimentTable._cell(x) == ExperimentTable._cell(round(x, 3))


def test_cell_and_column_read_raw_values() -> None:
    table = ExperimentTable("T", ["name", "precision", "found"])
    table.add_row(["svm", 0.94218, 309])
    table.add_row(["rocchio", 0.8837, 304])
    assert table.cell("svm", "precision") == 0.94218
    assert table.cell("rocchio", "found") == 304
    assert table.column("name") == ["svm", "rocchio"]


def test_cell_raises_key_error_on_unknown_row_or_header() -> None:
    table = ExperimentTable("T", ["name", "precision"])
    table.add_row(["svm", 0.9])
    with pytest.raises(KeyError):
        table.cell("maxent", "precision")
    with pytest.raises(KeyError):
        table.cell("svm", "recall")
    with pytest.raises(KeyError):
        table.column("recall")
