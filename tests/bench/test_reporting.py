"""Tests for the experiment reports' tables and series."""

from repro.experiments.common import ExperimentResult
from repro.experiments.report import ascii_table, format_series, render_result, sparkline


class TestAsciiTable:
    def test_contains_headers_and_rows(self):
        text = ascii_table(("a", "b"), [(1, 2)])
        assert "a" in text and "1" in text


class TestFormatSeries:
    def test_columns_aligned(self):
        text = format_series("t", [0, 1], {"x": [10, 20], "y": [30, 40]})
        assert "t" in text and "x" in text and "40" in text

    def test_short_series_padded(self):
        text = format_series("t", [0, 1, 2], {"x": [10]})
        assert text.count("\n") == 4  # header + separator + 3 rows


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == "(empty)"

    def test_length_capped(self):
        assert len(sparkline(list(range(1000)), width=40)) <= 40

    def test_flat_series(self):
        assert sparkline([5.0, 5.0, 5.0])  # no crash on zero span


class TestRenderResult:
    def test_full_render(self):
        result = ExperimentResult(
            experiment_id="X1",
            title="demo",
            claim="things decay",
            scale="smoke",
            headers=("a",),
            rows=[(1,)],
        )
        result.add_series("s", "t", [0], {"x": [1]})
        result.notes.append("a note")
        text = render_result(result)
        assert "X1: demo" in text
        assert "things decay" in text
        assert "-- s --" in text
        assert "note: a note" in text
