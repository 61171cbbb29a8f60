"""Tests for the experiment reports' line charts."""

import pytest

from repro.errors import BenchError
from repro.experiments.report import line_chart


class TestValidation:
    def test_needs_series(self):
        with pytest.raises(BenchError):
            line_chart({})

    def test_minimum_size(self):
        with pytest.raises(BenchError):
            line_chart({"x": [1, 2]}, width=4)
        with pytest.raises(BenchError):
            line_chart({"x": [1, 2]}, height=2)

    def test_series_cap(self):
        too_many = {f"s{i}": [1, 2] for i in range(9)}
        with pytest.raises(BenchError):
            line_chart(too_many)


class TestRendering:
    def test_legend_names_series(self):
        text = line_chart({"alpha": [1, 2, 3], "beta": [3, 2, 1]})
        assert "*=alpha" in text and "o=beta" in text

    def test_y_labels_are_min_and_max(self):
        text = line_chart({"x": [5, 10, 20]})
        assert "20" in text and "5" in text

    def test_width_respected(self):
        text = line_chart({"x": list(range(200))}, width=30, height=5)
        body_lines = [l for l in text.splitlines() if "|" in l]
        assert all(len(l.split("|", 1)[1]) <= 30 for l in body_lines)

    def test_rising_series_rises(self):
        text = line_chart({"x": [0, 1, 2, 3]}, width=8, height=4)
        rows = [l.split("|", 1)[1] for l in text.splitlines() if "|" in l]
        first_col = [r[0] for r in rows]
        last_col = [r[-1] for r in rows]
        assert first_col.index("*") > last_col.index("*")  # ends higher

    def test_flat_series(self):
        text = line_chart({"x": [7.0, 7.0, 7.0]})
        assert "*" in text

    def test_single_point_series(self):
        assert "*" in line_chart({"x": [5.0]})

    def test_empty_series_renders_placeholder(self):
        assert line_chart({"x": []}) == "(no data)"

    def test_y_label_prefix(self):
        assert line_chart({"x": [1, 2]}, y_label="tuples").startswith("tuples:")

    def test_different_length_series_share_scale(self):
        text = line_chart({"short": [0, 100], "long": list(range(50))})
        assert "100" in text
