"""Tests for repro.storage.rowset."""

import pytest

from repro.errors import StorageError
from repro.storage.rowset import RowSet


class TestConstruction:
    def test_sorted_and_deduplicated(self):
        assert RowSet([3, 1, 2, 1]).rows == (1, 2, 3)

    def test_empty(self):
        assert len(RowSet.empty()) == 0
        assert not RowSet.empty()

    def test_negative_rejected(self):
        with pytest.raises(StorageError, match="invalid row id"):
            RowSet([-1])

    def test_bool_rejected(self):
        with pytest.raises(StorageError, match="invalid row id"):
            RowSet([True])

    def test_span(self):
        assert RowSet.span(2, 5).rows == (2, 3, 4)

    def test_span_empty(self):
        assert len(RowSet.span(3, 3)) == 0

    def test_span_invalid(self):
        with pytest.raises(StorageError, match="invalid span"):
            RowSet.span(5, 2)


class TestAlgebra:
    def test_union(self):
        assert (RowSet([1, 2]) | RowSet([2, 3])).rows == (1, 2, 3)

    def test_intersection(self):
        assert (RowSet([1, 2, 3]) & RowSet([2, 3, 4])).rows == (2, 3)

    def test_difference(self):
        assert (RowSet([1, 2, 3]) - RowSet([2])).rows == (1, 3)

    def test_contains(self):
        rs = RowSet([1, 5])
        assert 5 in rs
        assert 2 not in rs

    def test_equality_and_hash(self):
        assert RowSet([2, 1]) == RowSet([1, 2])
        assert hash(RowSet([1, 2])) == hash(RowSet([2, 1]))

    def test_equality_with_other_type(self):
        assert RowSet([1]) != [1]


class TestSpans:
    def test_empty(self):
        assert RowSet().spans() == []

    def test_single_run(self):
        assert RowSet([1, 2, 3]).spans() == [(1, 4)]

    def test_multiple_runs(self):
        assert RowSet([0, 1, 5, 6, 7, 9]).spans() == [(0, 2), (5, 8), (9, 10)]

    def test_singletons(self):
        assert RowSet([2, 4, 6]).spans() == [(2, 3), (4, 5), (6, 7)]


class TestRepr:
    def test_small(self):
        assert repr(RowSet([1, 2])) == "RowSet([1, 2])"

    def test_large_is_truncated(self):
        text = repr(RowSet(range(100)))
        assert "100 rows" in text
