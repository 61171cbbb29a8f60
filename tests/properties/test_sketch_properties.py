"""Property-based tests of the sketch guarantees."""

import contextlib
import json
import math
from collections import Counter
from unittest import mock

import numpy
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.sketch import (
    BloomFilter,
    ColumnSummary,
    CountMinSketch,
    HyperLogLog,
    ReservoirSample,
    RunningMoments,
    StreamingHistogram,
    serde,
)
from repro.sketch import summary as summary_module
from repro.sketch.countmin import (
    _MERSENNE_PRIME,
    _mod_mersenne,
    _mulmod_mersenne,
    _stable_hash,
    stable_hashes,
)
from repro.sketch.summary import SummaryConfig
from repro.storage.schema import DataType

small_values = st.lists(st.integers(min_value=0, max_value=100), max_size=300)


@settings(max_examples=50, deadline=None)
@given(values=small_values)
def test_countmin_never_underestimates(values):
    """Point queries are always >= the true frequency."""
    cm = CountMinSketch(width=32, depth=3)
    truth = Counter(values)
    for v in values:
        cm.add(v)
    for v, count in truth.items():
        assert cm.estimate(v) >= count


@settings(max_examples=50, deadline=None)
@given(values=small_values, split=st.integers(min_value=0, max_value=300))
def test_countmin_merge_equals_single_sketch(values, split):
    """merge(A, B) has exactly the counters of the combined stream."""
    split = min(split, len(values))
    whole = CountMinSketch(width=64, depth=3)
    a = CountMinSketch(width=64, depth=3)
    b = CountMinSketch(width=64, depth=3)
    for v in values:
        whole.add(v)
    for v in values[:split]:
        a.add(v)
    for v in values[split:]:
        b.add(v)
    merged = a.merge(b)
    assert merged._rows == whole._rows
    assert merged.total == whole.total


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.text(max_size=8), max_size=200))
def test_bloom_no_false_negatives(values):
    """Everything inserted is reported present."""
    bloom = BloomFilter(num_bits=2048, num_hashes=4)
    for v in values:
        bloom.add(v)
    for v in values:
        assert v in bloom


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(), max_size=200), split=st.integers(min_value=0, max_value=200))
def test_hll_merge_is_union(values, split):
    """Merging partitions gives the same registers as the union stream."""
    split = min(split, len(values))
    whole, a, b = HyperLogLog(8), HyperLogLog(8), HyperLogLog(8)
    for v in values:
        whole.add(v)
    for v in values[:split]:
        a.add(v)
    for v in values[split:]:
        b.add(v)
    assert a.merge(b)._registers == whole._registers


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=200
    )
)
# endpoints hundreds of orders of magnitude apart: the naive lerp in
# quantile() cancelled to 0.0, outside [min, max]
@example(values=[-1.0] * 5 + [-1.175494351e-38, -1.9882777518517638e-178])
def test_histogram_total_and_bounds(values):
    """Total is exact; quantiles stay inside [min, max]; budget holds."""
    hist = StreamingHistogram(max_bins=16)
    hist.add_all(values)
    assert hist.total == len(values)
    assert len(hist) <= 16
    if values:
        for q in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert min(values) <= hist.quantile(q) <= max(values)


@settings(max_examples=50, deadline=None)
@given(
    values=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=2,
        max_size=200,
    ),
    split=st.integers(min_value=1, max_value=199),
)
def test_moments_merge_matches_single_pass(values, split):
    """Chan merge == one-pass Welford, for any split point."""
    split = min(split, len(values) - 1)
    whole, a, b = RunningMoments(), RunningMoments(), RunningMoments()
    whole.add_all(values)
    a.add_all(values[:split])
    b.add_all(values[split:])
    merged = a.merge(b)
    assert merged.count == whole.count
    assert abs(merged.mean - whole.mean) <= max(abs(whole.mean) * 1e-9, 1e-6)
    if whole.variance is not None and whole.variance > 1e-9:
        assert abs(merged.variance - whole.variance) <= whole.variance * 1e-6 + 1e-6


@settings(max_examples=50, deadline=None)
@given(
    n=st.integers(min_value=0, max_value=500),
    capacity=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_reservoir_size_and_membership(n, capacity, seed):
    """|sample| = min(k, n) and every member came from the stream."""
    rs = ReservoirSample(capacity, seed=seed)
    rs.add_all(range(n))
    assert len(rs) == min(capacity, n)
    assert rs.seen == n
    assert all(0 <= v < n for v in rs)


# ----------------------------------------------------------------------
# the batch contract: add_all(values) == a loop of add(value), bit for bit
# ----------------------------------------------------------------------

_P = _MERSENNE_PRIME

hashables = st.one_of(
    st.integers(),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(),
    st.booleans(),
)
numbers = st.one_of(
    st.integers(min_value=-(10**18), max_value=10**18),
    st.floats(allow_nan=False, allow_infinity=False),
)
chunk_sizes = st.lists(st.integers(min_value=0, max_value=80), max_size=8)


def _chunks(values, sizes):
    """``values`` cut into consecutive chunks of ``sizes`` (+ the rest)."""
    start = 0
    for size in sizes:
        yield values[start : start + size]
        start += size
    yield values[start:]


def _frozen(encoded) -> str:
    # JSON text rather than dict ==: byte-equal, and NaN compares equal
    return json.dumps(encoded, sort_keys=True)


_SKETCHES = {
    "countmin": (lambda: CountMinSketch(width=61, depth=3, seed=2**40 + 1), hashables, serde.countmin_to_dict),
    "hll": (lambda: HyperLogLog(4), hashables, serde.hll_to_dict),
    "bloom": (lambda: BloomFilter(num_bits=1001, num_hashes=3), hashables, serde.bloom_to_dict),
    "histogram": (lambda: StreamingHistogram(max_bins=8), numbers, serde.histogram_to_dict),
    "moments": (lambda: RunningMoments(), numbers, serde.moments_to_dict),
    "reservoir": (lambda: ReservoirSample(5, seed=11), hashables, serde.reservoir_to_dict),
}


@pytest.mark.parametrize("kind", sorted(_SKETCHES))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), sizes=chunk_sizes)
def test_add_all_equals_add_loop(kind, data, sizes):
    """Any split into add_all chunks leaves the state the add loop leaves."""
    make, elements, encode = _SKETCHES[kind]
    values = data.draw(st.lists(elements, max_size=150))
    looped, batched = make(), make()
    for value in values:
        looped.add(value)
    for chunk in _chunks(values, sizes):
        batched.add_all(chunk)
    assert _frozen(encode(batched)) == _frozen(encode(looped))
    if kind == "reservoir":  # serde does not carry the RNG position
        assert batched._rng.getstate() == looped._rng.getstate()


_COLUMN_VALUES = {
    DataType.INT: st.integers(min_value=-(10**18), max_value=10**18),
    DataType.FLOAT: st.floats(allow_nan=False, allow_infinity=False),
    DataType.STR: st.text(max_size=12),
    DataType.BOOL: st.booleans(),
    DataType.TIMESTAMP: st.floats(min_value=0.0, max_value=1e9),
}


@pytest.mark.parametrize("cutover", [0, None], ids=["always-vector", "default"])
@pytest.mark.parametrize("dtype", list(_COLUMN_VALUES), ids=lambda d: d.value)
@settings(max_examples=25, deadline=None)
@given(data=st.data(), sizes=chunk_sizes)
def test_column_summary_add_all_equals_add_loop(dtype, cutover, data, sizes):
    """The same contract one level up, NULLs included, on both routes."""
    # at the default cut-over only long lists reach the vector route at all
    values = data.draw(
        st.lists(
            st.none() | _COLUMN_VALUES[dtype],
            min_size=0 if cutover == 0 else 64,
            max_size=150,
        )
    )
    looped = ColumnSummary("c", dtype, SummaryConfig())
    batched = ColumnSummary("c", dtype, SummaryConfig())
    for value in values:
        looped.add(value)
    route = (
        contextlib.nullcontext()
        if cutover is None
        else mock.patch.object(summary_module, "_SMALL_BATCH", cutover)
    )
    with route:
        for chunk in _chunks(values, sizes):
            batched.add_all(chunk)
    assert _frozen(serde.column_summary_to_dict(batched)) == _frozen(
        serde.column_summary_to_dict(looped)
    )
    assert batched.examples._rng.getstate() == looped.examples._rng.getstate()


@settings(max_examples=100, deadline=None)
@given(values=st.lists(hashables, max_size=60))
@example(values=["x" * 63, "y" * 64, "é" * 40, "", "z" * 500, 0.5])  # past the padded width
def test_stable_hashes_match_scalar_hash(values):
    """One vectorized hash per cell, equal to the scalar hash of each."""
    assert stable_hashes(values).tolist() == [_stable_hash(v) for v in values]


@settings(max_examples=100, deadline=None)
@given(
    a=st.integers(min_value=1, max_value=_P - 1),
    b=st.integers(min_value=0, max_value=_P - 1),
    xs=st.lists(st.integers(min_value=0, max_value=2**64 - 1), max_size=20),
)
def test_countmin_mulmod_matches_bigint(a, b, xs):
    """The 31-bit-limb mulmod equals Python's arbitrary-precision result."""
    xs = xs + [0, _P - 1, _P, 2**64 - 1]
    reduced = _mod_mersenne(numpy.array(xs, dtype=numpy.uint64))
    assert reduced.tolist() == [x % _P for x in xs]
    assert _mulmod_mersenne(a, reduced, b).tolist() == [(a * x + b) % _P for x in xs]


any_floats = st.floats(min_value=-1e6, max_value=1e6) | st.sampled_from(
    [float("nan"), float("inf"), float("-inf")]
)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(any_floats, max_size=200), sizes=chunk_sizes)
# 65+ NaNs used to exhaust _merge_closest: every gap next to a NaN is NaN
@example(values=[float("nan")] * 70 + [1.0, 2.0], sizes=[])
@example(values=[float("inf"), float("-inf")] * 40, sizes=[3])
def test_histogram_keeps_non_finite_values_off_the_axis(values, sizes):
    """NaN/±inf are counted apart; the bins describe the finite values only."""
    finite = [v for v in values if math.isfinite(v)]
    hist, only_finite, batched = (StreamingHistogram(max_bins=8) for _ in range(3))
    for value in values:
        hist.add(value)
    only_finite.add_all(finite)
    for chunk in _chunks(values, sizes):
        batched.add_all(chunk)
    assert (hist.total, hist.non_finite) == (len(finite), len(values) - len(finite))
    assert _frozen(serde.histogram_to_dict(batched)) == _frozen(serde.histogram_to_dict(hist))
    assert hist.bins() == only_finite.bins()
    assert (hist.min_value, hist.max_value) == (only_finite.min_value, only_finite.max_value)
    if finite:
        assert min(finite) <= hist.quantile(0.5) <= max(finite)
    merged = hist.merge(batched)
    assert (merged.total, merged.non_finite) == (2 * hist.total, 2 * hist.non_finite)
    restored = serde.histogram_from_dict(serde.histogram_to_dict(hist))
    assert restored.non_finite == hist.non_finite
