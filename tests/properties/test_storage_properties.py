"""Property-based tests of the storage engine invariants."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage import HashIndex, RowSet, Schema, SortedIndex, Table


@settings(max_examples=50, deadline=None)
@given(
    rows_a=st.sets(st.integers(min_value=0, max_value=100)),
    rows_b=st.sets(st.integers(min_value=0, max_value=100)),
)
def test_rowset_algebra_matches_set_semantics(rows_a, rows_b):
    """RowSet union/intersection/difference mirror Python sets."""
    a, b = RowSet(rows_a), RowSet(rows_b)
    assert set(a | b) == rows_a | rows_b
    assert set(a & b) == rows_a & rows_b
    assert set(a - b) == rows_a - rows_b


@settings(max_examples=50, deadline=None)
@given(rows=st.sets(st.integers(min_value=0, max_value=200)))
def test_rowset_spans_roundtrip(rows):
    """Decomposing into spans and expanding them loses nothing."""
    rs = RowSet(rows)
    expanded = set()
    for start, stop in rs.spans():
        assert start < stop
        expanded |= set(range(start, stop))
    assert expanded == rows


# ---------------------------------------------------------------------------
# a tiny mutation machine: interleave appends/deletes/compactions and check
# the table + both index kinds agree with a model dict afterwards
# ---------------------------------------------------------------------------

operations = st.lists(
    st.one_of(
        st.tuples(st.just("append"), st.integers(min_value=0, max_value=9)),
        st.tuples(st.just("delete"), st.integers(min_value=0, max_value=30)),
        st.tuples(st.just("compact"), st.just(0)),
    ),
    max_size=60,
)


@settings(max_examples=50, deadline=None)
@given(ops=operations)
def test_table_and_indexes_match_model(ops):
    """After any mutation sequence, table + indexes == model."""
    schema = Schema.of(t="timestamp", v="int")
    table = Table(schema, "m")
    hash_index = HashIndex(table, "v")
    sorted_index = SortedIndex(table, "t")
    model: dict[int, tuple[float, int]] = {}  # rid -> (t, v)
    next_t = 0.0

    for op, arg in ops:
        if op == "append":
            rid = table.append((next_t, arg))
            model[rid] = (next_t, arg)
            next_t += 1.0
        elif op == "delete":
            live = sorted(model)
            if live:
                victim = live[arg % len(live)]
                table.delete(victim)
                del model[victim]
        else:
            remap = table.compact()
            if remap:
                model = {remap[rid]: value for rid, value in model.items()}

    assert len(table) == len(model)
    assert set(table.live_rows()) == set(model)
    # hash index agrees for every value
    for v in range(10):
        expected = {rid for rid, (_, value) in model.items() if value == v}
        assert set(hash_index.lookup(v)) == expected
    # sorted index returns everything in t order
    expected_order = [rid for rid, _ in sorted(model.items(), key=lambda kv: kv[1][0])]
    assert sorted_index.ascending() == expected_order
    # neighbour navigation agrees with rid order
    live_sorted = sorted(model)
    for i, rid in enumerate(live_sorted):
        prev_rid = live_sorted[i - 1] if i > 0 else None
        next_rid = live_sorted[i + 1] if i + 1 < len(live_sorted) else None
        assert (table.prev_live(rid), table.next_live(rid)) == (prev_rid, next_rid)


@settings(max_examples=30, deadline=None)
@given(
    values=st.lists(st.integers(min_value=-100, max_value=100), max_size=50),
    low=st.integers(min_value=-110, max_value=110),
    high=st.integers(min_value=-110, max_value=110),
)
def test_sorted_index_range_matches_filter(values, low, high):
    """Index range scan == brute-force filter, any bounds."""
    schema = Schema.of(t="float", v="int")
    table = Table(schema, "m")
    index = SortedIndex(table, "t")
    for i, v in enumerate(values):
        table.append((float(v), i))
    expected = {
        rid
        for rid, (t, _) in ((rid, table.row(rid)) for rid in table.live_rows())
        if low <= t <= high
    }
    assert set(index.range(float(low), float(high))) == expected
