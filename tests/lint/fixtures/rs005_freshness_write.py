"""Known-bad fixture: direct freshness writes outside core/table.py.

Raw storage writes skip the [0, 1] clamp and the decay events the
sanctioned mutators provide.
"""


def rot_faster(table, rid: int) -> None:
    table.storage.update(rid, "f", -3.0)  # flagged: raw write, bad domain
    table.storage.update(rid, table.freshness_column, 0.5)  # flagged
    table.storage.update(rid, "v", 7)  # fine: not the freshness column
    table.storage.write_rows("f", [rid], [2.0])  # flagged: raw write, bad domain
    table.storage.write_rows(table.freshness_column, [rid], [0.5])  # flagged
    table.storage.write_rows("t", [rid], [0.5])  # fine: not the freshness column


def rot_in_place(table, rid: int) -> None:
    table.storage.freshness_array()[rid] = -1.0  # flagged: store into the view
    table.storage.freshness_array()[rid] -= 0.5  # flagged: augmented store
    table.storage.column_array("f")[[rid]] = 0.0  # flagged
    table.storage.column_array("t")[rid] = 0.0  # fine: not the freshness column
    return table.storage.freshness_array()[rid]  # fine: a read
