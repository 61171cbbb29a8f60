"""Known-bad fixture: distillation that cooks dicts, one dying row at a time.

The path (``repro/core/distill.py``) puts this file inside RS007's
distill scope; both per-row calls in the loops below must be flagged.
``db.py`` beside it is the sanctioned columnar shape.
"""


def distill_rowset(summary, table, rows):
    for rid in rows:
        summary.add_row(table.row_dict(rid))  # flagged twice: add_row + row_dict
    return summary


def describe(table, rid):
    # a single row outside any loop is fine (one-off inspection)
    return table.row_dict(rid)
