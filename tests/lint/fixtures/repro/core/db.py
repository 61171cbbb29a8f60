"""Known-good fixture: the columnar distill shape RS007 asks for.

Same scope as ``distill.py`` beside it (``repro/core/db.py``), no
finding: liveness is checked once, each column is gathered once, and
the summary takes the whole batch.
"""


def distill_rowset(summary, storage, rows):
    storage.check_live_many(rows.rows)
    summary.add_columns(
        {name: storage.gather(name, rows.rows) for name in storage.schema.names}
    )
    return summary
