"""Known-good fixture: the columnar distill and one-batch consume
shapes RS007 asks for.

Same scope as ``distill.py`` beside it and ``per_row/repro/core/db.py``
(``repro/core/db.py``), no finding: liveness is checked once, each
column is gathered once, the summary takes the whole batch, and the
consume hook publishes one event for all of its rows.
"""


def distill_rowset(summary, storage, rows):
    storage.check_live_many(rows.rows)
    summary.add_columns(
        {name: storage.gather(name, rows.rows) for name in storage.schema.names}
    )
    return summary


def before_consume(self, table_name, consumed, TupleConsumedBatch):
    query_text = self.engine.current_sql or "consume"
    if consumed:
        self.bus.publish(
            TupleConsumedBatch(table_name, self.clock.now, consumed.rows, query_text)
        )
