"""Known-bad fixture: a consume hook that publishes one event per row.

The path ends in ``repro/core/db.py``, so RS007's consume scope
applies; the ``publish`` inside the loop must be flagged.
``../../../repro/core/db.py`` is the sanctioned one-batch shape.
"""


def before_consume(self, table_name, consumed, TupleConsumedBatch):
    query_text = self.engine.current_sql or "consume"
    for rid in consumed:
        self.bus.publish(
            TupleConsumedBatch(table_name, self.clock.now, (rid,), query=query_text)
        )
