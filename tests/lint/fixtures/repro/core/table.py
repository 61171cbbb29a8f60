"""Known-good fixture: the batch write shape RS007 asks for.

Same scope as ``checkpoint.py`` beside it (``repro/core/table.py``), no
finding: the batch is coerced by column, each column is extended once,
every observer gets one call and one event announces the whole range.
"""


def insert_many(self, rows, TupleInsertedBatch):
    columns = self.attributes.coerce_columns(rows)
    count = len(columns[0])
    rids = self.storage.append_columns(
        [[self.clock.now] * count, [1.0] * count, *columns]
    )
    if rids:
        self.bus.publish(
            TupleInsertedBatch(self.name, self.clock.now, rids[0], rids[-1] + 1)
        )
    return rids


def append_columns(self, rids, columns):
    for col, values in zip(self._columns, columns):
        col.extend(values)
    for observer in self._observers:
        observer.on_append_many(rids, columns)
