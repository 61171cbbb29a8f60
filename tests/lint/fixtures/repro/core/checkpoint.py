"""Known-bad fixture: rows written, and announced, one at a time.

The path (``repro/core/checkpoint.py``) puts this file inside RS007's
write-path scope; every per-row table write and per-tuple publish in
the loops below must be flagged. ``table.py`` beside it is the
sanctioned batch shape.
"""


def restore_rows(table, snapshot, names):
    for _, values in snapshot.iter_rows():
        table.restore(dict(zip(names, values)))  # flagged: restore


def insert_many(self, rows):
    return [self.insert(row) for row in rows]  # flagged: insert


def load(storage, lines, bus, TupleInserted):
    kept = []
    for values in lines:
        kept.append(values)  # a list, not a table: fine
        rid = storage.append(values)  # flagged: append
        bus.publish(TupleInserted("r", 0.0, rid))  # flagged: publish


def announce(bus, tables, RestoreCompleted):
    for name, restored in tables:
        # one event per *table* of a loop over tables is fine
        bus.publish(RestoreCompleted(name, 0.0, rows=restored))


def insert_one(table, row):
    # a single row outside any loop is the one-row batch
    return table.insert(row)
