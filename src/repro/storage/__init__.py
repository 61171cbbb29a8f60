"""In-memory columnar storage engine.

This package is the relational substrate the paper assumes: somewhere
to keep ``R(t, f, A1..An)`` with stable row identities, typed columns,
tombstone deletion (so decay can evict lazily), compaction, secondary
indexes, a catalog, and snapshot persistence.

Key objects
-----------
:class:`~repro.storage.schema.Schema` / :class:`~repro.storage.schema.ColumnDef`
    Typed table layout with coercion and validation.
:class:`~repro.storage.table.Table`
    Append-only row space with tombstones, live-row iteration,
    neighbour navigation (what EGI spreads along), and compaction.
:class:`~repro.storage.index.HashIndex` / :class:`~repro.storage.index.SortedIndex`
    Secondary indexes maintained through appends and deletes.
:class:`~repro.storage.catalog.Catalog`
    Named-table registry used by the query engine.
:mod:`~repro.storage.snapshot`
    JSONL save/load so a decaying database can be checkpointed.
"""

from repro.storage.schema import ColumnDef, DataType, Schema
from repro.storage.rowset import RowSet
from repro.storage.table import Table
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.catalog import Catalog
from repro.storage.snapshot import load_table, save_table
from repro.storage.stats import ColumnStats

__all__ = [
    "Catalog",
    "ColumnDef",
    "ColumnStats",
    "DataType",
    "HashIndex",
    "RowSet",
    "Schema",
    "SortedIndex",
    "Table",
    "load_table",
    "save_table",
]
