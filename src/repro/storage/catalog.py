"""Catalog: the named-table registry the query engine resolves against.

A catalog also remembers which secondary indexes exist per table, so
the planner can route equality/range predicates through them.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import CatalogError
from repro.storage.index import HashIndex, SortedIndex
from repro.storage.schema import Schema
from repro.storage.table import Table


class Catalog:
    """A registry of tables and their secondary indexes."""

    def __init__(self) -> None:
        self._tables: dict[str, Table] = {}
        self._hash_indexes: dict[tuple[str, str], HashIndex] = {}
        self._sorted_indexes: dict[tuple[str, str], SortedIndex] = {}

    def __contains__(self, name: object) -> bool:
        return name in self._tables

    def __iter__(self) -> Iterator[str]:
        return iter(sorted(self._tables))

    def __len__(self) -> int:
        return len(self._tables)

    def create_table(self, name: str, schema: Schema) -> Table:
        """Create and register an empty table called ``name``."""
        if name in self._tables:
            raise CatalogError(f"table {name!r} already exists")
        table = Table(schema, name=name)
        self._tables[name] = table
        return table

    def register(self, table: Table) -> Table:
        """Register an existing table under its own name."""
        if table.name in self._tables:
            raise CatalogError(f"table {table.name!r} already exists")
        self._tables[table.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise CatalogError(f"unknown table {name!r}; have {sorted(self._tables)}") from None

    def drop_table(self, name: str) -> None:
        """Remove a table and all its indexes from the catalog."""
        if name not in self._tables:
            raise CatalogError(f"unknown table {name!r}")
        del self._tables[name]
        self._hash_indexes = {k: v for k, v in self._hash_indexes.items() if k[0] != name}
        self._sorted_indexes = {k: v for k, v in self._sorted_indexes.items() if k[0] != name}

    def create_hash_index(self, table_name: str, column: str) -> HashIndex:
        """Build (or return the existing) equality index on a column."""
        key = (table_name, column)
        if key not in self._hash_indexes:
            self._hash_indexes[key] = HashIndex(self.table(table_name), column)
        return self._hash_indexes[key]

    def create_sorted_index(self, table_name: str, column: str) -> SortedIndex:
        """Build (or return the existing) range index on a column."""
        key = (table_name, column)
        if key not in self._sorted_indexes:
            self._sorted_indexes[key] = SortedIndex(self.table(table_name), column)
        return self._sorted_indexes[key]

    def hash_index(self, table_name: str, column: str) -> HashIndex | None:
        """The equality index on ``table.column``, if one exists."""
        return self._hash_indexes.get((table_name, column))

    def sorted_index(self, table_name: str, column: str) -> SortedIndex | None:
        """The range index on ``table.column``, if one exists."""
        return self._sorted_indexes.get((table_name, column))
