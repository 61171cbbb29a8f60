"""Table schemas: column definitions, data types, coercion.

A :class:`Schema` is an ordered list of :class:`ColumnDef`. The decay
core builds schemas of the form ``R(t, f, A1..An)`` on top of this; the
storage layer itself is decay-agnostic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterable, Iterator, Mapping, Sequence

from repro.errors import SchemaError


class DataType(enum.Enum):
    """Supported column data types.

    ``TIMESTAMP`` is stored as a float (seconds on whatever clock the
    caller uses — the decay core uses a logical clock, so timestamps
    are tick counts there). ``INT`` and ``FLOAT`` are distinct so that
    freshness (always float) and counters (always int) round-trip
    through snapshots without loss.
    """

    INT = "int"
    FLOAT = "float"
    STR = "str"
    BOOL = "bool"
    TIMESTAMP = "timestamp"

    @property
    def python_type(self) -> type:
        """The Python type used to store values of this data type."""
        return _PYTHON_TYPES[self]

    def coerce(self, value: Any) -> Any:
        """Coerce ``value`` to this type, raising SchemaError on failure.

        Coercion is deliberately narrow: ints widen to floats, bools do
        NOT silently become ints (a bool in an INT column is almost
        always a bug in workload generation), and strings are never
        parsed into numbers.
        """
        if value is None:
            return None
        if self is DataType.INT:
            if isinstance(value, bool) or not isinstance(value, int):
                raise SchemaError(f"expected int, got {value!r} ({type(value).__name__})")
            return value
        if self in (DataType.FLOAT, DataType.TIMESTAMP):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise SchemaError(f"expected float, got {value!r} ({type(value).__name__})")
            return float(value)
        if self is DataType.STR:
            if not isinstance(value, str):
                raise SchemaError(f"expected str, got {value!r} ({type(value).__name__})")
            return value
        if self is DataType.BOOL:
            if not isinstance(value, bool):
                raise SchemaError(f"expected bool, got {value!r} ({type(value).__name__})")
            return value
        raise SchemaError(f"unknown data type {self!r}")  # pragma: no cover

    @classmethod
    def from_name(cls, name: str) -> "DataType":
        """Look up a data type by its snapshot name (e.g. ``"int"``)."""
        try:
            return cls(name)
        except ValueError:
            raise SchemaError(f"unknown data type name {name!r}") from None


_PYTHON_TYPES = {
    DataType.INT: int,
    DataType.FLOAT: float,
    DataType.STR: str,
    DataType.BOOL: bool,
    DataType.TIMESTAMP: float,
}


@dataclass(frozen=True)
class ColumnDef:
    """Definition of one column: name, type, nullability.

    Column names must be valid identifiers so the query language can
    reference them without quoting.
    """

    name: str
    dtype: DataType
    nullable: bool = False

    def __post_init__(self) -> None:
        if not self.name.isidentifier():
            raise SchemaError(f"column name {self.name!r} is not a valid identifier")

    def coerce(self, value: Any) -> Any:
        """Validate/coerce one value for this column."""
        if value is None:
            if not self.nullable:
                raise SchemaError(f"column {self.name!r} is not nullable")
            return None
        return self.dtype.coerce(value)

    def to_dict(self) -> dict:
        """Snapshot representation."""
        return {"name": self.name, "dtype": self.dtype.value, "nullable": self.nullable}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ColumnDef":
        """Rebuild from :meth:`to_dict` output."""
        return cls(
            name=str(data["name"]),
            dtype=DataType.from_name(str(data["dtype"])),
            nullable=bool(data.get("nullable", False)),
        )


@dataclass(frozen=True)
class Schema:
    """An ordered, duplicate-free list of column definitions."""

    columns: tuple[ColumnDef, ...]
    _by_name: Mapping[str, int] = field(init=False, repr=False, compare=False)

    def __init__(self, columns: Iterable[ColumnDef]) -> None:
        cols = tuple(columns)
        if not cols:
            raise SchemaError("a schema needs at least one column")
        by_name: dict[str, int] = {}
        for i, col in enumerate(cols):
            if col.name in by_name:
                raise SchemaError(f"duplicate column name {col.name!r}")
            by_name[col.name] = i
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "_by_name", by_name)

    def __len__(self) -> int:
        return len(self.columns)

    def __iter__(self) -> Iterator[ColumnDef]:
        return iter(self.columns)

    def __contains__(self, name: object) -> bool:
        return name in self._by_name

    @property
    def names(self) -> tuple[str, ...]:
        """Column names in schema order."""
        return tuple(col.name for col in self.columns)

    def column(self, name: str) -> ColumnDef:
        """Return the definition of column ``name``."""
        try:
            return self.columns[self._by_name[name]]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}; have {list(self.names)}") from None

    def index_of(self, name: str) -> int:
        """Return the positional index of column ``name``."""
        try:
            return self._by_name[name]
        except KeyError:
            raise SchemaError(f"unknown column {name!r}; have {list(self.names)}") from None

    def coerce_row(self, row: Mapping[str, Any] | Sequence[Any]) -> tuple:
        """Coerce a row (mapping or positional sequence) to a tuple.

        Mappings must mention every non-nullable column; missing
        nullable columns default to ``None``. Positional rows must have
        exactly one value per column.
        """
        if isinstance(row, Mapping):
            extra = set(row) - set(self._by_name)
            if extra:
                raise SchemaError(f"unknown columns in row: {sorted(extra)}")
            return tuple(col.coerce(row.get(col.name)) for col in self.columns)
        values = tuple(row)
        if len(values) != len(self.columns):
            raise SchemaError(
                f"row has {len(values)} values, schema has {len(self.columns)} columns"
            )
        return tuple(col.coerce(v) for col, v in zip(self.columns, values))

    def coerce_columns(
        self, rows: Iterable[Mapping[str, Any] | Sequence[Any]]
    ) -> list[list[Any]]:
        """Coerce a batch of rows into one value list per column.

        Answers exactly what a :meth:`coerce_row` loop answers, checked
        by column instead of by cell: a column whose values all have
        the dtype's exact Python type (``bool`` is not ``int``, and an
        ``int`` is not yet a ``float``) is taken as is; a column that
        fails that check goes through :meth:`ColumnDef.coerce` per cell
        (int -> float widening, NULLs). Anything else — a row that is
        not a plain ``dict`` holding exactly the schema's keys, or any
        cell that refuses to coerce — is handed to the row loop, which
        raises for the *first bad row* with its usual message. Either
        way nothing is returned unless every row is good, which is what
        makes a batch write all-or-nothing.
        """
        if not isinstance(rows, (list, tuple)):
            rows = list(rows)
        columns = self._coerce_dict_rows(rows)
        if columns is None:
            coerced = [self.coerce_row(row) for row in rows]
            columns = [list(values) for values in zip(*coerced)]
        # an empty batch transposes to nothing: keep one list per column
        return columns or [[] for _ in self.columns]

    def _coerce_dict_rows(self, rows: Sequence[Any]) -> list[list[Any]] | None:
        """The column-wise check; ``None`` sends the batch to the row loop."""
        if set(map(type, rows)) != {dict} or set(map(len, rows)) != {len(self.columns)}:
            return None
        columns = []
        try:
            for col in self.columns:
                # a dict with the right number of keys that answers every
                # column name has no room left for an unknown one
                values = list(map(itemgetter(col.name), rows))
                if not set(map(type, values)) <= {col.dtype.python_type}:
                    values = list(map(col.coerce, values))
                columns.append(values)
        except (KeyError, SchemaError, OverflowError):
            return None
        return columns

    def extend(self, *extra: ColumnDef) -> "Schema":
        """A new schema with ``extra`` columns appended."""
        return Schema(self.columns + extra)

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema with only ``names``, in the given order."""
        return Schema(tuple(self.column(n) for n in names))

    def to_dict(self) -> dict:
        """Snapshot representation."""
        return {"columns": [col.to_dict() for col in self.columns]}

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "Schema":
        """Rebuild from :meth:`to_dict` output."""
        return cls(ColumnDef.from_dict(c) for c in data["columns"])

    @classmethod
    def of(cls, **named_types: DataType | str) -> "Schema":
        """Convenience constructor: ``Schema.of(x=DataType.INT, s="str")``.

        A trailing ``_n`` suffix of ``?`` is not supported; use
        :class:`ColumnDef` directly for nullable columns.
        """
        cols = []
        for name, dtype in named_types.items():
            if isinstance(dtype, str):
                dtype = DataType.from_name(dtype)
            cols.append(ColumnDef(name, dtype))
        return cls(cols)
