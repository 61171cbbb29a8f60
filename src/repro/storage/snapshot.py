"""Snapshot persistence: JSONL save/load for tables.

Format: line 1 is a header object ``{"table": name, "schema": {...}}``,
then one JSON array per live row in time order. Tombstones are not
persisted — a snapshot is a compacted view, which matches the paper's
stance that rotten data should not survive.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import SnapshotError
from repro.storage.schema import Schema
from repro.storage.table import Table

FORMAT_VERSION = 1


def save_table(table: Table, path: str | Path) -> int:
    """Write ``table``'s live rows to ``path``; returns rows written.

    The write is atomic: content goes to a temp file that is renamed
    into place, so a crash never leaves a half snapshot behind.
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    lines = [json.dumps(list(values)) for _, values in table.iter_rows()]
    header = {
        "format_version": FORMAT_VERSION,
        "table": table.name,
        "schema": table.schema.to_dict(),
        # row count up front: a file cut at a line boundary would
        # otherwise load silently as a shorter table
        "rows": len(lines),
    }
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(header) + "\n")
        for line in lines:
            fh.write(line + "\n")
    os.replace(tmp, path)
    return len(lines)


def load_table(path: str | Path) -> Table:
    """Rebuild a table from a snapshot written by :func:`save_table`."""
    path = Path(path)
    try:
        with open(path, encoding="utf-8") as fh:
            header_line = fh.readline()
            if not header_line.strip():
                raise SnapshotError(f"snapshot {path} is empty")
            try:
                header = json.loads(header_line)
            except json.JSONDecodeError as exc:
                raise SnapshotError(f"snapshot {path} has a corrupt header: {exc}") from exc
            if not isinstance(header, dict) or "schema" not in header:
                raise SnapshotError(f"snapshot {path} header is not a table header")
            version = header.get("format_version")
            if version != FORMAT_VERSION:
                raise SnapshotError(
                    f"snapshot {path} has format version {version!r}, expected {FORMAT_VERSION}"
                )
            schema = Schema.from_dict(header["schema"])
            table = Table(schema, name=str(header.get("table", "R")))
            rows = []
            for lineno, line in enumerate(fh, start=2):
                if not line.strip():
                    continue
                try:
                    values = json.loads(line)
                except json.JSONDecodeError as exc:
                    raise SnapshotError(f"snapshot {path}:{lineno} is corrupt: {exc}") from exc
                if not isinstance(values, list):
                    raise SnapshotError(f"snapshot {path}:{lineno} is not a row array")
                rows.append(values)
            table.append_many(rows)
            expected = header.get("rows")
            if expected is not None and len(table) != expected:
                raise SnapshotError(
                    f"snapshot {path} is truncated: header promises {expected} "
                    f"rows, found {len(table)}"
                )
            return table
    except OSError as exc:
        raise SnapshotError(f"cannot read snapshot {path}: {exc}") from exc
