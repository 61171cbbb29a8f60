"""Snapshot persistence: JSONL save/load for tables.

Format: line 1 is a header object ``{"table": name, "schema": {...}}``,
then one JSON array per live row in time order. Tombstones are not
persisted — a snapshot is a compacted view, which matches the paper's
stance that rotten data should not survive.

Every file this package and the checkpoint layer write goes through
:func:`write_atomic`: the bytes reach the disk before the rename makes
them visible, so a crash leaves either the old file or the whole new
one — never a name pointing at unwritten data.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from repro.errors import SnapshotError
from repro.storage.schema import Schema
from repro.storage.table import Table

FORMAT_VERSION = 1


def write_atomic(path: str | Path, text: str) -> None:
    """Replace ``path`` with ``text``, durably.

    The text goes to a temp file that is flushed and fsynced before it
    is renamed over ``path``. The rename itself becomes durable once
    the directory is synced (:func:`sync_directory`).
    """
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


def sync_directory(directory: str | Path) -> None:
    """fsync ``directory`` so the renames inside it survive a crash."""
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def save_table(table: Table, path: str | Path) -> int:
    """Write ``table``'s live rows to ``path``; returns rows written.

    The write is atomic (:func:`write_atomic`), so a crash never leaves
    a half snapshot behind.
    """
    lines = [json.dumps(list(values)) for _, values in table.iter_rows()]
    header = {
        "format_version": FORMAT_VERSION,
        "table": table.name,
        "schema": table.schema.to_dict(),
        # row count up front: a file cut at a line boundary would
        # otherwise load silently as a shorter table
        "rows": len(lines),
    }
    write_atomic(path, "".join(f"{line}\n" for line in [json.dumps(header), *lines]))
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
