"""Checkpointing a whole FungusDB.

Persists everything that defines the *data* state of a decaying
database: the clock position and, for every table, its live rows with
their real insertion times and current freshness (so decay resumes
exactly where it stopped, rather than resetting every tuple to 1.0).

The summary store — everything the database only knows as summaries —
is persisted too (``summaries.json``, via :mod:`repro.sketch.serde`),
including a vault's per-entry freshness and compost, so the
"nothing dies unseen" conservation invariant survives a restart.

What is deliberately NOT persisted — and why: **fungus runtime state**
(EGI's infected set, Blue Cheese's spots). Row ids are not stable
across a snapshot (tombstones are dropped), and a fungus reseeds
within a cycle or two anyway. Callers pass the fungus (and policy
knobs) back in at load time.

Layout: ``<dir>/manifest.json`` + ``summaries.json`` + one
``<table>.jsonl`` snapshot (written by :mod:`repro.storage.snapshot`)
per table, plus ``forensics.json`` / ``querystats.json`` when those
layers are attached (each restored automatically on load).
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Mapping

from repro.core.db import FungusDB
from repro.core.events import RestoreCompleted
from repro.core.fungus import Fungus
from repro.errors import SnapshotError
from repro.obs.tracing import NULL_TRACER
from repro.storage.snapshot import load_table, save_table

MANIFEST_VERSION = 1
MANIFEST_NAME = "manifest.json"


def save_checkpoint(db: FungusDB, directory: str | Path) -> list[str]:
    """Write ``db``'s clock and every table under ``directory``.

    Returns the table names written. The manifest is written last, so
    a directory without a manifest is never mistaken for a checkpoint.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    tables = []
    pinned: dict[str, list[int]] = {}
    tracer = getattr(db, "tracer", NULL_TRACER)
    with tracer.span("checkpoint.save", path=str(directory)) as span:
        rows_saved = 0
        for name in sorted(db.tables):
            table = db.tables[name]
            save_table(table.storage, directory / f"{name}.jsonl")
            tables.append(name)
            rows_saved += len(table)
            # row ids are not stable across a snapshot (tombstones drop
            # out), but the live-row *order* is — record pins as
            # ordinals in it
            ordinals = [
                i for i, rid in enumerate(table.live_rows()) if table.is_pinned(rid)
            ]
            if ordinals:
                pinned[name] = ordinals
        span.set(tables=len(tables), rows=rows_saved)
        store_tmp = directory / "summaries.json.tmp"
        with open(store_tmp, "w", encoding="utf-8") as fh:
            json.dump(db.store.to_dict(), fh)
        os.replace(store_tmp, directory / "summaries.json")
        forensics = getattr(db, "forensics", None)
        if forensics is not None:
            # lineage survives the checkpoint: biographies in live-row
            # ordinal order (rids are renumbered on restore), death
            # records and alert rules/log verbatim
            forensics_tmp = directory / "forensics.json.tmp"
            with open(forensics_tmp, "w", encoding="utf-8") as fh:
                json.dump(forensics.to_dict(), fh)
            os.replace(forensics_tmp, directory / "forensics.json")
        querystats = getattr(db, "querystats", None)
        if querystats is not None:
            # the per-fingerprint aggregates survive like forensics:
            # written whole, atomically, before the manifest names them
            querystats_tmp = directory / "querystats.json.tmp"
            with open(querystats_tmp, "w", encoding="utf-8") as fh:
                json.dump(querystats.to_dict(), fh)
            os.replace(querystats_tmp, directory / "querystats.json")
        manifest = {
            "manifest_version": MANIFEST_VERSION,
            "clock": db.clock.now,
            "seed": db.seed,
            "tables": tables,
            "pinned": pinned,
            "store": True,
            "forensics": forensics is not None,
            "querystats": querystats is not None,
        }
        tmp = directory / (MANIFEST_NAME + ".tmp")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, indent=2)
        os.replace(tmp, directory / MANIFEST_NAME)
    return tables


def load_checkpoint(
    directory: str | Path,
    fungi: Mapping[str, Fungus | None] | None = None,
    table_options: Mapping[str, Mapping[str, Any]] | None = None,
    telemetry: bool = False,
    tracer: Any | None = None,
    forensics: bool | None = None,
) -> FungusDB:
    """Rebuild a FungusDB from :func:`save_checkpoint` output.

    ``fungi`` maps table name -> fungus to reinstall (missing tables
    get the NullFungus control); ``table_options`` forwards per-table
    keyword arguments to :meth:`FungusDB.create_table` (period,
    eviction mode, ...). ``telemetry=True`` attaches the obs layer to
    the rebuilt database *before* rows are replayed, so metrics start
    from a correct baseline. ``tracer`` wires an existing tracer onto
    the rebuilt database before the restore runs, so the
    ``checkpoint.restore`` span lands in the caller's trace (the sim
    driver's flight recorder survives restores this way).

    ``forensics=None`` (the default) re-attaches the forensics layer
    exactly when the checkpoint was saved with one — its lineage
    store, alert rules and alert log come back from
    ``forensics.json`` and the saved biographies are rebound to the
    replayed rows (a restore is not a birth: no death records, no
    insert attribution, no fid drift). ``True`` forces a (fresh)
    layer, ``False`` suppresses it.

    After each table's rows are replayed, a
    :class:`~repro.core.events.RestoreCompleted` event is published on
    the new bus: restore re-publishes the surviving rows as one
    ``TupleInsertedBatch`` (counted, and delivered to ``TupleInserted``
    subscribers, per row), and metrics consumers use the completion
    event to avoid double-counting those as fresh inserts.
    """
    directory = Path(directory)
    manifest_path = directory / MANIFEST_NAME
    try:
        with open(manifest_path, encoding="utf-8") as fh:
            manifest = json.load(fh)
    except OSError as exc:
        raise SnapshotError(f"cannot read checkpoint manifest {manifest_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise SnapshotError(f"corrupt checkpoint manifest {manifest_path}: {exc}") from exc
    version = manifest.get("manifest_version")
    if version != MANIFEST_VERSION:
        raise SnapshotError(
            f"checkpoint manifest version {version!r}, expected {MANIFEST_VERSION}"
        )

    fungi = dict(fungi or {})
    table_options = dict(table_options or {})

    store = None
    if manifest.get("store"):
        store_path = directory / "summaries.json"
        try:
            with open(store_path, encoding="utf-8") as fh:
                store_data = json.load(fh)
        except OSError as exc:
            raise SnapshotError(f"cannot read summary store {store_path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise SnapshotError(f"corrupt summary store {store_path}: {exc}") from exc
        kind = store_data.get("kind")
        if kind == "vault":
            from repro.core.vault import SummaryVault

            store = SummaryVault.from_dict(store_data)
        elif kind == "store":
            from repro.core.distill import SummaryStore

            store = SummaryStore.from_dict(store_data)
        else:
            raise SnapshotError(f"unknown summary store kind {kind!r} in {store_path}")

    db = FungusDB(seed=int(manifest.get("seed", 0)), store=store)
    db.clock._now = float(manifest["clock"])  # noqa: SLF001 — restoring state
    if telemetry:
        db.enable_telemetry()
    if tracer is not None:
        # the tracer property fans out to clock, engine and tables —
        # including tables created *after* this restore returns
        db.tracer = tracer

    want_forensics = (
        bool(manifest.get("forensics")) if forensics is None else forensics
    )
    if want_forensics:
        forensics_path = directory / "forensics.json"
        if manifest.get("forensics"):
            try:
                with open(forensics_path, encoding="utf-8") as fh:
                    forensics_data = json.load(fh)
            except OSError as exc:
                raise SnapshotError(
                    f"cannot read forensics state {forensics_path}: {exc}"
                ) from exc
            except json.JSONDecodeError as exc:
                raise SnapshotError(
                    f"corrupt forensics state {forensics_path}: {exc}"
                ) from exc
            from repro.obs.forensics import Forensics

            # attach BEFORE row replay: the collector sees the replayed
            # inserts and rebinds them to the saved biographies when each
            # table's RestoreCompleted arrives
            db.forensics = Forensics.from_saved(db, forensics_data)
        else:
            db.enable_forensics()

    if manifest.get("querystats"):
        querystats_path = directory / "querystats.json"
        try:
            with open(querystats_path, encoding="utf-8") as fh:
                querystats_data = json.load(fh)
        except OSError as exc:
            raise SnapshotError(
                f"cannot read query statistics {querystats_path}: {exc}"
            ) from exc
        except json.JSONDecodeError as exc:
            raise SnapshotError(
                f"corrupt query statistics {querystats_path}: {exc}"
            ) from exc
        # independent of row replay: fingerprints reference statement
        # shapes, not row ids, so order does not matter here
        db.enable_querystats()
        db.querystats.load_dict(querystats_data)

    with db.tracer.span("checkpoint.restore", path=str(directory)) as span:
        rows_restored = 0
        for name in manifest["tables"]:
            snapshot = load_table(directory / f"{name}.jsonl")
            schema = snapshot.schema
            names = schema.names
            if len(names) < 2:
                raise SnapshotError(f"table {name!r} snapshot lacks the t/f columns")
            time_column, freshness_column = names[0], names[1]
            from repro.storage.schema import Schema

            attributes = Schema(schema.columns[2:]) if len(names) > 2 else None
            if attributes is None:
                raise SnapshotError(f"table {name!r} has no attribute columns")
            table = db.create_table(
                name,
                attributes,
                fungus=fungi.get(name),
                time_column=time_column,
                freshness_column=freshness_column,
                **table_options.get(name, {}),
            )
            restored = len(table.restore_many(snapshot.to_rows()))
            rows_restored += restored
            ordinals = manifest.get("pinned", {}).get(name, [])
            if ordinals:
                rids = list(table.live_rows())
                for ordinal in ordinals:
                    if not (0 <= ordinal < len(rids)):
                        raise SnapshotError(
                            f"table {name!r} pins ordinal {ordinal} but has "
                            f"only {len(rids)} rows"
                        )
                    table.pin(rids[ordinal])
            db.bus.publish(RestoreCompleted(name, db.clock.now, rows=restored))
        span.set(tables=len(manifest["tables"]), rows=rows_restored)
    return db
