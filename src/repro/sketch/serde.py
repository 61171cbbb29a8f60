"""Serialization of sketches and summaries.

Turns every sketch, :class:`~repro.sketch.summary.TableSummary`,
:class:`~repro.core.distill.SummaryStore` and
:class:`~repro.core.vault.SummaryVault` into plain JSON-compatible
dicts and back, so checkpoints can persist *everything a decaying
database knows* — including the knowledge that only survives as
summaries.

The format stores registers/bitmaps as base64 and counter matrices as
plain lists; ``kind`` tags select the decoder. Round-tripping is
exact: a restored sketch answers every query identically (covered by
property tests).

This module lives beside the sketches and reaches into their private
fields deliberately — keeping the data classes free of persistence
concerns while the format stays in one reviewable place.
"""

from __future__ import annotations

import base64
from typing import Any

from repro.errors import SketchError
from repro.sketch.bloom import BloomFilter
from repro.sketch.countmin import CountMinSketch
from repro.sketch.histogram import StreamingHistogram
from repro.sketch.hyperloglog import HyperLogLog
from repro.sketch.moments import RunningMoments
from repro.sketch.reservoir import ReservoirSample
from repro.sketch.summary import ColumnSummary, SummaryConfig, TableSummary
from repro.storage.schema import DataType, Schema

SERDE_VERSION = 1


def _b64(data: bytes | bytearray) -> str:
    return base64.b64encode(bytes(data)).decode("ascii")


def _unb64(text: str) -> bytearray:
    return bytearray(base64.b64decode(text.encode("ascii")))


# ----------------------------------------------------------------------
# individual sketches
# ----------------------------------------------------------------------

def countmin_to_dict(cm: CountMinSketch) -> dict:
    """Encode a count-min sketch."""
    return {
        "kind": "countmin",
        "width": cm.width,
        "depth": cm.depth,
        "seed": cm.seed,
        "total": cm.total,
        "rows": [list(row) for row in cm._rows],
    }


def countmin_from_dict(data: dict) -> CountMinSketch:
    """Decode a count-min sketch."""
    cm = CountMinSketch(width=data["width"], depth=data["depth"], seed=data["seed"])
    cm.total = data["total"]
    cm._rows = [list(row) for row in data["rows"]]
    return cm


def hll_to_dict(hll: HyperLogLog) -> dict:
    """Encode a HyperLogLog."""
    return {
        "kind": "hll",
        "precision": hll.precision,
        "registers": _b64(hll._registers),
    }


def hll_from_dict(data: dict) -> HyperLogLog:
    """Decode a HyperLogLog."""
    hll = HyperLogLog(data["precision"])
    hll._registers = _unb64(data["registers"])
    return hll


def bloom_to_dict(bloom: BloomFilter) -> dict:
    """Encode a Bloom filter."""
    return {
        "kind": "bloom",
        "num_bits": bloom.num_bits,
        "num_hashes": bloom.num_hashes,
        "count": bloom.count,
        "bits": _b64(bloom._bits),
    }


def bloom_from_dict(data: dict) -> BloomFilter:
    """Decode a Bloom filter."""
    bloom = BloomFilter(num_bits=data["num_bits"], num_hashes=data["num_hashes"])
    bloom.count = data["count"]
    bloom._bits = _unb64(data["bits"])
    return bloom


def histogram_to_dict(hist: StreamingHistogram) -> dict:
    """Encode a streaming histogram."""
    return {
        "kind": "histogram",
        "max_bins": hist.max_bins,
        "total": hist.total,
        "non_finite": hist.non_finite,
        "min_value": hist.min_value,
        "max_value": hist.max_value,
        "bins": [[c, n] for c, n in hist._bins],
    }


def histogram_from_dict(data: dict) -> StreamingHistogram:
    """Decode a streaming histogram."""
    hist = StreamingHistogram(data["max_bins"])
    hist.total = data["total"]
    hist.non_finite = data.get("non_finite", 0)  # absent before the field existed
    hist.min_value = data["min_value"]
    hist.max_value = data["max_value"]
    hist._bins = [[c, n] for c, n in data["bins"]]
    return hist


def moments_to_dict(moments: RunningMoments) -> dict:
    """Encode running moments."""
    return {
        "kind": "moments",
        "count": moments.count,
        "mean": moments.mean,
        "m2": moments._m2,
        "min_value": moments.min_value,
        "max_value": moments.max_value,
    }


def moments_from_dict(data: dict) -> RunningMoments:
    """Decode running moments."""
    moments = RunningMoments()
    moments.count = data["count"]
    moments.mean = data["mean"]
    moments._m2 = data["m2"]
    moments.min_value = data["min_value"]
    moments.max_value = data["max_value"]
    return moments


def reservoir_to_dict(reservoir: ReservoirSample) -> dict:
    """Encode a reservoir sample.

    The RNG state is not preserved; the restored sample reseeds from
    its current content hash, which keeps behaviour deterministic
    without snapshotting Mersenne state.
    """
    return {
        "kind": "reservoir",
        "capacity": reservoir.capacity,
        "seen": reservoir.seen,
        "items": list(reservoir.values()),
    }


def reservoir_from_dict(data: dict) -> ReservoirSample:
    """Decode a reservoir sample."""
    reseed = (data["seen"] * 2654435761 + data["capacity"]) & 0xFFFFFFFF
    reservoir = ReservoirSample(data["capacity"], seed=reseed)
    reservoir._items = list(data["items"])
    reservoir._seen = data["seen"]
    return reservoir


# ----------------------------------------------------------------------
# column and table summaries
# ----------------------------------------------------------------------

def _config_to_dict(config: SummaryConfig) -> dict:
    return {
        "histogram_bins": config.histogram_bins,
        "countmin_width": config.countmin_width,
        "countmin_depth": config.countmin_depth,
        "hll_precision": config.hll_precision,
        "bloom_bits": config.bloom_bits,
        "bloom_hashes": config.bloom_hashes,
        "reservoir_size": config.reservoir_size,
        "seed": config.seed,
    }


def _config_from_dict(data: dict) -> SummaryConfig:
    return SummaryConfig(**data)


def column_summary_to_dict(column: ColumnSummary) -> dict:
    """Encode one column's sketch bundle."""
    out: dict[str, Any] = {
        "name": column.name,
        "dtype": column.dtype.value,
        "count": column.count,
        "nulls": column.nulls,
        "distinct": hll_to_dict(column.distinct),
        "frequencies": countmin_to_dict(column.frequencies),
        "members": bloom_to_dict(column.members),
        "examples": reservoir_to_dict(column.examples),
    }
    if column.moments is not None:
        out["moments"] = moments_to_dict(column.moments)
        out["histogram"] = histogram_to_dict(column.histogram)
    return out


def column_summary_from_dict(data: dict, config: SummaryConfig) -> ColumnSummary:
    """Decode one column's sketch bundle."""
    column = ColumnSummary(data["name"], DataType.from_name(data["dtype"]), config)
    column.count = data["count"]
    column.nulls = data["nulls"]
    column.distinct = hll_from_dict(data["distinct"])
    column.frequencies = countmin_from_dict(data["frequencies"])
    column.members = bloom_from_dict(data["members"])
    column.examples = reservoir_from_dict(data["examples"])
    if "moments" in data:
        column.moments = moments_from_dict(data["moments"])
        column.histogram = histogram_from_dict(data["histogram"])
    return column


def summary_to_dict(summary: TableSummary) -> dict:
    """Encode a whole table summary."""
    return {
        "serde_version": SERDE_VERSION,
        "table_name": summary.table_name,
        "schema": summary.schema.to_dict(),
        "config": _config_to_dict(summary.config),
        "reason": summary.reason,
        "row_count": summary.row_count,
        "spans": [list(span) for span in summary.spans],
        "time_column": summary.time_column,
        "time_range": list(summary.time_range) if summary.time_range else None,
        "columns": {
            name: column_summary_to_dict(col) for name, col in summary.columns.items()
        },
    }


def summary_from_dict(data: dict) -> TableSummary:
    """Decode a whole table summary."""
    version = data.get("serde_version")
    if version != SERDE_VERSION:
        raise SketchError(f"summary serde version {version!r}, expected {SERDE_VERSION}")
    config = _config_from_dict(data["config"])
    summary = TableSummary(
        data["table_name"],
        Schema.from_dict(data["schema"]),
        config,
        reason=data["reason"],
        time_column=data["time_column"],
    )
    summary.row_count = data["row_count"]
    summary.spans = [tuple(span) for span in data["spans"]]
    summary.time_range = tuple(data["time_range"]) if data["time_range"] else None
    summary.columns = {
        name: column_summary_from_dict(col, config)
        for name, col in data["columns"].items()
    }
    return summary
