"""Span recording from outside the program.

``Recorder.install`` replaces the public callables named in ``TARGETS``
with timing wrappers; ``uninstall`` puts the originals back. Nothing
under ``src/`` is edited: a layer boundary is wherever one of these
callables is entered. Spans are kept in memory as parallel arrays
(name, start, end, parent, operation id) and written as JSONL only when
asked. A span's self time is its duration minus the durations of its
direct children, which nest strictly because everything runs on one
thread.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy

#: (module, attribute path inside it, span name). ``op.*`` spans are the
#: API calls the harness makes; each starts a new operation id.
TARGETS = (
    ("repro.core.db", "FungusDB.insert_many", "op.insert_many"),
    ("repro.core.db", "FungusDB.tick", "op.tick"),
    ("repro.core.db", "FungusDB.query", "op.query"),
    ("repro.core.table", "DecayingTable.insert_many", "core.insert_many"),
    ("repro.storage.schema", "Schema.coerce_row", "storage.coerce"),
    ("repro.storage.table", "Table.append", "storage.append"),
    ("repro.storage.index", "HashIndex.on_append", "storage.index"),
    ("repro.storage.index", "HashIndex.on_delete", "storage.index"),
    ("repro.storage.index", "SortedIndex.on_append", "storage.index"),
    ("repro.storage.index", "SortedIndex.on_delete", "storage.index"),
    ("repro.core.policy", "DecayPolicy.run_tick", "core.run_tick"),
    ("repro.fungi.egi", "EGIFungus.cycle", "fungi.cycle"),
    ("repro.fungi.linear", "LinearDecayFungus.cycle", "fungi.cycle"),
    ("repro.core.table", "DecayingTable.decay_many", "core.decay_many"),
    ("repro.core.table", "DecayingTable.scale_many", "core.decay_many"),
    ("repro.core.table", "DecayingTable.evict", "core.evict"),
    ("repro.storage.table", "Table.delete_many", "storage.delete_many"),
    ("repro.storage.table", "Table.compact", "storage.compact"),
    ("repro.core.distill", "Distiller.distill_rowset", "core.distill"),
    ("repro.sketch.summary", "TableSummary.add_row", "sketch.add_row"),
    ("repro.core.events", "EventBus.publish", "core.events"),
    ("repro.core.events", "EventBus.publish_lazy", "core.events"),
    ("repro.obs.collector", "BusCollector.sample_table", "obs.sample_table"),
    ("repro.obs.querystats", "QueryStatsStore.observe", "obs.querystats"),
    # the executor binds these two by name at import, so patch its copy
    ("repro.query.executor", "parse", "query.parse"),
    ("repro.query.executor", "plan_select", "query.plan"),
    ("repro.storage.stats", "PlannerStats.column", "query.stats"),
    ("repro.query.executor", "QueryEngine.execute", "query.exec"),
    ("repro.storage.table", "Table.gather", "storage.gather"),
)


class Recorder:
    """In-memory span store plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.on = False  # wrappers pass straight through while False
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._op = array("i")
        self._stack: list[int] = []
        self._ops = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self._name)

    # -- patching --------------------------------------------------------

    def install(self) -> None:
        for module_name, path, span in TARGETS:
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span))

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def _wrap(self, fn: Callable[..., Any], span: str) -> Callable[..., Any]:
        if span not in self._name_ids:
            self._name_ids[span] = len(self.names)
            self.names.append(span)
        name_id = self._name_ids[span]
        names, starts, ends = self._name, self._start, self._end
        parents, ops, stack = self._parent, self._op, self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not self.on:
                return fn(*args, **kwargs)
            index = len(names)
            if stack:
                parents.append(stack[-1])
            else:
                parents.append(-1)
                self._ops += 1
            names.append(name_id)
            ops.append(self._ops)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()

        return traced

    # -- reading ---------------------------------------------------------

    def _parents_and_durations(self) -> tuple[Any, Any]:
        parent = numpy.frombuffer(self._parent, dtype=numpy.intc)
        return parent, numpy.frombuffer(self._end) - numpy.frombuffer(self._start)

    def totals(self) -> dict[str, tuple[float, int]]:
        """``{span name: (self seconds, calls)}`` over everything recorded."""
        if not len(self):
            return {}
        name = numpy.frombuffer(self._name, dtype=numpy.intc)
        parent, duration = self._parents_and_durations()
        covered = numpy.zeros(len(duration))
        has_parent = parent >= 0
        numpy.add.at(covered, parent[has_parent], duration[has_parent])
        self_time = numpy.bincount(name, weights=duration - covered)
        calls = numpy.bincount(name)
        return {
            span: (float(self_time[i]), int(calls[i]))
            for i, span in enumerate(self.names)
            if i < len(calls) and calls[i]
        }

    def root_seconds(self) -> float:
        """Time inside API calls: the summed duration of parentless spans."""
        if not len(self):
            return 0.0
        parent, duration = self._parents_and_durations()
        return float(duration[parent < 0].sum())

    def write_jsonl(self, path: Path, limit: int) -> int:
        """Write up to ``limit`` spans, cut at an operation boundary."""
        count = min(len(self), limit)
        if count < len(self):
            last_op = self._op[count]
            while count and self._op[count - 1] == last_op:
                count -= 1
        origin = self._start[0] if count else 0.0
        with path.open("w", encoding="utf-8") as out:
            for i in range(count):
                out.write(
                    json.dumps(
                        {
                            "id": i,
                            "op": self._op[i],
                            "name": self.names[self._name[i]],
                            "start": self._start[i] - origin,
                            "end": self._end[i] - origin,
                            "parent": self._parent[i],
                        }
                    )
                )
                out.write("\n")
        return count
