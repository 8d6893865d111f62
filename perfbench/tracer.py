"""Per-layer wall-clock tracing from outside the program.

:class:`LayerTracer` replaces each layer's public entry points with a
wrapper that records a span (entry point, start, end, parent span) and
puts the originals back when the traced call returns.  A call into a
layer from inside the same layer records no span of its own, so a
layer's ``calls`` count entries from other layers.  Span 0 is the root:
the traced call itself.

:func:`analyse` turns the spans of one traced call into per-layer self
times (span time minus the time of its child spans), call counts and
the work counts some entry points carry, after checking that the spans
nest.  The root's self time is what no layer span covers
(``unattributed``).
"""

from __future__ import annotations

import inspect
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

import repro.core.events as events
import repro.core.forecasting as forecasting
import repro.core.merge as merge
import repro.core.mergesort as mergesort
import repro.core.schedule as schedule
import repro.core.writer as writer
import repro.disks.system as system

#: The layers of ``repro`` the tracer times, in report order.
LAYERS = (
    "run_formation",
    "merge",
    "losertree",
    "schedule",
    "forecasting",
    "writer",
    "disks",
    "events",
)


def _n_records(args: tuple) -> int:
    return len(args[1])  # RunWriter.append(self, keys, payloads)


def _n_blocks(args: tuple) -> int:
    return len(args[1])  # read_stripe(self, addresses) / write_stripe(self, writes)


def _public_methods(cls: type) -> list[str]:
    return [
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) and not name.startswith("_")
    ]


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped attribute: ``owner.attr`` belongs to ``layer``."""

    owner: object
    attr: str
    layer: str
    #: Work carried by one call, read from its positional arguments.
    amount: Callable[[tuple], int] | None = None

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__name__", str(self.owner)).rsplit(".", 1)[-1]
        return f"{owner}.{self.attr}"


def entry_points() -> list[EntryPoint]:
    """Every timed entry point, at the name its caller resolves it by."""
    sched, fds = schedule.MergeScheduler, forecasting.ForecastStructure
    disks, eng = system.ParallelDiskSystem, events.OverlapEngine
    return [
        EntryPoint(mergesort, "form_runs_load_sort", "run_formation"),
        EntryPoint(mergesort, "form_runs_replacement_selection", "run_formation"),
        EntryPoint(mergesort, "merge_runs", "merge"),
        EntryPoint(merge, "merge_loop_batched", "losertree"),
        EntryPoint(merge, "merge_loop_cycles", "losertree"),
        *(
            EntryPoint(sched, m, "schedule")
            for m in ("initial_load", "ensure_resident", "maybe_prefetch",
                      "on_leading_depleted")
        ),
        *(EntryPoint(fds, m, "forecasting") for m in _public_methods(fds)),
        EntryPoint(writer.RunWriter, "append", "writer", _n_records),
        EntryPoint(writer.RunWriter, "finalize", "writer"),
        EntryPoint(disks, "read_stripe", "disks", _n_blocks),
        EntryPoint(disks, "write_stripe", "disks", _n_blocks),
        EntryPoint(disks, "allocate", "disks"),
        EntryPoint(disks, "free", "disks"),
        *(
            EntryPoint(eng, m, "events")
            for m in ("on_parread", "on_flush", "compute", "wait_for",
                      "on_write", "pump", "finish")
        ),
    ]


#: Entry and layer index of the root span, which no entry point has.
ROOT_ENTRY = -1


class LayerTracer:
    """Records layer spans around one call at a time.

    ``spans`` holds ``[entry, start, end, parent, amount]`` rows; the
    root row has entry :data:`ROOT_ENTRY`.
    """

    def __init__(self) -> None:
        self.entries = entry_points()
        self.layer_of = [LAYERS.index(e.layer) for e in self.entries]
        self.spans: list[list] = []

    def trace(self, fn: Callable, *args, **kwargs):
        """Call ``fn(*args, **kwargs)`` with every entry point wrapped.

        Spans from an earlier call are discarded.  The originals are
        restored before this returns, whether *fn* returned or raised.
        """
        self.spans = spans = [[ROOT_ENTRY, 0.0, 0.0, -1, 0]]
        stack = [(ROOT_ENTRY, 0)]  # (layer, span index) of the open spans
        originals = [getattr(e.owner, e.attr) for e in self.entries]
        try:
            for i, (e, fn0) in enumerate(zip(self.entries, originals)):
                setattr(e.owner, e.attr,
                        _wrap(fn0, i, self.layer_of[i], e.amount, spans, stack))
            clock = time.perf_counter
            spans[0][1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[0][2] = clock()
        finally:
            for e, fn0 in zip(self.entries, originals):
                setattr(e.owner, e.attr, fn0)
            restored = all(
                getattr(e.owner, e.attr) is fn0
                for e, fn0 in zip(self.entries, originals)
            )
            if not restored:  # pragma: no cover - would poison later sorts
                raise RuntimeError("tracer failed to restore a wrapped attribute")


def _wrap(fn, entry: int, layer: int, amount, spans: list, stack: list):
    clock = time.perf_counter

    def traced(*args, **kwargs):
        top_layer, parent = stack[-1]
        if top_layer == layer:
            return fn(*args, **kwargs)
        rec = [entry, 0.0, 0.0, parent, amount(args) if amount else 0]
        stack.append((layer, len(spans)))
        spans.append(rec)
        rec[1] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = clock()
            stack.pop()

    traced.__wrapped__ = fn
    return traced


@dataclass(frozen=True)
class Profile:
    """Per-layer totals of one traced call."""

    wall_s: float
    self_s: dict[str, float]  # per layer, plus "unattributed"
    calls: dict[str, int]  # per layer
    entry_calls: dict[str, int]  # per entry point name
    entry_amount: dict[str, int]  # per entry point name
    #: Spans of ``write_stripe`` whose parent span is a ``writer`` span.
    writer_stripes: int


def analyse(tracer: LayerTracer) -> Profile:
    """Check the spans of the last traced call nest, then total them.

    Raises ``ValueError`` if a span leaves its parent, two siblings
    overlap, or self times fail to add up to the root's wall time.
    """
    arr = np.array(tracer.spans, dtype=np.float64)
    entry = arr[:, 0].astype(np.int64)
    t0, t1, amount = arr[:, 1], arr[:, 2], arr[:, 4]
    parent = arr[:, 3].astype(np.int64)
    dur = t1 - t0
    kids = np.arange(1, len(arr))
    pk = parent[kids]
    if np.any(t0[kids] < t0[pk]) or np.any(t1[kids] > t1[pk]):
        raise ValueError("a span is not contained in its parent span")
    order = kids[np.lexsort((t0[kids], pk))]
    same = parent[order[1:]] == parent[order[:-1]]
    if np.any(t0[order[1:]][same] < t1[order[:-1]][same]):
        raise ValueError("two sibling spans overlap")
    self_t = dur - np.bincount(pk, weights=dur[kids], minlength=len(arr))

    layer = np.full(len(arr), len(LAYERS), dtype=np.int64)  # root slot last
    layer[kids] = np.asarray(tracer.layer_of, dtype=np.int64)[entry[kids]]
    per_layer = np.bincount(layer, weights=self_t, minlength=len(LAYERS) + 1)
    wall = float(dur[0])
    if abs(per_layer.sum() - wall) > 1e-9 * len(arr) + 1e-6:
        raise ValueError(
            f"layer self times add to {per_layer.sum()} s, not the wall {wall} s"
        )
    n_layer = np.bincount(layer[kids], minlength=len(LAYERS) + 1)
    n_entry = np.bincount(entry[kids], minlength=len(tracer.entries))
    amt = np.bincount(entry[kids], weights=amount[kids], minlength=len(tracer.entries))
    names = [e.name for e in tracer.entries]
    write = names.index("ParallelDiskSystem.write_stripe")
    writer_layer = LAYERS.index("writer")
    stripes = int(np.sum((entry[kids] == write) & (layer[pk] == writer_layer)))
    self_s = {name: float(per_layer[i]) for i, name in enumerate(LAYERS)}
    self_s["unattributed"] = float(per_layer[len(LAYERS)])
    return Profile(
        wall_s=wall,
        self_s=self_s,
        calls={name: int(n_layer[i]) for i, name in enumerate(LAYERS)},
        entry_calls={n: int(c) for n, c in zip(names, n_entry)},
        entry_amount={n: int(a) for n, a in zip(names, amt)},
        writer_stripes=stripes,
    )
