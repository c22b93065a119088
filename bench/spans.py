"""Per-layer spans for the traced run.

Every public function of each weakspin module is wrapped, and the
wrapper is patched into every module that holds the name, because
`from .protocol import run_protocol_series` binds its own reference in
`design`.  Spans (name, parent, op, start, end) are kept in flat arrays
while ops run and summarised when the run ends.  Observers add counts
that spans cannot show, grid points evaluated and the share of each dent
search's curve that its choice depended on; they run when the op ends,
so their cost is in no span.  An `open` shadowed into `fileio` counts
opens of record files.
"""

from __future__ import annotations

import builtins
import functools
import importlib
import inspect
import time
from array import array
from collections import Counter

import numpy as np

LAYERS = ("core", "protocol", "design", "estimator", "nv", "fileio", "cli")
RECORDS_SUFFIX = "-records.json"  # how workloads.EstimateRoundtrip names record files


def _time_points(tracer, bound, result):
    tracer.counts["protocol.run_protocol_series.time_points"] += len(bound.arguments["times"])


def _needed_points(tracer, bound, result):
    """Grid points up to the first above-threshold one if the curve has a weak horizon."""
    curve = bound.arguments["curve"]
    below = (curve.values <= bound.arguments["threshold"]) & curve.valid
    needed = len(below)
    if below[0] and not below.all():
        needed = int(np.argmin(below)) + 1
    tracer.counts["design.grid_points_needed"] += needed
    tracer.counts["design.grid_points_evaluated"] += len(below)


OBSERVERS = {
    "protocol.run_protocol_series": _time_points,
    "design.assign_time": _needed_points,
}


class Tracer:
    def __init__(self):
        self.names = ["op"]
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._pending: list[tuple] = []
        self._op = -1
        modules = {layer: importlib.import_module(f"weakspin.{layer}") for layer in LAYERS}
        self._fileio = modules["fileio"]
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not attr.startswith("_"):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self._wrap(name, obj, OBSERVERS.get(name))
        self._patches = [
            (mod, attr, obj, wrappers[obj])
            for mod in (importlib.import_module("weakspin"), *modules.values())
            for attr, obj in vars(mod).items()
            if inspect.isfunction(obj) and obj in wrappers
        ]

    def _wrap(self, name, fn, observe):
        key = len(self.names)
        self.names.append(name)
        names, parents, ops = self.span_name, self.span_parent, self.span_op
        starts, ends, stack, clock = self.start, self.end, self._stack, time.perf_counter
        pending = self._pending
        signature = inspect.signature(fn) if observe else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            names.append(key)
            parents.append(stack[-1])
            ops.append(self._op)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if observe:
                pending.append((observe, signature, args, kwargs, result))
            return result

        return traced

    def _open(self, file, mode="r", *args, **kwargs):
        if mode.startswith("r") and str(file).endswith(RECORDS_SUFFIX):
            self.counts["fileio.record_file_reads"] += 1
        return builtins.open(file, mode, *args, **kwargs)

    def begin_op(self, index: int) -> None:
        """Patch the wrappers in and open the op's root span."""
        for mod, attr, _, wrapper in self._patches:
            setattr(mod, attr, wrapper)
        self._fileio.open = self._open
        self._op = index
        self._stack.append(len(self.start))
        self.span_name.append(0)
        self.span_parent.append(-1)
        self.span_op.append(index)
        self.end.append(0.0)
        self.start.append(time.perf_counter())

    def end_op(self) -> None:
        """Close the root span, restore the original functions, run observers."""
        self.end[self._stack.pop()] = time.perf_counter()
        del self._fileio.open
        for mod, attr, original, _ in self._patches:
            setattr(mod, attr, original)
        for observe, signature, args, kwargs, result in self._pending:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            observe(self, bound, result)
        self._pending.clear()

    def arrays(self) -> dict:
        return {
            "name": np.frombuffer(self.span_name, dtype=np.int32),
            "parent": np.frombuffer(self.span_parent, dtype=np.int64),
            "op": np.frombuffer(self.span_op, dtype=np.int64),
            "start": np.frombuffer(self.start, dtype=np.float64),
            "end": np.frombuffer(self.end, dtype=np.float64),
        }

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), **self.arrays())

    def summary(self) -> dict:
        """Per name: calls and self seconds, summed over all traced ops.

        Self time is a span's duration minus the durations of its child
        spans.  The "op" entry is the benchmark's own share of each op.
        """
        a = self.arrays()
        duration = a["end"] - a["start"]
        child = np.zeros_like(duration)
        nested = a["parent"] >= 0
        np.add.at(child, a["parent"][nested], duration[nested])
        self_time = duration - child
        size = len(self.names)
        calls = np.bincount(a["name"], minlength=size)
        busy = np.bincount(a["name"], weights=self_time, minlength=size)
        return {
            "ops": int(calls[0]),
            "op_seconds": float(duration[a["name"] == 0].sum()),
            "calls": dict(zip(self.names, calls.tolist())),
            "self_seconds": dict(zip(self.names, busy.tolist())),
        }

    def calls_per_op(self, name: str) -> list[int]:
        """How often `name` ran in each traced op, in op order."""
        a = self.arrays()
        roots = a["op"][a["name"] == 0]
        hits = a["op"][a["name"] == self.names.index(name)]
        return [int(np.count_nonzero(hits == op)) for op in roots]
