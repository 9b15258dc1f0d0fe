"""Span tracing of pcol from outside the package.

``Tracer.install()`` wraps every public function of each pcol module (and
``Coloring.materialize``) and rebinds every name that refers to one of them in
any pcol module, including names other modules imported, so nested calls such
as verification_report -> compute_quotient become child spans.  Each call
records a span ``{name, start, end, parent}`` plus layer counts (cells,
bytes).  Calls of the layers that report ``peak_mb`` also record the peak
tracemalloc bytes inside them; tracemalloc runs only during those calls, so
it does not slow the pure-Python text I/O.  Spans stay in memory;
``uninstall()`` restores every patched name to the original object.

``layer_metrics`` turns spans into the benchmark's per-layer metrics: busy
time (``.s``, nested calls of the same function counted once), self time
(``.self_s``, busy time minus child spans), calls and counts.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import os
import threading
import time
import tracemalloc

MODULES = ("core", "gf", "verify", "spectral", "constructions", "pcolfile", "cli")
METHODS = (("core", "Coloring", "materialize"),)


def _cells(C) -> int:
    return C.q**C.n


def _members(collection) -> tuple:
    return tuple(getattr(collection, "colorings", collection))


# Counts recorded per call, from the bound arguments after the call returns.
COUNTERS = {
    "core.materialize": lambda a: {"cells": 0 if a["self"].is_explicit else _cells(a["self"])},
    "pcolfile.write_pcol": lambda a: {"bytes": os.path.getsize(a["path"])},
    "pcolfile.read_pcol": lambda a: {"bytes": os.path.getsize(a["path"])},
    "verify.compute_quotient": lambda a: {"cells": _cells(a["C"])},
    "verify.check_uniform": lambda a: {
        "cells": len(_members(a["collection"])) * _cells(_members(a["collection"])[0])},
    "spectral.character_transform": lambda a: {"cells": a["q"] ** a["n"]},
}


def _public_callables(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


class Tracer:
    """Records spans of pcol calls while installed; not reentrant."""

    def __init__(self):
        self.spans: list[dict] = []
        self._local = threading.local()
        self._patched: list[tuple[object, str, object]] = []

    def _stacks(self) -> tuple[list, list]:
        local = self._local
        if not hasattr(local, "spans"):
            local.spans, local.peaks = [], []
        return local.spans, local.peaks

    def _begin_peak(self, peaks: list) -> dict:
        if peaks:
            outer = peaks[-1]
            outer["max"] = max(outer["max"], tracemalloc.get_traced_memory()[1])
        else:
            tracemalloc.start()
        tracemalloc.reset_peak()
        current = tracemalloc.get_traced_memory()[0]
        frame = {"base": current, "max": current}
        peaks.append(frame)
        return frame

    def _end_peak(self, peaks: list, frame: dict) -> int:
        frame["max"] = max(frame["max"], tracemalloc.get_traced_memory()[1])
        peaks.pop()
        if peaks:
            peaks[-1]["max"] = max(peaks[-1]["max"], frame["max"])
        else:
            tracemalloc.stop()
        return frame["max"] - frame["base"]

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None
        measure_peak = name in PEAK_LAYERS
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, peaks = self._stacks()
            parent = stack[-1] if stack else None
            span = {"name": name, "parent": parent["id"] if parent else None,
                    "id": len(spans)}
            spans.append(span)
            stack.append(span)
            frame = self._begin_peak(peaks) if measure_peak else None
            span["start"] = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                if frame is not None:
                    span["peak_bytes"] = self._end_peak(peaks, frame)
                if counter is not None:
                    span.update(counter(signature.bind(*args, **kwargs).arguments))

        return traced

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        modules = {name: importlib.import_module(f"pcol.{name}") for name in MODULES}
        wrappers: dict[int, object] = {}
        for short, module in modules.items():
            for attr, obj in _public_callables(module):
                wrappers[id(obj)] = self._wrap(f"{short}.{attr}", obj)
        for short, cls_name, method in METHODS:
            cls = getattr(modules[short], cls_name)
            original = vars(cls)[method]
            self._patched.append((cls, method, original))
            setattr(cls, method, self._wrap(f"{short}.{method}", original))
        for module in (importlib.import_module("pcol"), *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers:
                    self._patched.append((module, attr, obj))
                    setattr(module, attr, wrappers[id(obj)])

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()


# The per-layer metrics: function (or group) name -> counts it reports besides
# s, self_s and calls.  "constructions.build" groups every constructions.* call.
LAYERS = {
    "core.materialize": ("cells", "peak_mb"),
    "constructions.build": (),
    "pcolfile.write_pcol": ("bytes",),
    "pcolfile.read_pcol": ("bytes",),
    "verify.compute_quotient": ("cells", "peak_mb"),
    "verify.essential_arguments": (),
    "verify.densities_by_count": (),
    "verify.quotient_spectrum": (),
    "verify.check_uniform": ("cells", "peak_mb"),
    "verify.verification_report": (),
    "spectral.coloring_degree": ("transforms", "peak_mb"),
    "spectral.hamming_weights": (),
    "spectral.character_transform": ("cells",),
    "spectral.eigen_decomposition_check": ("transforms",),
    "cli.main": (),
}
TRACE_METRICS = ("other.self_s", "trace.spans_s")
PEAK_LAYERS = {layer for layer, extra in LAYERS.items() if "peak_mb" in extra}


def layer_of(name: str) -> str | None:
    if name.startswith("constructions."):
        return "constructions.build"
    return name if name in LAYERS else None


def metric_names() -> list[str]:
    names = []
    for layer, extra in LAYERS.items():
        names += [f"{layer}.s", f"{layer}.self_s", f"{layer}.calls"]
        names += [f"{layer}.{count}" for count in extra]
    return names + list(TRACE_METRICS)


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer busy time, self time, calls and counts from recorded spans.

    Every span's self time lands in exactly one layer or in other.self_s, so
    their sum is trace.spans_s, the time covered by root spans.
    """
    out = dict.fromkeys(metric_names(), 0)
    by_id = {s["id"]: s for s in spans}
    child_time = dict.fromkeys(by_id, 0.0)
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += s["end"] - s["start"]

    def ancestors(s):
        while s["parent"] is not None:
            s = by_id[s["parent"]]
            yield s

    for s in spans:
        duration = s["end"] - s["start"]
        self_s = duration - child_time[s["id"]]
        layer = layer_of(s["name"])
        lineage = [layer_of(a["name"]) for a in ancestors(s)]
        if s["parent"] is None:
            out["trace.spans_s"] += duration
        if layer is None:
            out["other.self_s"] += self_s
            continue
        out[f"{layer}.self_s"] += self_s
        out[f"{layer}.calls"] += 1
        if layer not in lineage:
            out[f"{layer}.s"] += duration
        extra = LAYERS[layer]
        for count in ("cells", "bytes"):
            if count in extra:
                out[f"{layer}.{count}"] += s.get(count, 0)
        if "peak_mb" in extra:
            out[f"{layer}.peak_mb"] = max(out[f"{layer}.peak_mb"], s["peak_bytes"] / 2**20)
        if layer == "spectral.character_transform":
            for outer in set(lineage):
                if outer is not None and "transforms" in LAYERS[outer]:
                    out[f"{outer}.transforms"] += 1
    return out
