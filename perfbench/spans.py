"""In-memory span recording around the public functions of xbarsim's layers.

`install` rebinds every public function of the layer modules in each
`xbarsim.*` namespace that holds it, which is where callers look names up,
so nested calls (dse -> mapper/simulate, simulate -> techmodel) are caught
as well as the benchmark's own calls. A span is a row of parallel arrays:
name, start, end, parent span, run id (the pass index) and whether the call
raised. Self time is a span's duration minus its direct children's.

Names are discovered at install time, so a function the package no longer
has simply records no calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "workload", "mapper", "techmodel", "crossbar", "simulate", "dse", "reports")


class Recorder:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")
        self._stack: list[int] = []
        self.run_id = 0
        self.active = False
        # name -> hook(args, result, parent_name); runs after the call returns
        self.hooks: dict = {}

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.raised.append(0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int, raised: bool) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()
        if raised:
            self.raised[idx] = 1

    def wrap(self, name: str, fn):
        nid = self.name_id(name)
        hook = self.hooks.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(nid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._close(idx, True)
                raise
            self._close(idx, False)
            if hook is not None:
                parent = self.parent[idx]
                hook(args, result, self.names[self.name[parent]] if parent >= 0 else None)
            return result

        return traced

    def span(self, name: str):
        """Context manager for a span the benchmark opens itself (a pass)."""
        return _Span(self, self.name_id(name))

    def summary(self):
        """Per name: (calls, raised, self seconds, total seconds), over all spans."""
        names = np.array(self.name, dtype=np.int32)
        parents = np.array(self.parent, dtype=np.int32)
        dur = np.array(self.end, dtype=float) - np.array(self.start, dtype=float)
        has_parent = parents >= 0
        child = np.bincount(parents[has_parent], weights=dur[has_parent], minlength=len(dur))
        self_time = dur - child
        k = len(self.names)
        calls = np.bincount(names, minlength=k)
        raised = np.bincount(names, weights=np.array(self.raised, dtype=np.int8), minlength=k)
        self_s = np.bincount(names, weights=self_time, minlength=k)
        total_s = np.bincount(names, weights=dur, minlength=k)
        return {n: (int(calls[i]), int(raised[i]), float(self_s[i]), float(total_s[i]))
                for i, n in enumerate(self.names)}

    def durations(self, name: str) -> np.ndarray:
        sel = np.array(self.name, dtype=np.int32) == self._ids.get(name, -1)
        return np.array(self.end, dtype=float)[sel] - np.array(self.start, dtype=float)[sel]

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.array(self.name, dtype=np.int32),
                 parent=np.array(self.parent, dtype=np.int32),
                 run=np.array(self.run, dtype=np.int32),
                 start=np.array(self.start, dtype=float), end=np.array(self.end, dtype=float),
                 raised=np.array(self.raised, dtype=np.int8))


class _Span:
    def __init__(self, recorder: Recorder, nid: int):
        self.recorder, self.nid = recorder, nid

    def __enter__(self):
        self.idx = self.recorder._open(self.nid)

    def __exit__(self, exc_type, exc, tb):
        self.recorder._close(self.idx, exc_type is not None)
        return False


def public_functions() -> dict:
    """{'layer.func': function} for every public function each layer defines."""
    found = {}
    for layer in LAYERS:
        module = sys.modules.get(f"xbarsim.{layer}")
        if module is None:
            continue
        for attr, value in vars(module).items():
            if attr.startswith("_") or not inspect.isfunction(value) \
                    or value.__module__ != module.__name__:
                continue
            found[f"{layer}.{attr}"] = value
    return found


def install(recorder: Recorder):
    """Rebind layer functions to the recorder's wrappers; returns the undo callable."""
    wrappers = {id(fn): (fn, recorder.wrap(name, fn)) for name, fn in public_functions().items()}
    patched = []
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "xbarsim" or mod_name.startswith("xbarsim.")):
            continue
        for attr, value in list(vars(module).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
                patched.append((module, attr, value))

    def restore():
        for module, attr, value in patched:
            setattr(module, attr, value)

    return restore
