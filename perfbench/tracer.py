"""Span recording around the public functions of the bosonbounds modules.

``install`` replaces every public function of the six package modules with
a wrapper that records one span per call: (id, parent id, name, start ns,
end ns, problem id, size).  The wrapper is written into every namespace of
the package that holds the original, so calls made inside the package
(``optimize`` calling ``minimize_scale``, ``cli`` calling ``bound_report``)
are recorded too.  The scipy tridiagonal eigensolver is wrapped as well,
with the node count of each solve as its size, so the eigensolver work of
``radial_oracle`` is counted where the package hands it to scipy.

Spans stay in memory; ``dump`` writes them once, at exit.  ``analyse``
turns a list of spans into per-layer self times: a span's self time is its
duration minus the part of it covered by its child spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time

LAYERS = ("model", "closed_bounds", "collective_field", "numerics", "radial_oracle", "cli")
EIG_SPAN = "scipy.eigh_tridiagonal"

# span tuple fields
SID, PARENT, NAME, T0, T1, PROBLEM, SIZE = range(7)


class Recorder:
    """In-memory span store; one per traced process."""

    def __init__(self):
        self.spans = []
        self.problem = -1
        self._ids = itertools.count()
        self._stacks = {}

    def _parent(self, stack):
        if stack:
            return stack[-1]
        # A thread of a pool started inside a traced call: attribute its
        # spans to the call the main thread is blocked in.
        if threading.current_thread() is threading.main_thread():
            return None
        main = self._stacks.get(threading.main_thread().ident)
        try:
            return main[-1] if main else None
        except IndexError:
            return None

    def wrap(self, name, fn, size_of=None):
        stacks = self._stacks
        spans = self.spans
        ids = self._ids

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = stacks.setdefault(threading.get_ident(), [])
            sid = next(ids)
            parent = self._parent(stack)
            size = size_of(args, kwargs) if size_of else 0
            stack.append(sid)
            t0 = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter_ns()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, self.problem, size))

        return traced

    def dump(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spans": self.spans}, fh, separators=(",", ":"))


def _diag_size(args, kwargs):
    diag = args[0] if args else kwargs["d"]
    return len(diag)


def install(recorder: Recorder) -> None:
    """Wrap the package's public functions and the eigensolver boundary."""
    originals = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"bosonbounds.{layer}")
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != mod.__name__:
                continue
            originals[id(obj)] = recorder.wrap(f"{layer}.{name}", obj)

    import scipy.linalg

    eig = scipy.linalg.eigh_tridiagonal
    eig_traced = recorder.wrap(EIG_SPAN, eig, size_of=_diag_size)
    originals[id(eig)] = eig_traced
    scipy.linalg.eigh_tridiagonal = eig_traced

    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == "bosonbounds" or modname.startswith("bosonbounds.")):
            continue
        for name, obj in list(vars(mod).items()):
            wrapper = originals.get(id(obj))
            if wrapper is not None:
                setattr(mod, name, wrapper)


def load(path):
    with open(path, encoding="utf-8") as fh:
        return [tuple(s) for s in json.load(fh)["spans"]]


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def covered_ns(intervals, lo, hi):
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total = 0
    end = lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans):
    """Map span id -> self time in ns (duration minus child coverage)."""
    children = {}
    for s in spans:
        if s[PARENT] is not None:
            children.setdefault(s[PARENT], []).append((s[T0], s[T1]))
    return {
        s[SID]: (s[T1] - s[T0]) - covered_ns(children.get(s[SID], ()), s[T0], s[T1])
        for s in spans
    }


def layer_of(name):
    return name.split(".", 1)[0]


def ancestors(span, by_id):
    parent = span[PARENT]
    while parent is not None:
        span = by_id.get(parent)
        if span is None:
            return
        yield span
        parent = span[PARENT]
