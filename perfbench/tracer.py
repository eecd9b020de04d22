"""Call tracing from outside the program: wrappers around layer entry points.

`Tracer.install` replaces chosen functions and methods of the library
with thin wrappers that record one span per call (name, start, end,
parent span) in compact arrays held in memory; `uninstall` puts the
originals back, and `write` saves the spans when the run ends.  Nothing
under ``src/`` knows it is traced.

A span's *self time* is its duration minus the time its child spans
cover.  Spans nest through a per-thread stack, which is exact for
synchronous calls.  A wrapped coroutine is timed only while it runs: each
step between two suspensions is its own span, so time spent waiting on
the network or on another task is never charged to it.

Each traced name belongs to a layer (the module it lives in).  A layer's
self time is the sum of its spans' self times; what the measured wall
time holds beyond the top-level spans is the unattributed residual.
"""

from __future__ import annotations

import functools
import json
import os
from array import array
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np


@dataclass
class Target:
    """One function to wrap: ``owner.attr`` (a class or a module)."""

    owner: object
    attr: str
    name: str  # span name, e.g. "aux.candidates"
    layer: str  # module name, e.g. "auxtable"
    is_async: bool = False
    # observe(tracer, args, kwargs, result) adds counts at the boundary.
    observe: Callable | None = None


class _TimedAwaitable:
    """Drive a coroutine step by step, one span per step."""

    __slots__ = ("_coro", "_tracer", "_nid", "_walls")

    def __init__(self, coro, tracer: "Tracer", nid: int, walls: list | None):
        self._coro = coro
        self._tracer = tracer
        self._nid = nid
        self._walls = walls

    def __await__(self):
        coro, tracer, nid = self._coro, self._tracer, self._nid
        first = perf_counter()
        value = None
        exc = None
        while True:
            idx = tracer.open(nid)
            try:
                if exc is None:
                    yielded = coro.send(value)
                else:
                    yielded = coro.throw(exc)
            except StopIteration as stop:
                tracer.close(idx)
                if self._walls is not None:
                    self._walls.append(perf_counter() - first)
                return stop.value
            except BaseException:
                tracer.close(idx)
                raise
            tracer.close(idx)
            try:
                value = yield yielded
                exc = None
            except BaseException as e:  # re-raised inside the coroutine
                value = None
                exc = e


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self, targets: list[Target], wall_of: tuple[str, ...] = ()):
        self.targets = targets
        self.names: list[str] = []
        self.layer_of: dict[str, str] = {}
        self._nid: dict[str, int] = {}
        for t in targets:
            self._id(t.name)
            self.layer_of[t.name] = t.layer
        self._span_name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []
        self.counts: dict[str, float] = {}
        # Whole-call wall times (first step to return) for chosen async names.
        self.walls: dict[str, list[float]] = {n: [] for n in wall_of}

    def _id(self, name: str) -> int:
        nid = self._nid.get(name)
        if nid is None:
            nid = self._nid[name] = len(self.names)
            self.names.append(name)
        return nid

    # -- span recording -----------------------------------------------------

    def open(self, nid: int) -> int:
        idx = len(self._span_name)
        self._span_name.append(nid)
        self._parent.append(self._stack[-1] if self._stack else -1)
        self._end.append(0.0)
        self._stack.append(idx)
        self._start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self._end[idx] = perf_counter()
        self._stack.pop()

    def count(self, name: str, n: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    # -- installing wrappers ------------------------------------------------

    def _wrap(self, t: Target):
        original = getattr(t.owner, t.attr)
        nid = self._id(t.name)
        tracer = self
        observe = t.observe
        calls = f"{t.name}.calls"
        if t.is_async:
            walls = self.walls.get(t.name)

            @functools.wraps(original)
            def wrapper(*args, **kwargs):
                tracer.count(calls)
                return _TimedAwaitable(original(*args, **kwargs), tracer, nid, walls)

            return wrapper

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            idx = tracer.open(nid)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.close(idx)
            tracer.count(calls)
            if observe is not None:
                observe(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for t in self.targets:
            # Save the attribute exactly as stored, so uninstall restores it.
            saved = t.owner.__dict__[t.attr] if t.attr in vars(t.owner) else None
            self._saved.append((t.owner, t.attr, saved))
            setattr(t.owner, t.attr, self._wrap(t))

    def uninstall(self) -> None:
        for owner, attr, saved in reversed(self._saved):
            if saved is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, saved)
        self._saved.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- analysis -----------------------------------------------------------

    def _arrays(self):
        """Copies, so the recording arrays stay free to grow."""
        return (np.array(self._span_name, dtype=np.int32), np.array(self._start),
                np.array(self._end), np.array(self._parent, dtype=np.int32))

    @property
    def nspans(self) -> int:
        return len(self._span_name)

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name."""
        name, start, end, parent = self._arrays()
        dur = end - start
        child = np.zeros(dur.size)
        nested = parent >= 0
        np.add.at(child, parent[nested], dur[nested])
        per_name = np.bincount(name, weights=dur - child, minlength=len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def inclusive_times(self) -> dict[str, float]:
        """Seconds inside each span name, children included (none of the
        traced functions call themselves, so spans of one name never nest)."""
        name, start, end, _ = self._arrays()
        per_name = np.bincount(name, weights=end - start, minlength=len(self.names))
        return {n: float(per_name[i]) for i, n in enumerate(self.names)}

    def layer_self(self) -> dict[str, float]:
        """Self seconds per layer."""
        per_name = self.self_times()
        out: dict[str, float] = {}
        for n, sec in per_name.items():
            out[self.layer_of[n]] = out.get(self.layer_of[n], 0.0) + sec
        return out

    def write(self, path: str) -> None:
        """Write every span out (called once, when the run ends)."""
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        name, start, end, parent = self._arrays()
        t0 = float(start.min()) if start.size else 0.0
        np.savez_compressed(
            path,
            name=name,
            start=start - t0,
            end=end - t0,
            parent=parent,
            names=np.array(json.dumps({"names": self.names, "layer_of": self.layer_of})),
        )
