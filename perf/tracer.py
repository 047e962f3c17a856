"""Span tracer for the benchmark's traced run.

The tracer times calls into each layer's public entry points from
outside the program: :func:`tracing` replaces the named functions on
their classes (or modules) with timing wrappers and puts the original
objects back when it exits.  Nothing is ever set on an instance, so
objects built while tracing pickle exactly as they would untraced (the
fleet checkpoints pickle the ``OpenLoopReplay`` objects).

Every wrapped call is a span.  A span's *self time* is its duration
minus the time its child spans cover, so the self times of all spans
partition the time covered by the outermost spans.  Counts and times
aggregate online per function; full spans are kept only for the first
``keep_requests`` requests of each cell, where a *cell* is one outermost
call of a ``cell`` entry point (a replay) and a *request* is one
outermost call of a ``request`` entry point (a host request reaching the
FTL or the front-end scheduler).  Spans of one request share its id.

Generator entry points (trace streams, lint rules that yield findings)
are timed per ``next()``: each resumption is one span.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: Flag bits of a traced function.
REQUEST = 1
CELL = 2
TAGGED = 4

#: Column names of one kept span (the ``spans`` rows of a spans file).
SPAN_FIELDS = ("id", "parent", "cell", "req", "fn", "start_us", "dur_us",
               "self_us")
#: Most spans one run keeps, whatever ``keep_requests`` allows: a cap on
#: the memory and the size of the spans file.
MAX_SPANS = 400_000


@dataclass(frozen=True)
class Target:
    """One function to time: ``owner.attr`` attributed to ``layer``."""

    layer: str
    owner: Any          # a class or a module
    attr: str
    flags: int = 0
    #: Grouping label: the lint rule family of an analysis rule hook, or
    #: a group whose outermost-span time is summed (see
    #: :attr:`Tracer.tag_outer_s`).
    tag: str = ""

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__qualname__", None)
        if owner is None:
            return self.attr
        return f"{owner}.{self.attr}"


class Tracer:
    """Span stack plus per-function aggregates for one traced run."""

    def __init__(self, keep_requests: int = 1000,
                 clock: Callable[[], float] = time.perf_counter):
        self.keep_requests = keep_requests
        self.clock = clock
        #: Spans that may still be kept (:data:`MAX_SPANS` minus those kept).
        self._room = MAX_SPANS
        #: ``(layer, name, tag)`` per function index.
        self.functions: list[tuple[str, str, str]] = []
        self._flags: list[int] = []
        self.calls: list[int] = []
        self.self_s: list[float] = []
        self.incl_s: list[float] = []
        #: Open frames: ``[fn, start, child_s, span_id, parent_id, cell,
        #: req]`` (the last four are -1 for a span that is not kept).
        self._stack: list[list] = []
        self.spans: list[tuple] = []
        self.dropped_spans = 0
        #: Per tag, the summed duration of spans with no open ancestor of
        #: the same tag: inclusive time of a group without double counts.
        self.tag_outer_s: dict[str, float] = {}
        self._tags: list[str] = []
        self._tag_depth: dict[str, int] = {}
        #: One entry per cell: ``{"id", "entry", "under"}`` where
        #: ``under`` names the functions open when the cell began.
        self.cells: list[dict] = []
        self._cell = -1
        self._cell_depth = 0
        self._req = -1
        self._req_depth = 0
        #: Outermost request-entry calls over the whole run.
        self.requests = 0
        self._next_id = 0
        self._t0 = clock()

    def register(self, layer: str, name: str, flags: int = 0,
                 tag: str = "") -> int:
        """Index of a new traced function."""
        self.functions.append((layer, name, tag))
        self._flags.append(flags | TAGGED if tag else flags)
        self._tags.append(tag)
        self.calls.append(0)
        self.self_s.append(0.0)
        self.incl_s.append(0.0)
        return len(self.functions) - 1

    # -- span stack ------------------------------------------------------

    def open(self, fn: int) -> list:
        """Start a span of function ``fn``; returns its frame."""
        flags = self._flags[fn]
        stack = self._stack
        if flags:
            if flags & CELL:
                if not self._cell_depth:
                    self._cell += 1
                    self._req = -1
                    self.cells.append({
                        "id": self._cell,
                        "entry": self.functions[fn][1],
                        "under": [self.functions[f[0]][1] for f in stack]})
                self._cell_depth += 1
            if flags & REQUEST:
                if not self._req_depth:
                    self._req += 1
                    self.requests += 1
                self._req_depth += 1
            if flags & TAGGED:
                tag = self._tags[fn]
                self._tag_depth[tag] = self._tag_depth.get(tag, 0) + 1
        frame = [fn, 0.0, 0.0, -1, -1, -1, -1]
        if self._req < self.keep_requests:
            if self._room > 0:
                self._room -= 1
                frame[3] = self._next_id
                self._next_id += 1
                frame[4] = stack[-1][3] if stack else -1
                frame[5] = self._cell if self._cell_depth else -1
                frame[6] = self._req if self._req_depth else -1
            else:
                self.dropped_spans += 1
        stack.append(frame)
        frame[1] = self.clock()
        return frame

    def close(self, frame: list) -> None:
        """End the span opened as ``frame`` (the innermost open one)."""
        end = self.clock()
        stack = self._stack
        if not stack or stack[-1] is not frame:
            raise RuntimeError("tracer spans closed out of order")
        stack.pop()
        fn, start, child, span_id, parent_id, cell, req = frame
        dur = end - start
        own = dur - child
        self.calls[fn] += 1
        self.self_s[fn] += own
        self.incl_s[fn] += dur
        if stack:
            stack[-1][2] += dur
        flags = self._flags[fn]
        if flags:
            if flags & REQUEST:
                self._req_depth -= 1
            if flags & CELL:
                self._cell_depth -= 1
            if flags & TAGGED:
                tag = self._tags[fn]
                self._tag_depth[tag] -= 1
                if not self._tag_depth[tag]:
                    self.tag_outer_s[tag] = self.tag_outer_s.get(tag, 0.0) + dur
        if span_id >= 0:
            self.spans.append((span_id, parent_id, cell, req, fn, start, dur,
                               own))

    @property
    def depth(self) -> int:
        """Number of open spans."""
        return len(self._stack)

    # -- wrappers ----------------------------------------------------------

    def wrap(self, fn_index: int, func: Callable) -> Callable:
        """Timing wrapper around ``func`` (per ``next()`` for generators)."""
        open_, close = self.open, self.close

        if inspect.isgeneratorfunction(func):
            @functools.wraps(func)
            def gen_wrapper(*args, **kwargs):
                inner = func(*args, **kwargs)
                while True:
                    frame = open_(fn_index)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        close(frame)
                    yield item
            return gen_wrapper

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            frame = open_(fn_index)
            try:
                return func(*args, **kwargs)
            finally:
                close(frame)
        return wrapper

    # -- results -----------------------------------------------------------

    def by_function(self) -> list[dict]:
        """Aggregates of every function that was called at least once."""
        out = []
        for i, (layer, name, tag) in enumerate(self.functions):
            if self.calls[i]:
                out.append({"layer": layer, "name": name, "tag": tag,
                            "calls": self.calls[i], "self_s": self.self_s[i],
                            "incl_s": self.incl_s[i]})
        return out

    def by_layer(self) -> dict[str, dict]:
        """``{layer: {"calls", "self_s"}}`` summed over its functions."""
        out: dict[str, dict] = {}
        for i, (layer, _, _) in enumerate(self.functions):
            entry = out.setdefault(layer, {"calls": 0, "self_s": 0.0})
            entry["calls"] += self.calls[i]
            entry["self_s"] += self.self_s[i]
        return out

    def spans_payload(self) -> dict:
        """The kept spans in the layout of a ``*.spans.json`` file."""
        return {
            "format": "perf-spans/1",
            "fields": list(SPAN_FIELDS),
            "functions": [{"layer": layer, "name": name, "tag": tag}
                          for layer, name, tag in self.functions],
            "cells": self.cells,
            "keep_requests": self.keep_requests,
            "dropped_spans": self.dropped_spans,
            "spans": [[*s[:5], round((s[5] - self._t0) * 1e6, 3),
                       round(s[6] * 1e6, 3), round(s[7] * 1e6, 3)]
                      for s in sorted(self.spans)],
        }


def _patch(owner: Any, attr: str, tracer: Tracer, fn_index: int) -> Any:
    """Install the wrapper; returns the raw attribute to restore."""
    raw = owner.__dict__[attr] if inspect.isclass(owner) else getattr(owner, attr)
    if isinstance(raw, staticmethod):
        new: Any = staticmethod(tracer.wrap(fn_index, raw.__func__))
    elif isinstance(raw, classmethod):
        new = classmethod(tracer.wrap(fn_index, raw.__func__))
    elif callable(raw):
        new = tracer.wrap(fn_index, raw)
    else:
        raise TypeError(f"cannot trace {owner!r}.{attr}: not callable")
    setattr(owner, attr, new)
    return raw


@contextlib.contextmanager
def tracing(tracer: Tracer, targets: "list[Target]") -> Iterator[Tracer]:
    """Wrap every target for the duration of the ``with`` block.

    Each target is registered with ``tracer``; on exit (normal or not)
    every patched attribute is set back to the very object it held.
    """
    restore: list[tuple[Any, str, Any]] = []
    try:
        for target in targets:
            index = tracer.register(target.layer, target.name, target.flags,
                                    target.tag)
            raw = _patch(target.owner, target.attr, tracer, index)
            restore.append((target.owner, target.attr, raw))
        yield tracer
    finally:
        for owner, attr, raw in reversed(restore):
            setattr(owner, attr, raw)
