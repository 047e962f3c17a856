"""Span arithmetic, request/cell ids and attribute restoration."""

import inspect

import pytest

from layers import build_targets
from tracer import CELL, REQUEST, Target, Tracer, tracing


class FakeClock:
    """Returns 0, 1, 2, ... seconds on successive calls."""

    def __init__(self):
        self.now = -1.0

    def __call__(self):
        self.now += 1.0
        return self.now


class Toy:
    def outer(self, n):
        for _ in range(n):
            self.inner()
        return n

    def inner(self):
        return 1

    def boom(self):
        self.inner()
        raise ValueError("boom")

    def stream(self, n):
        for i in range(n):
            self.inner()
            yield i


def toy_targets(flags=None):
    flags = flags or {}
    return [Target("a", Toy, name, flags.get(name, 0))
            for name in ("outer", "inner", "boom", "stream")]


def rows(tracer):
    return {row["name"]: row for row in tracer.by_function()}


def test_nested_self_time_excludes_children():
    tracer = Tracer(clock=FakeClock())
    with tracing(tracer, toy_targets()):
        assert Toy().outer(2) == 2
    got = rows(tracer)
    # Clock ticks: outer opens at 0, inner 1..2, inner 3..4, outer closes 5.
    assert got["Toy.inner"]["calls"] == 2
    assert got["Toy.inner"]["incl_s"] == 2.0
    assert got["Toy.outer"]["incl_s"] == 5.0
    assert got["Toy.outer"]["self_s"] == 3.0
    # Self times partition the outermost span.
    assert sum(r["self_s"] for r in got.values()) == got["Toy.outer"]["incl_s"]
    assert tracer.depth == 0


def test_raising_call_closes_its_span():
    tracer = Tracer(clock=FakeClock())
    with tracing(tracer, toy_targets()):
        with pytest.raises(ValueError):
            Toy().boom()
        Toy().inner()
    got = rows(tracer)
    assert tracer.depth == 0
    assert got["Toy.boom"]["calls"] == 1
    assert got["Toy.boom"]["incl_s"] == 3.0
    assert got["Toy.boom"]["self_s"] == 2.0
    assert got["Toy.inner"]["calls"] == 2


def test_generator_is_timed_per_next():
    tracer = Tracer(clock=FakeClock())
    with tracing(tracer, toy_targets()):
        assert list(Toy().stream(2)) == [0, 1]
    got = rows(tracer)
    # Two yields plus the final resumption that raises StopIteration.
    assert got["Toy.stream"]["calls"] == 3
    assert got["Toy.inner"]["calls"] == 2
    assert got["Toy.stream"]["self_s"] + got["Toy.inner"]["self_s"] == \
        got["Toy.stream"]["incl_s"]


def test_requests_and_cells_number_spans():
    tracer = Tracer(keep_requests=2, clock=FakeClock())
    targets = toy_targets({"outer": CELL, "inner": REQUEST})
    with tracing(tracer, targets):
        Toy().outer(3)
        Toy().outer(1)
    assert tracer.requests == 4
    assert [c["entry"] for c in tracer.cells] == ["Toy.outer", "Toy.outer"]
    payload = tracer.spans_payload()
    fields = payload["fields"]
    kept = [dict(zip(fields, s)) for s in payload["spans"]]
    # Cell 0 keeps requests 0 and 1 only; cell 1 keeps its request 0.
    assert sorted((s["cell"], s["req"]) for s in kept
                  if s["fn"] == 1) == [(0, 0), (0, 1), (1, 0)]
    outer_ids = {s["id"] for s in kept if s["fn"] == 0}
    assert all(s["parent"] in outer_ids for s in kept if s["fn"] == 1)


def _raw_attrs(targets):
    return [(t.owner, t.attr,
             t.owner.__dict__[t.attr] if inspect.isclass(t.owner)
             else getattr(t.owner, t.attr)) for t in targets]


def test_every_wrapped_attribute_is_restored():
    targets = build_targets()
    before = _raw_attrs(targets)
    with pytest.raises(RuntimeError):
        with tracing(Tracer(), targets):
            for owner, attr, raw in before:
                current = (owner.__dict__[attr] if inspect.isclass(owner)
                           else getattr(owner, attr))
                assert current is not raw
            raise RuntimeError("leave the block abnormally")
    for (owner, attr, raw), (_, _, now) in zip(before, _raw_attrs(targets)):
        assert now is raw, f"{owner}.{attr} not restored"


def test_targets_cover_every_layer():
    from layers import LAYERS

    assert {t.layer for t in build_targets()} == set(LAYERS)
