"""Parallel fan-out: worker-process replay must be bit-identical to the
sequential path, and the on-disk cache must short-circuit re-runs."""

from __future__ import annotations

import dataclasses
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SCHEMES as FTLS
from repro.config import TranslationConfig
from repro.errors import ExperimentError
from repro.experiments.cache import MAGIC, ResultCache
from repro.experiments.parallel import CellSpec, resolve_jobs, run_cells, simulate_cell
from repro.experiments.runner import Cell, RunContext
from repro.frame import read_frame, write_frame
from repro.frontend import FrontendConfig
from repro.sim import Simulator
from repro.sim.simulator import SimulationResult

#: Short cells keep the fan-out affordable: the smoke scale floors the
#: trace at 1000 requests under this length factor.
FAST = dict(scale="smoke", seed=7, length_factor=0.25)

SCHEMES = ("baseline", "mga", "ipu")


class TestResolveJobs:
    def test_explicit_value_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "7")
        assert resolve_jobs(3) == 3

    def test_env_fallback(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "5")
        assert resolve_jobs(None) == 5

    def test_auto_is_cpu_count(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        expected = max(1, os.cpu_count() or 1)
        assert resolve_jobs(None) == expected
        assert resolve_jobs(0) == expected
        assert resolve_jobs(-4) == expected


class TestDifferentialDeterminism:
    def test_parallel_matches_sequential(self):
        """Baseline/MGA/IPU through a real worker pool == sequential,
        field for field (wall-clock fields excluded)."""
        par = RunContext(jobs=2, **FAST)
        seq = RunContext(**FAST)
        matrix = par.run_matrix(traces=("ts0",), schemes=SCHEMES)
        for scheme in SCHEMES:
            expect = seq.run("ts0", scheme).deterministic_dict()
            got = matrix[("ts0", scheme)].deterministic_dict()
            assert got == expect, f"{scheme}: parallel result diverged"

    def test_worker_entry_point_is_deterministic(self):
        """Two cold worker invocations of the same spec agree exactly."""
        spec = CellSpec(trace="ts0", scheme="ipu", **FAST)
        a, b = simulate_cell(spec), simulate_cell(spec)
        for d in (a, b):
            for name in ("wall_seconds", "gc_scan_seconds"):
                d.pop(name)
        assert a == b

    def test_run_cells_preserves_spec_order(self):
        specs = [CellSpec(trace="ts0", scheme=s, **FAST) for s in SCHEMES]
        payloads = run_cells(specs, jobs=2)
        assert [p["scheme"] for p in payloads] == list(SCHEMES)


def _reframe(path, body: "bytes | None" = None, **header) -> None:
    """Rewrite the entry at ``path`` under a correct digest, with its
    header fields (and payload, if given) replaced."""
    old, payload = read_frame(path.read_bytes(), MAGIC)
    del old["payload_sha256"]
    write_frame(path, MAGIC, {**old, **header},
                payload if body is None else body)


def _flip_payload_byte(path) -> None:
    raw = bytearray(path.read_bytes())
    raw[-2] ^= 0x01
    path.write_bytes(bytes(raw))


#: Ways an on-disk entry of the ts0/ipu cell can be damaged or foreign.
ENTRY_DAMAGES = {
    "not-utf8": lambda path: path.write_bytes(b"\xff\xfe\xfd" * 20),
    "truncated": lambda path: path.write_bytes(
        path.read_bytes()[:path.stat().st_size // 2]),
    "flipped-byte": _flip_payload_byte,
    "schema-7": lambda path: _reframe(path, schema=7),
    "other-cell": lambda path: _reframe(
        path, key=RunContext(**FAST).cell_key("ts0", "mga")),
    "deep-json": lambda path: _reframe(
        path, body=b"[" * 100_000 + b"]" * 100_000),
}


@pytest.fixture(scope="module")
def ipu_entry(tmp_path_factory):
    """``(key, entry bytes, result)`` of the cached ts0/ipu cell."""
    cache = ResultCache(tmp_path_factory.mktemp("entry"))
    ctx = RunContext(cache=cache, **FAST)
    result = ctx.run("ts0", "ipu")
    key = ctx.cell_key("ts0", "ipu")
    return key, cache.path_for(key).read_bytes(), result


class TestCacheIntegration:
    def test_warm_context_simulates_nothing(self, tmp_path):
        cache = ResultCache(tmp_path)
        cold = RunContext(cache=cache, **FAST)
        cold.run("ts0", "ipu")
        assert cold.executed_cells == 1
        assert cache.stats.misses == 1 and cache.stats.stores == 1

        warm = RunContext(cache=cache, **FAST)
        r = warm.run("ts0", "ipu")
        assert warm.executed_cells == 0
        assert cache.stats.hits == 1
        assert (r.deterministic_dict()
                == cold.run("ts0", "ipu").deterministic_dict())

    def test_parallel_workers_populate_cache(self, tmp_path):
        cache = ResultCache(tmp_path)
        ctx = RunContext(jobs=2, cache=cache, **FAST)
        ctx.run_matrix(traces=("ts0",), schemes=SCHEMES)
        assert ctx.executed_cells == len(SCHEMES)
        # One entry per cell, and one for ts0's sizing-pilot fact.
        assert len(cache) == len(SCHEMES) + 1

        warm = RunContext(jobs=2, cache=ResultCache(tmp_path), **FAST)
        warm.run_matrix(traces=("ts0",), schemes=SCHEMES)
        assert warm.executed_cells == 0

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ResultCache(tmp_path)
        ctx = RunContext(cache=cache, **FAST)
        key = ctx.cell_key("ts0", "ipu")
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("{not json")
        r = ctx.run("ts0", "ipu")
        assert ctx.executed_cells == 1
        assert r.n_requests > 0
        # The torn entry was replaced by a good one.
        assert ResultCache(tmp_path).get(key) is not None

    @pytest.mark.parametrize("damage", [
        lambda p: {**p, "sim_time_ms": "oops", "n_requests": "200"},
        lambda p: {k: v for k, v in p.items() if k != "scheme"},
        lambda p: [1, 2],
    ], ids=["mistyped", "no-scheme", "list"])
    def test_bad_payload_is_a_replaced_miss(self, tmp_path, damage):
        """A well-framed entry whose payload is not a well-typed result is
        never served: the decoder rejects it, it counts as a miss and the
        fresh replay replaces it."""
        fresh = RunContext(**FAST).run("ts0", "ipu")
        cache = ResultCache(tmp_path)
        ctx = RunContext(cache=cache, **FAST)
        key = ctx.cell_key("ts0", "ipu")
        ResultCache(tmp_path).put(key, damage(fresh.to_dict()))
        r = ctx.run("ts0", "ipu")
        assert ctx.executed_cells == 1
        assert r.deterministic_dict() == fresh.deterministic_dict()
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.stores) == (0, 1, 1)
        stored = ResultCache(tmp_path).get(key, SimulationResult.from_dict)
        assert stored.deterministic_dict() == fresh.deterministic_dict()

    @pytest.mark.parametrize("damage", ENTRY_DAMAGES.values(),
                             ids=ENTRY_DAMAGES.keys())
    def test_damaged_entry_is_a_replaced_miss(self, tmp_path, damage,
                                              ipu_entry):
        """A damaged entry, or one framed for another schema or cell,
        neither crashes the read nor is served: it counts as a miss, is
        deleted, and the fresh replay replaces it."""
        key, valid, fresh = ipu_entry
        path = ResultCache(tmp_path).path_for(key)
        path.parent.mkdir(parents=True)
        path.write_bytes(valid)
        damage(path)
        probe = ResultCache(tmp_path)
        assert probe.get(key, SimulationResult.from_dict) is None
        assert probe.stats.misses == 1 and not path.exists()

        path.write_bytes(valid)
        damage(path)
        cache = ResultCache(tmp_path)
        ctx = RunContext(cache=cache, **FAST)
        r = ctx.run("ts0", "ipu")
        assert ctx.executed_cells == 1
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.stores) == (0, 1, 1)
        assert r.deterministic_dict() == fresh.deterministic_dict()
        stored = ResultCache(tmp_path).get(key, SimulationResult.from_dict)
        assert stored.deterministic_dict() == fresh.deterministic_dict()

    def test_clear_removes_orphaned_temp_files(self, tmp_path):
        """A writer killed between its temp file and the rename leaves a
        ``.tmp`` file: ``clear`` removes it, and only entries count."""
        cache = ResultCache(tmp_path)
        cache.put("ab" * 32, {"x": 1})
        orphan = tmp_path / "cd" / "tmpk1ll3d.tmp"
        orphan.parent.mkdir()
        orphan.write_bytes(b"half a fra")
        assert len(cache) == 1
        assert cache.clear() == 1
        assert not orphan.exists() and len(cache) == 0

    def test_store_racing_a_clear_is_dropped(self, tmp_path, monkeypatch):
        """A ``clear`` that deletes a live writer's temp file before its
        rename drops that one store; the writer does not crash."""
        cache = ResultCache(tmp_path)
        replace = os.replace

        def clear_then_replace(src, dst):
            cache.clear()
            replace(src, dst)

        monkeypatch.setattr(os, "replace", clear_then_replace)
        cache.put("ab" * 32, {"x": 1})
        assert cache.stats.stores == 0 and len(cache) == 0


@st.composite
def damaged_bytes(draw, raw: bytes) -> bytes:
    """``raw`` truncated, or with one byte set to any value."""
    if draw(st.booleans()):
        return raw[:draw(st.integers(0, len(raw)))]
    at = draw(st.integers(0, len(raw) - 1))
    return raw[:at] + bytes([draw(st.integers(0, 255))]) + raw[at + 1:]


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_entry_reads_as_a_miss_or_the_same_result(data):
    """Any truncation or single-byte change of a valid entry reads as a
    counted miss that deletes it, or as the identical result; the read
    never raises and never yields another result."""
    result = SimulationResult(
        "ipu", "ts0", 3, 2.5, 0.01, read_latencies=np.array([0.25, -0.0]),
        write_latencies=np.array([5e-324]), level_writes={1: 2})
    key = "ab" * 32
    with tempfile.TemporaryDirectory() as root:
        cache = ResultCache(root)
        cache.put(key, result.to_dict())
        path = cache.path_for(key)
        path.write_bytes(data.draw(damaged_bytes(path.read_bytes())))
        got = cache.get(key, SimulationResult.from_dict)
        if got is None:
            assert cache.stats.misses == 1 and not path.exists()
        else:
            assert got == result and cache.stats.hits == 1


def cmt_config(ctx: RunContext):
    """The ts0 trace config with a small CMT enabled (a config override)."""
    return dataclasses.replace(
        ctx.trace_config("ts0"),
        translation=TranslationConfig(enabled=True, entries_per_page=256,
                                      cache_pages=4))


class TestCellInputs:
    """Closed-loop depth and config overrides are ordinary cell inputs."""

    def test_cell_key_separates_drivers_depths_and_configs(self):
        ctx = RunContext(**FAST)
        keys = [ctx.cell_key("ts0", "ipu"),
                ctx.cell_key("ts0", "ipu", queue_depth=4),
                ctx.cell_key("ts0", "ipu", queue_depth=8),
                ctx.cell_key("ts0", "ipu", config=cmt_config(ctx)),
                ctx.cell_key("ts0", "ipu", config=cmt_config(ctx),
                             queue_depth=4)]
        assert len(set(keys)) == len(keys)
        # An override equal to the trace-sized config is the same cell.
        assert (ctx.cell_key("ts0", "ipu", config=ctx.trace_config("ts0"))
                == ctx.cell_key("ts0", "ipu"))

    def test_closed_loop_cell_matches_direct_replay(self):
        ctx = RunContext(**FAST)
        ftl = FTLS["mga"](ctx.trace_config("ts0"))
        direct = Simulator(ftl).run_closed(ctx.trace("ts0"), queue_depth=4)
        got = ctx.run("ts0", "mga", queue_depth=4)
        assert got.deterministic_dict() == direct.deterministic_dict()
        assert (got.deterministic_dict()
                != ctx.run("ts0", "mga").deterministic_dict())

    def test_config_cell_matches_direct_replay(self):
        ctx = RunContext(**FAST)
        cfg = cmt_config(ctx)
        direct = Simulator(FTLS["ipu"](cfg)).run(ctx.trace("ts0"))
        got = ctx.run("ts0", "ipu", config=cfg)
        assert got.deterministic_dict() == direct.deterministic_dict()

    def test_parallel_matches_sequential(self):
        cfg = cmt_config(RunContext(**FAST))
        cells = [("ts0", "ipu", None, None, 4), ("ts0", "mga", None, cfg)]
        seq = RunContext(**FAST)
        par = RunContext(jobs=2, **FAST)
        seq.run_cells(cells, jobs=1)
        par.run_cells(cells, jobs=2)
        assert seq.executed_cells == par.executed_cells == len(cells)
        for cell in (Cell(*c) for c in cells):
            inputs = dict(config=cell.config, queue_depth=cell.queue_depth)
            assert (par.run(cell.trace, cell.scheme, **inputs).deterministic_dict()
                    == seq.run(cell.trace, cell.scheme, **inputs).deterministic_dict())

    def test_warm_cache_serves_new_inputs(self, tmp_path):
        cfg = cmt_config(RunContext(**FAST))
        cells = [("ts0", "ipu", None, None, 4), ("ts0", "mga", None, cfg)]
        RunContext(jobs=2, cache=ResultCache(tmp_path), **FAST).run_cells(cells)
        cache = ResultCache(tmp_path)
        warm = RunContext(cache=cache, **FAST)
        warm.run_cells(cells)
        assert warm.executed_cells == 0
        assert cache.stats.hits == len(cells) and cache.stats.misses == 0

    def test_queue_depth_rejected_with_frontend(self):
        ctx = RunContext(**FAST)
        ctx.frontend = FrontendConfig.from_qd(4)
        with pytest.raises(ExperimentError, match="closed-loop"):
            ctx.run("ts0", "ipu", queue_depth=4)


class TestExecutionDefaults:
    def test_configure_execution_reaches_shared_contexts(self, tmp_path):
        from repro.experiments import runner

        before_jobs = runner._EXEC_DEFAULTS["jobs"]
        before_cache = runner._EXEC_DEFAULTS["cache"]
        try:
            cache = ResultCache(tmp_path)
            runner.configure_execution(jobs=3, cache=cache)
            ctx = runner.default_context("smoke", seed=99)
            assert ctx.jobs == 3 and ctx.cache is cache
            # Existing memoised contexts are updated too.
            runner.configure_execution(jobs=None, cache=None)
            assert ctx.jobs is None and ctx.cache is None
        finally:
            runner.configure_execution(jobs=before_jobs, cache=before_cache)
            runner._DEFAULT_CONTEXTS.pop(("smoke", 99, 1.0), None)
