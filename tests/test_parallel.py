"""Parallel fan-out: worker-process replay must be bit-identical to the
sequential path, and the on-disk cache must short-circuit re-runs."""

from __future__ import annotations

import dataclasses
import json
import os

import pytest

from repro import SCHEMES as FTLS
from repro.config import TranslationConfig
from repro.errors import ExperimentError
from repro.experiments.cache import ResultCache
from repro.experiments.parallel import CellSpec, resolve_jobs, run_cells, simulate_cell
from repro.experiments.runner import Cell, RunContext
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
        assert len(cache) == len(SCHEMES)

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
        """A parseable entry that is not a well-typed result is never
        served: it counts as a miss and the fresh replay replaces it."""
        fresh = RunContext(**FAST).run("ts0", "ipu")
        cache = ResultCache(tmp_path)
        ctx = RunContext(cache=cache, **FAST)
        path = cache.path_for(ctx.cell_key("ts0", "ipu"))
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(damage(fresh.to_dict())))
        r = ctx.run("ts0", "ipu")
        assert ctx.executed_cells == 1
        assert r.deterministic_dict() == fresh.deterministic_dict()
        assert (cache.stats.hits, cache.stats.misses,
                cache.stats.stores) == (0, 1, 1)
        stored = SimulationResult.from_dict(json.loads(path.read_text()))
        assert stored.deterministic_dict() == fresh.deterministic_dict()


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
