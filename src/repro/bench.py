"""Hot-path throughput harness (``repro-ssd bench``).

Measures host-side simulation speed — requests replayed per wall second —
for a grid of (trace, scheme) cells at one scale, optionally under
cProfile.  The numbers quantify the *simulator*, not the modelled device:
every modelled quantity (latencies, error counts, the Figure 12 scan
cost) is deterministic and unaffected by how fast Python happens to run.

The committed ``BENCH_hotpath.json`` at the repository root records the
reference throughput so each PR leaves a perf trajectory; ``--check``
compares a fresh run against it and fails on a relative regression
beyond ``--max-regression`` (CI runs this at smoke scale).  Cells are
compared by ops/sec ratio, so the check is only meaningful on hardware
comparable to the machine that wrote the baseline; regenerate with
``--update`` after intentional perf changes or on a new reference host.
"""

from __future__ import annotations

import cProfile
import io
import json
import platform
import pstats
import time
from pathlib import Path

#: Default measurement grid: one bursty trace (ts0) and one light one
#: (lun2) exercise the GC-heavy and the allocation-heavy paths.
DEFAULT_TRACES = ("ts0", "lun2")
DEFAULT_SCHEMES = ("baseline", "mga", "ipu")

#: Schemes additionally measured through the device front-end (write
#: buffer + multi-queue scheduler), as ``<scheme>+frontend`` cells, so
#: the front-end replay path sits under the same regression ratchet as
#: the direct path.
FRONTEND_SCHEMES = ("ipu",)

#: Cell-name suffix marking a front-end-enabled measurement.
FRONTEND_SUFFIX = "+frontend"

#: Committed reference file at the repository root.
BENCH_BASELINE = "BENCH_hotpath.json"


def _run_cell(trace_name: str, scheme: str, scale: str, seed: int,
              repeats: int) -> dict:
    """Best-of-``repeats`` wall time for one freshly-built cell.

    A scheme name ending in :data:`FRONTEND_SUFFIX` is replayed through
    :class:`~repro.frontend.simulate.FrontendSimulator` (write buffer +
    multi-queue scheduler enabled) instead of the direct path.
    """
    from .schemes import SCHEMES
    from .experiments.runner import RunContext
    from .sim.simulator import Simulator

    frontend = scheme.endswith(FRONTEND_SUFFIX)
    base_scheme = scheme[:-len(FRONTEND_SUFFIX)] if frontend else scheme
    ctx = RunContext(scale, seed)
    config = ctx.trace_config(trace_name)
    trace = ctx.trace(trace_name)
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        ftl = SCHEMES[base_scheme](config)
        if frontend:
            from .frontend.config import FrontendConfig
            from .frontend.simulate import FrontendSimulator
            sim = FrontendSimulator(ftl, FrontendConfig(enabled=True))
        else:
            sim = Simulator(ftl)
        t0 = time.perf_counter()
        result = sim.run(trace)
        best = min(best, time.perf_counter() - t0)
    assert result is not None
    return {
        "trace": trace_name,
        "scheme": scheme,
        "n_requests": result.n_requests,
        "wall_seconds": round(best, 6),
        "ops_per_sec": round(result.n_requests / best, 1),
    }


def environment_info() -> dict:
    """Interpreter/library/platform identity for cross-run comparability.

    Stored in the bench payload so a committed baseline records *where*
    its numbers were measured; the regression check stays ratio-based,
    but a mismatching environment explains a surprising ratio.
    """
    import numpy as np

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
        "machine": platform.machine(),
    }


def run_bench(scale: str = "smoke", seed: int = 1,
              traces: "tuple[str, ...]" = DEFAULT_TRACES,
              schemes: "tuple[str, ...]" = DEFAULT_SCHEMES,
              repeats: int = 3,
              frontend_schemes: "tuple[str, ...]" = FRONTEND_SCHEMES) -> dict:
    """Measure the full grid; returns the payload ``--json`` would write.

    ``frontend_schemes`` adds one ``<scheme>+frontend`` cell per trace,
    replayed through the device front-end; pass an empty tuple to
    measure the direct path only.  The aggregate covers direct cells
    only, so its trajectory stays comparable across baselines that
    added front-end cells later.
    """
    all_schemes = list(schemes) + [
        s + FRONTEND_SUFFIX for s in frontend_schemes if s in schemes]
    cells = [_run_cell(t, s, scale, seed, repeats)
             for t in traces for s in all_schemes]
    direct = [c for c in cells if not c["scheme"].endswith(FRONTEND_SUFFIX)]
    total_requests = sum(c["n_requests"] for c in direct)
    total_seconds = sum(c["wall_seconds"] for c in direct)
    return {
        "scale": scale,
        "seed": seed,
        "repeats": repeats,
        "environment": environment_info(),
        "cells": cells,
        "aggregate": {
            "n_requests": total_requests,
            "wall_seconds": round(total_seconds, 6),
            "ops_per_sec": round(total_requests / total_seconds, 1),
        },
    }


def profile_cell(trace_name: str, scheme: str, scale: str, seed: int,
                 top: int = 25) -> str:
    """One cell under cProfile; returns the top-``top`` tottime table."""
    from .schemes import SCHEMES
    from .experiments.runner import RunContext
    from .sim.simulator import Simulator

    frontend = scheme.endswith(FRONTEND_SUFFIX)
    base_scheme = scheme[:-len(FRONTEND_SUFFIX)] if frontend else scheme
    ctx = RunContext(scale, seed)
    ftl = SCHEMES[base_scheme](ctx.trace_config(trace_name))
    if frontend:
        from .frontend.config import FrontendConfig
        from .frontend.simulate import FrontendSimulator
        sim = FrontendSimulator(ftl, FrontendConfig(enabled=True))
    else:
        sim = Simulator(ftl)
    trace = ctx.trace(trace_name)
    profiler = cProfile.Profile()
    profiler.enable()
    sim.run(trace)
    profiler.disable()
    out = io.StringIO()
    pstats.Stats(profiler, stream=out).sort_stats("tottime").print_stats(top)
    return out.getvalue()


def compare_to_baseline(current: dict, baseline: dict,
                        max_regression: float = 0.30) -> "list[str]":
    """Regression report: one line per cell slower than allowed.

    A cell regresses when its ops/sec falls below
    ``(1 - max_regression)`` of the baseline cell; the aggregate is held
    to the same floor (a broad small slowdown can regress the aggregate
    without any single cell tripping); cells present on only one side
    are reported too (a silently dropped cell would otherwise hide a
    regression).  Empty list == pass.
    """
    failures: list[str] = []
    floor = 1.0 - max_regression
    base_agg = baseline.get("aggregate", {}).get("ops_per_sec")
    cur_agg = current.get("aggregate", {}).get("ops_per_sec")
    if base_agg and cur_agg:
        ratio = cur_agg / base_agg
        if ratio < floor:
            failures.append(
                f"aggregate: {cur_agg:.0f} ops/s vs baseline "
                f"{base_agg:.0f} (x{ratio:.2f} < x{floor:.2f})")
    base_cells = {(c["trace"], c["scheme"]): c for c in baseline.get("cells", [])}
    cur_cells = {(c["trace"], c["scheme"]): c for c in current.get("cells", [])}
    for key, base in sorted(base_cells.items()):
        cur = cur_cells.get(key)
        if cur is None:
            failures.append(f"{key[0]}/{key[1]}: missing from current run")
            continue
        ratio = cur["ops_per_sec"] / base["ops_per_sec"]
        if ratio < floor:
            failures.append(
                f"{key[0]}/{key[1]}: {cur['ops_per_sec']:.0f} ops/s vs "
                f"baseline {base['ops_per_sec']:.0f} "
                f"(x{ratio:.2f} < x{floor:.2f})")
    for key in sorted(set(cur_cells) - set(base_cells)):
        failures.append(f"{key[0]}/{key[1]}: not in baseline "
                        f"(regenerate with --update)")
    return failures


def load_baseline(path: "Path | str" = BENCH_BASELINE) -> dict:
    """Read a committed baseline payload."""
    with Path(path).open("r", encoding="utf-8") as fh:
        return json.load(fh)


def save_baseline(payload: dict, path: "Path | str" = BENCH_BASELINE) -> None:
    """Write the baseline payload (committed to the repository)."""
    with Path(path).open("w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
