"""Parallel execution of independent simulation cells.

Every artifact decomposes into ``(trace, scheme, scale, seed, P/E)``
cells — some with a device-config override or a closed-loop queue
depth — whose replays share no state: the synthetic trace, the device
configuration and the FTL are all rebuilt deterministically from the cell
description.  That makes the fan-out embarrassingly parallel — each
worker process reconstructs a fresh :class:`~repro.experiments.runner.RunContext`
from the spec, replays its one cell, and ships the serialised
:class:`~repro.sim.simulator.SimulationResult` back to the parent, which
folds it into the ordinary memo.  No RNG state crosses process
boundaries, so parallel and sequential execution are bit-identical
(``tests/test_parallel.py`` asserts this).

Workers consult and populate the shared on-disk
:class:`~repro.experiments.cache.ResultCache` themselves (writes are
atomic), so a warm cache short-circuits inside the worker too.
"""

from __future__ import annotations

import functools
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable

if TYPE_CHECKING:
    from ..config import SSDConfig
    from ..faults.config import FaultConfig
    from ..fleet.config import FleetConfig
    from ..frontend.config import FrontendConfig

__all__ = ["CellSpec", "FleetDeviceSpec", "resolve_jobs", "run_cells",
           "simulate_cell", "simulate_fleet_device"]


def resolve_jobs(jobs: "int | str | None" = None) -> int:
    """Resolve a ``--jobs`` / ``REPRO_JOBS`` setting to a worker count.

    ``None`` falls back to the ``REPRO_JOBS`` environment variable and
    then to :func:`os.cpu_count`; ``0`` (or anything non-positive) means
    "auto", i.e. :func:`os.cpu_count` as well.
    """
    if jobs is None:
        env = os.environ.get("REPRO_JOBS", "").strip()
        jobs = int(env) if env else 0
    jobs = int(jobs)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    return max(1, jobs)


@dataclass(frozen=True)
class CellSpec:
    """Everything a worker needs to replay one cell from scratch.

    Primitives and frozen :class:`~repro.record.Record` configs, which
    pickle exactly, so the worker-side reconstruction goes through
    exactly the same code path a sequential run uses.
    """

    scale: str
    seed: int
    trace: str
    scheme: str
    pe: int | None = None
    length_factor: float = 1.0
    #: Root of the shared on-disk result cache (None = no cache).
    cache_dir: str | None = None
    #: Fault config of a fault campaign (None = no injection).
    faults: FaultConfig | None = None
    #: Front-end config of a front-end replay (None = direct path).
    frontend: FrontendConfig | None = None
    #: Device config override (None = the trace-sized config).
    config: SSDConfig | None = None
    #: Closed-loop queue depth (None = open-loop timestamp replay).
    queue_depth: int | None = None


def simulate_cell(spec: CellSpec) -> dict:
    """Worker entry point: replay one cell, return its serialised result."""
    from .cache import ResultCache
    from .runner import RunContext

    cache = ResultCache(spec.cache_dir) if spec.cache_dir else None
    ctx = RunContext(scale=spec.scale, seed=spec.seed,
                     length_factor=spec.length_factor, cache=cache,
                     faults=spec.faults, frontend=spec.frontend)
    return ctx.run(spec.trace, spec.scheme, pe=spec.pe, config=spec.config,
                   queue_depth=spec.queue_depth).to_dict()


def run_cells(specs: "list[Any]", jobs: "int | None" = None,
              worker: "Callable[[Any], Any]" = simulate_cell) -> list:
    """Run ``worker`` over many specs, fanning out over worker processes.

    Results come back in spec order.  With one worker process (or one
    spec) the calls run inline — no pool, no pickling — which keeps the
    single-CPU path identical to the historical sequential runner.
    ``worker`` is :func:`simulate_cell` for a list of :class:`CellSpec`
    and :func:`simulate_fleet_device` for a list of
    :class:`FleetDeviceSpec`.
    """
    specs = list(specs)
    n_workers = min(resolve_jobs(jobs), len(specs))
    if n_workers <= 1:
        return [worker(spec) for spec in specs]
    # Imported here: a run whose cells all hit the cache never fans out.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=n_workers) as pool:
        return list(pool.map(worker, specs))


@dataclass(frozen=True)
class FleetDeviceSpec:
    """One fleet device cell, under the same rule as :class:`CellSpec`:
    the worker runs the device exactly as the sequential path would."""

    #: The campaign the device belongs to.
    fleet: FleetConfig
    #: Device index within the fleet.
    device: int
    #: Root of the shared on-disk result cache (None = no cache).
    cache_dir: str | None = None
    #: Root of the checkpoint store (None = no snapshots, no resume).
    checkpoint_dir: str | None = None
    #: Snapshot after every N completed epochs (0 = only when stopping).
    checkpoint_every: int = 0
    #: Save a snapshot and stop before this epoch (None = run to end).
    stop_after_epoch: int | None = None


def simulate_fleet_device(spec: FleetDeviceSpec) -> "dict | None":
    """Worker entry point: run one fleet device, return its payload.

    The cache is consulted before — and populated after — the replay, so
    a warm cache short-circuits inside the worker just like
    :func:`simulate_cell` does; an entry that is not this device's
    payload is a miss.  Returns ``None`` when the run stopped early at
    ``stop_after_epoch`` (the snapshot holds the progress).
    """
    from ..fleet.runner import check_device_payload, run_device
    from .cache import ResultCache

    cfg = spec.fleet
    cache = ResultCache(spec.cache_dir) if spec.cache_dir else None
    key = cfg.device_key(spec.device)
    if cache is not None and spec.stop_after_epoch is None:
        hit = cache.get(key, functools.partial(
            check_device_payload, cfg, spec.device))
        if hit is not None:
            return hit
    payload = run_device(cfg, spec.device,
                         checkpoint_dir=spec.checkpoint_dir,
                         checkpoint_every=spec.checkpoint_every,
                         stop_after_epoch=spec.stop_after_epoch)
    if cache is not None and payload is not None:
        cache.put(key, payload)
    return payload
