"""Simulation orchestration for the experiment harnesses.

A :class:`RunContext` fixes the scale and the seed.  For each trace it

1. shrinks the trace to the scale's target request count,
2. **sizes the device to the trace** the way the paper's full-scale setup
   relates to the full traces: the SLC-mode cache comfortably holds the
   trace's *hot* working set (that residency is the premise of any SLC
   cache scheme — the paper's 3.4 GB cache dwarfs an MSR trace's hot set)
   while the cold stream overflows it, and the high-density region is
   sized tight against the written page footprint so eviction churn shows
   up as MLC garbage collection,
3. paces arrivals for a moderate device utilisation, so latency reflects
   contention without saturating the open-loop queues,
4. replays the trace against the requested scheme and memoises the
   :class:`~repro.sim.simulator.SimulationResult`.

A replay is one :class:`Cell`.  Besides the trace, scheme and P/E age, a
cell may override the device config or ask for a closed-loop replay at a
fixed queue depth; :meth:`RunContext.run` is the one place any of them
is simulated, so every cell goes through the on-disk result cache.

At ``paper`` scale the device is the fixed Table 2 configuration (65536
blocks, 5% SLC) and traces replay at full length instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, NamedTuple

from ..config import (
    CacheConfig,
    GeometryConfig,
    SCALES,
    SSDConfig,
    ScaleSpec,
    scaled_config,
)
from ..errors import ExperimentError
from ..sim.simulator import SimulationResult
from ..traces.model import Trace
from ..traces.profiles import TRACE_NAMES, TraceProfile, profile
from ..traces.synth import SyntheticTraceGenerator
from ..units import Ms
from .cache import ResultCache, cell_key as _cache_cell_key

if TYPE_CHECKING:
    from ..faults.config import FaultConfig
    from ..frontend.config import FrontendConfig

#: SLC cache size over the trace's hot-set bytes.
CACHE_OVER_HOTSET = 0.8
#: High-density capacity over the trace's written page footprint.
MLC_OVER_FOOTPRINT = 1.5
#: Minimum SLC blocks per plane (three level actives need room to rotate).
MIN_SLC_PER_PLANE = 1
#: Minimum SLC blocks in total.
MIN_SLC_BLOCKS = 20
#: Minimum MLC blocks per plane.
MIN_MLC_PER_PLANE = 4
#: Target device utilisation for arrival pacing.
TARGET_UTILIZATION = 0.18
#: Effective per-subpage write cost (SLC program + eviction read +
#: MLC program + amortised erase) used by the pacing estimate, in units
#: of (slc_write + transfer).
PACING_WRITE_AMP = 8.0
#: Pilot request count used to measure per-request footprint statistics.
PILOT_REQUESTS = 6_000

#: Scheme names in the paper's presentation order.
SCHEME_ORDER = ("baseline", "mga", "ipu")


def estimate_interarrival_ms(prof: TraceProfile, config: SSDConfig,
                             utilization: float = TARGET_UTILIZATION) -> Ms:
    """Mean inter-arrival time giving roughly the target chip utilisation."""
    t = config.timing
    subpage = config.geometry.subpage_size
    w_sub = max(1.0, prof.mean_write_bytes / subpage)
    r_sub = max(1.0, min(w_sub, 4.0))
    chip_ms_write = w_sub * (t.slc_write_ms + t.transfer_ms_per_subpage) * PACING_WRITE_AMP
    chip_ms_read = r_sub * (t.mlc_read_ms + t.transfer_ms_per_subpage + 0.03)
    per_req = prof.write_ratio * chip_ms_write + (1 - prof.write_ratio) * chip_ms_read
    chips = config.geometry.chips
    return max(0.02, per_req / (chips * utilization))


@functools.cache
def pilot_footprints(prof: TraceProfile, n_requests: int,
                     seed: int) -> tuple[float, float]:
    """``(hot-set bytes, page-footprint bytes)`` of ``n_requests``
    requests of ``prof``, estimated by the sizing pilot: a short
    generation whose extent table measures both, scaled to the full
    request count.  Pure, so memoised per process on its arguments."""
    pilot_n = max(1, min(PILOT_REQUESTS, n_requests))
    gen = SyntheticTraceGenerator(prof, n_requests=pilot_n, seed=seed)
    gen.generate()
    ext = gen.extents
    assert ext is not None
    scale_factor = n_requests / pilot_n
    page_size = GeometryConfig().page_size
    return (float(ext.sizes[ext.is_hot].sum()) * scale_factor,
            float(ext.page_footprint_bytes(page_size)) * scale_factor)


def sized_config(spec: ScaleSpec, hotset_bytes: float, page_fp: float,
                 seed: int) -> SSDConfig:
    """The validated device config of ``spec``'s parallelism whose SLC
    cache is ~``CACHE_OVER_HOTSET`` x ``hotset_bytes`` and whose
    high-density region is ~``MLC_OVER_FOOTPRINT`` x ``page_fp``."""
    base = GeometryConfig()
    slc_block_bytes = base.slc_pages_per_block * base.page_size
    mlc_block_bytes = base.mlc_pages_per_block * base.page_size
    planes = spec.channels * spec.chips_per_channel * spec.planes_per_chip
    slc_per_plane = max(
        MIN_SLC_PER_PLANE,
        math.ceil(max(MIN_SLC_BLOCKS, CACHE_OVER_HOTSET * hotset_bytes
                      / slc_block_bytes) / planes),
    )
    mlc_per_plane = max(
        MIN_MLC_PER_PLANE,
        math.ceil(MLC_OVER_FOOTPRINT * page_fp / mlc_block_bytes / planes),
    )
    blocks_per_plane = slc_per_plane + mlc_per_plane
    geometry = GeometryConfig(
        channels=spec.channels,
        chips_per_channel=spec.chips_per_channel,
        planes_per_chip=spec.planes_per_chip,
        total_blocks=blocks_per_plane * planes,
    )
    cache = replace(CacheConfig(), slc_ratio=slc_per_plane / blocks_per_plane)
    return SSDConfig(geometry=geometry, cache=cache, seed=seed).validate()


class Cell(NamedTuple):
    """The inputs of one replay, as :meth:`RunContext.run` takes them.

    ``config`` replaces the trace-sized device config (``pe`` still ages
    it); ``queue_depth`` replays closed-loop at that depth instead of at
    the trace timestamps.  ``None`` keeps the context's default for both.
    """

    trace: str
    scheme: str
    pe: int | None = None
    config: SSDConfig | None = None
    queue_depth: int | None = None


@dataclass
class RunContext:
    """Scale + seed + memoised results for one experiment session."""

    scale: str = "small"
    seed: int = 1
    #: Trace-length multiplier (the P/E sweep uses shorter runs).
    length_factor: float = 1.0
    #: Worker-process count for :meth:`run_cells`/:meth:`run_matrix`
    #: (None or 1 = sequential; 0 = one worker per CPU).
    jobs: int | None = None
    #: Optional shared on-disk result cache, consulted before any cell is
    #: simulated and populated after.
    cache: ResultCache | None = field(default=None, repr=False, compare=False)
    #: Optional fault-injection config (:mod:`repro.faults`).  A disabled
    #: config is canonicalised to ``None`` everywhere (cache keys, plan
    #: attachment), so rate-0 campaigns reproduce — and share cache
    #: entries with — ordinary fault-free runs bit-identically.
    faults: FaultConfig | None = None
    #: Optional device front-end config (:mod:`repro.frontend`).  Same
    #: canonicalisation contract as ``faults``: a disabled config is
    #: treated as ``None`` everywhere, so carrying one is bit-identical
    #: to — and shares cache entries with — the direct replay path.
    frontend: FrontendConfig | None = None
    #: Cells this context actually simulated (cache hits excluded) and the
    #: wall-clock seconds those replays took (the CLI summary line sums
    #: them over every context, see :func:`execution_summary`).
    executed_cells: int = field(default=0, compare=False)
    executed_seconds: float = field(default=0.0, compare=False)
    _results: dict = field(default_factory=dict, repr=False)
    _traces: dict = field(default_factory=dict, repr=False)
    _configs: dict = field(default_factory=dict, repr=False)

    @property
    def spec(self) -> ScaleSpec:
        """The resolved scale preset."""
        if self.scale not in SCALES:
            raise ExperimentError(
                f"unknown scale {self.scale!r}; available: {', '.join(SCALES)}")
        return SCALES[self.scale]

    def config(self, pe: int | None = None) -> SSDConfig:
        """A generic scaled configuration (not tied to a trace)."""
        cfg = scaled_config(self.spec, seed=self.seed)
        if pe is not None:
            cfg = cfg.with_pe_cycles(pe)
        return cfg

    # -- trace sizing -----------------------------------------------------

    def trace_requests(self, trace_name: str) -> int:
        """Request count for this scale (paper scale replays in full)."""
        prof = profile(trace_name)
        if self.scale == "paper":
            n = min(prof.n_requests, self.spec.max_requests)
        else:
            n = self.spec.target_requests
        n = int(n * self.length_factor)
        return max(1_000, min(self.spec.max_requests, n))

    def trace_config(self, trace_name: str, pe: int | None = None) -> SSDConfig:
        """Device configuration sized for this trace (memoised).

        SLC cache ~= ``CACHE_OVER_HOTSET`` x hot-set bytes; high-density
        region ~= ``MLC_OVER_FOOTPRINT`` x written page footprint.  The
        paper scale skips auto-sizing and uses Table 2 verbatim.
        """
        key = (trace_name, pe)
        if key not in self._configs:
            if self.scale == "paper":
                cfg = self.config()
            else:
                hotset_bytes, page_fp = pilot_footprints(
                    profile(trace_name), self.trace_requests(trace_name),
                    self.seed)
                cfg = sized_config(self.spec, hotset_bytes, page_fp, self.seed)
            self._configs[key] = cfg if pe is None else cfg.with_pe_cycles(pe)
        return self._configs[key]

    def trace(self, trace_name: str) -> Trace:
        """The (memoised) synthetic trace for this context."""
        if trace_name not in self._traces:
            prof = profile(trace_name)
            cfg = self.trace_config(trace_name)
            gen = SyntheticTraceGenerator(
                prof,
                n_requests=self.trace_requests(trace_name),
                seed=self.seed,
                mean_interarrival_ms=estimate_interarrival_ms(prof, cfg),
            )
            self._traces[trace_name] = gen.generate()
        return self._traces[trace_name]

    # -- simulation --------------------------------------------------------------

    def _active_faults(self) -> FaultConfig | None:
        """The fault config when it can actually fire, else ``None``."""
        faults = self.faults
        if faults is None or not faults.enabled:
            return None
        return faults

    def _active_frontend(self) -> FrontendConfig | None:
        """The front-end config when enabled, else ``None``."""
        frontend = self.frontend
        if frontend is None or not frontend.enabled:
            return None
        return frontend

    def _cell_config(self, trace_name: str, pe: int | None = None,
                    config: SSDConfig | None = None) -> SSDConfig:
        """The device config a cell replays on: ``config`` when given,
        else the trace-sized one; ``pe`` ages either."""
        if config is None:
            return self.trace_config(trace_name, pe)
        return config.with_pe_cycles(pe) if pe is not None else config

    def cell_key(self, trace_name: str, scheme: str, pe: int | None = None,
                 config: SSDConfig | None = None,
                 queue_depth: int | None = None) -> str:
        """Content hash identifying one simulation cell for the on-disk
        cache: canonicalised config + trace parameters + scheme + replay
        driver + context identity (see
        :func:`repro.experiments.cache.cell_key`)."""
        prof = profile(trace_name)
        faults = self._active_faults()
        frontend = self._active_frontend()
        return _cache_cell_key(
            self._cell_config(trace_name, pe, config), prof,
            self.trace_requests(trace_name),
            estimate_interarrival_ms(prof, self.trace_config(trace_name)),
            scheme, self.scale, self.seed, self.length_factor, pe,
            faults=faults.to_dict() if faults is not None else None,
            frontend=frontend.to_dict() if frontend is not None else None,
            queue_depth=queue_depth)

    def _check_cell(self, cell: Cell) -> None:
        if cell.queue_depth is not None and self._active_frontend() is not None:
            raise ExperimentError(
                "queue_depth= asks for a closed-loop replay, but this "
                "context replays through the front-end; set the depth "
                "with FrontendConfig.from_qd instead")

    def _lookup(self, cell: Cell) -> SimulationResult | None:
        """The memoised or cached result of ``cell``, else ``None``."""
        result = self._results.get(cell)
        if result is None and self.cache is not None:
            result = self.cache.get(self.cell_key(*cell),
                                    SimulationResult.from_dict)
            if result is not None:
                self._results[cell] = result
        return result

    def _record(self, cell: Cell, result: SimulationResult) -> SimulationResult:
        """Memoise a freshly simulated cell and count it."""
        self.executed_cells += 1
        self.executed_seconds += result.wall_seconds
        _EXECUTED["cells"] += 1
        _EXECUTED["seconds"] += result.wall_seconds
        self._results[cell] = result
        return result

    def _simulate(self, cell: Cell) -> SimulationResult:
        """Replay ``cell`` in this process and store the result."""
        from ..faults.plan import attach_faults
        from ..schemes import SCHEMES
        from ..sim.simulator import Simulator

        ftl = SCHEMES[cell.scheme](
            self._cell_config(cell.trace, cell.pe, cell.config))
        attach_faults(ftl, self._active_faults(), seed=self.seed)
        trace = self.trace(cell.trace)
        frontend = self._active_frontend()
        if frontend is not None:
            from ..frontend.simulate import FrontendSimulator
            result = FrontendSimulator(ftl, frontend).run(trace)
        elif cell.queue_depth is not None:
            result = Simulator(ftl).run_closed(
                trace, queue_depth=cell.queue_depth)
        else:
            result = Simulator(ftl).run(trace)
        if self.cache is not None:
            self.cache.put(self.cell_key(*cell), result.to_dict())
        return self._record(cell, result)

    def run(self, trace_name: str, scheme: str, pe: int | None = None, *,
            config: SSDConfig | None = None,
            queue_depth: int | None = None) -> SimulationResult:
        """Replay ``trace_name`` under ``scheme`` (memoised and cached).

        ``config`` overrides the trace-sized device config and
        ``queue_depth`` replays closed-loop (:meth:`Simulator.run_closed`)
        instead of at the trace timestamps; both are part of the cell's
        cache key.
        """
        cell = Cell(trace_name, scheme, pe, config, queue_depth)
        self.run_cells([cell])
        return self._results[cell]

    def run_cells(self, cells, jobs: int | None = None) -> None:
        """Memoise every cell, in parallel.

        ``cells`` are :class:`Cell` tuples, or plain ``(trace, scheme,
        pe[, config[, queue_depth]])`` tuples.  Cells already memoised
        are skipped; cells present in the on-disk cache are restored
        in-process (counted as hits); only the remainder fans out over
        worker processes.  With one worker, or one cell left, the
        remainder replays in this process.
        """
        from . import parallel
        cells = [Cell(*c) for c in cells]
        for cell in cells:
            self._check_cell(cell)
        jobs = jobs if jobs is not None else self.jobs
        n_workers = parallel.resolve_jobs(jobs) if jobs is not None else 1
        pending = [c for c in dict.fromkeys(cells) if self._lookup(c) is None]
        if not pending:
            return
        # Imported on a miss only: SCHEMES loads every FTL, a hit none.
        from ..schemes import SCHEMES
        for cell in pending:
            if cell.scheme not in SCHEMES:
                raise ExperimentError(
                    f"unknown scheme {cell.scheme!r}; available: "
                    f"{', '.join(SCHEMES)}")
        if n_workers <= 1 or len(pending) <= 1:
            for cell in pending:
                self._simulate(cell)
            return
        cache_dir = str(self.cache.root) if self.cache is not None else None
        faults = self._active_faults()
        frontend = self._active_frontend()
        specs = [
            parallel.CellSpec(scale=self.scale, seed=self.seed,
                              trace=c.trace, scheme=c.scheme, pe=c.pe,
                              length_factor=self.length_factor,
                              cache_dir=cache_dir, faults=faults,
                              frontend=frontend, config=c.config,
                              queue_depth=c.queue_depth)
            for c in pending
        ]
        for cell, payload in zip(pending, parallel.run_cells(specs, n_workers)):
            self._record(cell, SimulationResult.from_dict(payload))

    def run_matrix(self, traces: "tuple[str, ...] | None" = None,
                   schemes: "tuple[str, ...]" = SCHEME_ORDER,
                   pe: int | None = None, jobs: int | None = None,
                   ) -> dict[tuple[str, str], SimulationResult]:
        """Replay every (trace, scheme) pair; returns results keyed by pair."""
        names = traces if traces is not None else TRACE_NAMES
        self.run_cells([(t, s, pe) for t in names for s in schemes], jobs=jobs)
        return {
            (t, s): self._results[Cell(t, s, pe)]
            for t in names
            for s in schemes
        }


#: Shared contexts per ``(scale, seed, length_factor)``: ``run-all``
#: regenerates every figure from one simulation sweep, and the P/E sweep
#: shares its shortened-trace context the same way.
_DEFAULT_CONTEXTS: dict[tuple[str, int, float], RunContext] = {}

#: Cells simulated in this process by any context, shared or not, since
#: the last :func:`configure_execution`, and their replay wall seconds.
_EXECUTED: dict = {"cells": 0, "seconds": 0.0}

#: Execution settings applied to every context created via
#: :func:`new_context` / :func:`default_context`.
_EXEC_DEFAULTS: dict = {"jobs": None, "cache": None}

_UNSET = object()


def configure_execution(jobs=_UNSET, cache=_UNSET) -> None:
    """Set the process-wide parallelism / cache defaults.

    Applies both to contexts created from now on and to the already
    memoised shared contexts, so ``--jobs``/``--cache-dir`` reach the
    builders no matter which order figures run in.  Also restarts the
    :func:`execution_summary` cell count, so each CLI invocation reports
    its own.
    """
    _EXECUTED.update(cells=0, seconds=0.0)
    for ctx in _DEFAULT_CONTEXTS.values():
        if jobs is not _UNSET:
            ctx.jobs = jobs
        if cache is not _UNSET:
            ctx.cache = cache
    if jobs is not _UNSET:
        _EXEC_DEFAULTS["jobs"] = jobs
    if cache is not _UNSET:
        _EXEC_DEFAULTS["cache"] = cache


def new_context(scale: str = "small", seed: int = 1,
                length_factor: float = 1.0) -> RunContext:
    """A context carrying the process-wide execution defaults."""
    return RunContext(scale=scale, seed=seed, length_factor=length_factor,
                      jobs=_EXEC_DEFAULTS["jobs"],
                      cache=_EXEC_DEFAULTS["cache"])


def default_context(scale: str = "small", seed: int = 1,
                    length_factor: float = 1.0) -> RunContext:
    """Process-wide memoised context per ``(scale, seed, length_factor)``."""
    key = (scale, seed, length_factor)
    if key not in _DEFAULT_CONTEXTS:
        _DEFAULT_CONTEXTS[key] = new_context(scale, seed, length_factor)
    return _DEFAULT_CONTEXTS[key]


def execution_summary() -> dict:
    """Cell and cache counters since the last :func:`configure_execution`
    (the numbers behind the CLI summary line).

    ``executed_cells`` counts every cell any :class:`RunContext`
    simulated, so when every context shares the process-wide cache it
    equals that cache's misses.
    """
    cache = _EXEC_DEFAULTS["cache"]
    return {
        "executed_cells": _EXECUTED["cells"],
        "executed_seconds": _EXECUTED["seconds"],
        "cache_hits": cache.stats.hits if cache is not None else 0,
        "cache_misses": cache.stats.misses if cache is not None else 0,
        "cache_stores": cache.stats.stores if cache is not None else 0,
        "cache_dir": str(cache.root) if cache is not None else None,
    }
