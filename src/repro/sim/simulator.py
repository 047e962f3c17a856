"""Trace replay: drive an FTL scheme over a trace and collect metrics.

Three drivers share one request path (:class:`ReplayCore`) and differ
only in when a request issues: at its trace timestamp
(:class:`OpenLoopReplay`), when the request ``queue_depth`` before it
completes (:class:`ClosedLoopReplay`), or when the device front-end's
scheduler dispatches it (:class:`repro.frontend.simulate.FrontendSimulator`).
At issue the FTL runs synchronously (state changes in issue order, like a
device command queue), the returned operations are priced and reserve
chip/channel resources in issue order, and the request's response time is
the completion of its last host-serving operation.  GC and wear-levelling
operations occupy the resources — delaying later requests — but do not
count toward the triggering request's own host ops.
"""

from __future__ import annotations

import gc
import math
import time
from dataclasses import dataclass, field, fields

import numpy as np

from ..config import SSDConfig
from ..errors import SimulationError
from ..record import Record
from ..traces.model import Trace
from ..units import Ms
from .ops import Cause, OpKind
from .resources import ResourceSet
from .timing import TimingModel


def _no_latencies() -> np.ndarray:
    return np.empty(0, dtype=np.float64)


@dataclass
class SimulationResult(Record):
    """Everything a replay produces; feeds every figure of the evaluation.

    The :class:`~repro.record.Record` codec carries it through the result
    cache: latency arrays become base64 strings of their float64 bytes
    and the ``level_writes`` keys strings, and a payload from another
    result schema raises :class:`SimulationError` naming the field (the
    cache counts it as a miss).
    """

    error_type = SimulationError

    #: Fields that depend on host wall-clock time rather than on the
    #: simulated device, and therefore differ between two replays of the
    #: same cell.  Determinism checks and cache-equality comparisons must
    #: ignore them (see :meth:`deterministic_dict`).
    NONDETERMINISTIC_FIELDS = ("wall_seconds", "gc_scan_seconds")

    scheme: str
    trace_name: str
    n_requests: int
    sim_time_ms: Ms
    wall_seconds: float

    #: Per-request response times (ms), split by direction.
    read_latencies: np.ndarray = field(repr=False, default_factory=_no_latencies)
    write_latencies: np.ndarray = field(repr=False, default_factory=_no_latencies)

    #: Read-error metric: expected raw bit errors / bits, over host reads.
    read_raw_errors: float = 0.0
    read_bits: int = 0

    erases_slc: int = 0
    erases_mlc: int = 0
    programs_slc: int = 0
    programs_mlc: int = 0
    partial_programs: int = 0
    disturbed_valid_subpages: int = 0

    host_programs_slc: int = 0
    host_programs_mlc: int = 0
    gc_programs_slc: int = 0
    gc_programs_mlc: int = 0
    host_subpages_slc: int = 0
    host_subpages_mlc: int = 0
    gc_subpages_slc: int = 0
    gc_subpages_mlc: int = 0
    level_writes: dict[int, int] = field(default_factory=dict)
    intra_page_updates: int = 0
    upgrade_moves: int = 0
    new_data_writes: int = 0
    update_writes: int = 0
    slc_overflow_chunks: int = 0
    evicted_subpages_to_mlc: int = 0

    slc_gc_collections: int = 0
    slc_page_utilization: float = 0.0
    mlc_gc_collections: int = 0
    gc_scan_seconds: float = 0.0
    gc_scans: int = 0
    #: Candidate blocks examined across all SLC victim selections — the
    #: deterministic, modelled scan-work counter behind Figure 12 (host
    #: wall time ``gc_scan_seconds`` is only a diagnostic).
    gc_scan_blocks: int = 0

    slc_wear_spread: int = 0
    mlc_wear_spread: int = 0
    mapping_table_bytes: int = 0
    metadata_bytes: int = 0

    # Cached-mapping-table counters (repro.ftl.translation).  All zero —
    # and bit-identical to pre-CMT results — unless the config enabled
    # demand-paged translation.
    cmt_lookups: int = 0
    cmt_hits: int = 0
    cmt_misses: int = 0
    cmt_writebacks: int = 0

    # Fault-injection degradation counters (repro.faults).  All zero —
    # and bit-identical to pre-fault results — unless a FaultPlan was
    # attached to the FTL.
    read_faults: int = 0
    read_retries: int = 0
    uncorrectable_reads: int = 0
    fault_relocations: int = 0
    program_failures: int = 0
    erase_failures: int = 0
    retired_blocks: int = 0
    power_loss_events: int = 0
    torn_subpages: int = 0
    recovered_subpages: int = 0
    recovery_ms: Ms = 0.0

    # Device front-end counters (repro.frontend).  All zero — and
    # bit-identical to front-end-less results — unless the replay went
    # through FrontendSimulator.
    cache_read_hits: int = 0
    cache_read_misses: int = 0
    merged_writes: int = 0
    coalesced_writes: int = 0
    flushes: int = 0
    flushed_subpages: int = 0
    dropped_subpages: int = 0
    #: Scheduler queue depth of the front-end replay (0 = direct path).
    frontend_queue_depth: int = 0
    #: Response-time percentiles over all requests (front-end replays
    #: only; the direct path keeps the full latency arrays instead).
    lat_p50_ms: Ms = 0.0
    lat_p90_ms: Ms = 0.0
    lat_p99_ms: Ms = 0.0

    # Fleet provenance (repro.fleet).  ``-1`` — and bit-identical to
    # pre-fleet results — unless the result came out of a fleet device
    # cell, in which case they record which device produced it and the
    # last fleet epoch it covers.
    fleet_device: int = -1
    fleet_epoch: int = -1

    def __eq__(self, other: object) -> bool:
        """Field-wise equality, comparing the latency arrays by value."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        for f in fields(self):
            mine, theirs = getattr(self, f.name), getattr(other, f.name)
            if isinstance(mine, np.ndarray):
                if not np.array_equal(mine, theirs):
                    return False
            elif mine != theirs:
                return False
        return True

    # -- headline metrics -------------------------------------------------

    @property
    def avg_latency_ms(self) -> Ms:
        """Mean response time over all requests (Figure 5's headline)."""
        total = len(self.read_latencies) + len(self.write_latencies)
        if total == 0:
            return 0.0
        return float(self.read_latencies.sum() + self.write_latencies.sum()) / total

    @property
    def avg_read_latency_ms(self) -> Ms:
        """Mean read response time."""
        return float(self.read_latencies.mean()) if len(self.read_latencies) else 0.0

    @property
    def avg_write_latency_ms(self) -> Ms:
        """Mean write response time."""
        return float(self.write_latencies.mean()) if len(self.write_latencies) else 0.0

    @property
    def read_error_rate(self) -> float:
        """Expected raw bit errors per bit read (Figures 8 and 14)."""
        return self.read_raw_errors / self.read_bits if self.read_bits else 0.0

    @property
    def cmt_hit_ratio(self) -> float:
        """Fraction of CMT lookups served from cached translation pages
        (1.0 without lookups, as ``TranslationStats.hit_ratio``)."""
        return self.cmt_hits / self.cmt_lookups if self.cmt_lookups else 1.0

    def summary(self) -> dict[str, float]:
        """Flat summary for reports."""
        return {
            "scheme": self.scheme,
            "trace": self.trace_name,
            "requests": self.n_requests,
            "avg_latency_ms": self.avg_latency_ms,
            "avg_read_latency_ms": self.avg_read_latency_ms,
            "avg_write_latency_ms": self.avg_write_latency_ms,
            "read_error_rate": self.read_error_rate,
            "erases_slc": self.erases_slc,
            "erases_mlc": self.erases_mlc,
            "slc_page_utilization": self.slc_page_utilization,
            "mapping_table_bytes": self.mapping_table_bytes,
            "gc_scan_seconds": self.gc_scan_seconds,
        }

    # -- serialisation ----------------------------------------------------

    def deterministic_dict(self) -> dict:
        """:meth:`to_dict` minus host-wall-clock fields.

        Two replays of the same ``(config, trace, scheme, seed)`` cell —
        sequential, parallel or cache-restored — must agree on this dict
        exactly.
        """
        out = self.to_dict()
        for name in self.NONDETERMINISTIC_FIELDS:
            out.pop(name, None)
        return out


def _chunk_extents(trace: Trace, geometry) -> "tuple[list[int], list[int]]":
    """Per-request ``[first, last)`` LSN bounds of one whole chunk.

    Vectorized :meth:`Geometry.byte_range_to_lsns`: a replay touches
    every request, so the extent arithmetic (two integer divisions per
    request) runs once per chunk instead of once per call.  A bad extent
    raises the scalar path's error.
    """
    offsets = np.asarray(trace.offsets)
    sizes = np.asarray(trace.sizes)
    if len(offsets) and (offsets.min() < 0 or sizes.min() <= 0):
        # Defer to the scalar path for the message.
        for offset, size in zip(offsets.tolist(), sizes.tolist()):
            geometry.byte_range_to_lsns(offset, size)
    subpage_size = geometry.subpage_size
    firsts = (offsets // subpage_size).tolist()
    lasts = ((offsets + sizes - 1) // subpage_size + 1).tolist()
    return firsts, lasts


def _source_chunks(source) -> "tuple[str, object]":
    """``(name, iterable-of-Trace-chunks)`` for a trace or stream.

    An in-memory :class:`Trace` becomes a single whole-trace chunk —
    *not* sliced — so the historical one-shot replay path runs exactly
    one ``feed()`` over exactly the arrays it always ran over.
    """
    if isinstance(source, Trace):
        return source.name, (source,)
    chunks = getattr(source, "chunks", None)
    if chunks is None:
        raise SimulationError(
            f"cannot replay {type(source).__name__}: expected a Trace or "
            f"a TraceStream with a chunks() method")
    return source.name, chunks()


#: Op causes that complete the request that issued them; GC and
#: wear-levelling ops run behind these.
_HOSTLIKE = (Cause.HOST, Cause.TRANSLATION)


class ReplayCore:
    """What the replay drivers share; each subclass adds an admission rule.

    The checkpointable unit of :mod:`repro.fleet`: everything a paused
    replay needs to continue bit-identically lives on the driver — the
    FTL (and through it the flash arrays and any fault plan), the
    chip/channel resource clocks and the pricer bound to them, and the
    explicit loop-carry state (request count, simulated clock, power-loss
    horizon, the running raw-bit-error accumulator whose float addition
    order must not change).  Pickling the driver therefore *is* the
    checkpoint payload.

    A subclass's ``feed()`` admits one chunk's requests and sends each
    through :meth:`_serve`.  Chunk boundaries are invisible to the
    simulation, so any chunking of a trace yields byte-identical results
    to one whole-trace feed.  Latencies accumulate per chunk and can be
    drained between feeds (:meth:`drain_window`) for epoch-windowed
    metrics.
    """

    def __init__(self, ftl, config: SSDConfig | None = None,
                 timing: TimingModel | None = None,
                 resources: ResourceSet | None = None, observer=None):
        self.ftl = ftl
        self.config = config if config is not None else ftl.config
        self.timing = (timing if timing is not None
                       else TimingModel(self.config))
        self.resources = (resources if resources is not None
                          else ResourceSet(ftl.geometry))
        self.pricer = self.timing.pricer(self.resources)
        #: Optional callable ``(request_index, now_ms)`` invoked after each
        #: request is serviced (e.g. a metrics TimelineRecorder).
        self.observer = observer
        self._subpage_bits = ftl.geometry.subpage_size * 8

        # Loop-carry state.
        self.n = 0
        self.now = 0.0
        self.read_raw_errors = 0.0
        self.read_bits = 0
        plan = getattr(ftl, "faults", None)
        # One float compare per request when power loss is disabled.
        self.next_power_loss = (plan.next_power_loss(0.0)
                                if plan is not None else math.inf)
        # Per-chunk latency/direction arrays since the last drain.
        self._window_lat: list[np.ndarray] = []
        self._window_iw: list[np.ndarray] = []
        # Drained windows, kept so result() still covers the whole run.
        self._done_lat: list[np.ndarray] = []
        self._done_iw: list[np.ndarray] = []

    def _serve(self, ops, now: Ms, complete: Ms, host_read: bool) -> Ms:
        """Reserve one request's ops from ``now``; returns its completion.

        Host-serving ops reserve the chips first and the request completes
        with the last of them (no earlier than ``complete``); GC and
        wear-levelling traffic runs behind them (background GC), delaying
        later requests rather than this one.  With ``host_read`` the host
        reads count toward the read-error metric.
        """
        reserve = self.pricer.reserve
        for op in ops:
            if op.cause not in _HOSTLIKE:
                continue
            end = reserve(op, now)
            if end > complete:
                complete = end
            if (host_read and op.kind is OpKind.READ
                    and op.cause is Cause.HOST):
                self.read_raw_errors += op.raw_errors
                self.read_bits += op.n_slots * self._subpage_bits
        for op in ops:
            if op.cause not in _HOSTLIKE:
                reserve(op, now)
        return complete

    def _power_loss(self, now: Ms) -> Ms:
        """Strike every power loss due by ``now``; returns the next one.

        Power loss and mount recovery happen while the device is off: they
        advance the fault stats (and ``recovery_ms``) but reserve no chip
        time against in-flight requests.
        """
        ftl = self.ftl
        plan = ftl.faults
        horizon = self.next_power_loss
        while now >= horizon:
            self._power_off()
            plan.power_loss(ftl, horizon, self.timing)
            horizon = plan.next_power_loss(horizon)
        self.next_power_loss = horizon
        return horizon

    def _power_off(self) -> None:
        """Drop what does not survive a power loss, before the mount scan
        runs (nothing here: the drivers hold no volatile data)."""

    def _record_window(self, latencies: np.ndarray, is_write) -> None:
        """Add one chunk's latency/direction arrays to the open window."""
        if len(latencies):
            self._window_lat.append(latencies)
            self._window_iw.append(np.asarray(is_write))

    def drain_window(self) -> tuple[np.ndarray, np.ndarray]:
        """Pop the ``(latencies, is_write)`` accumulated since last drain.

        Epoch-windowed campaigns call this between feeds so per-epoch
        latency distributions come out without holding the whole run's
        arrays; the popped windows still count toward the result.
        """
        lat = (np.concatenate(self._window_lat) if self._window_lat
               else np.zeros(0, dtype=np.float64))
        iw = (np.concatenate(self._window_iw) if self._window_iw
              else np.zeros(0, dtype=bool))
        self._done_lat.extend(self._window_lat)
        self._done_iw.extend(self._window_iw)
        self._window_lat = []
        self._window_iw = []
        return lat, iw

    def _result(self, trace_name: str, wall_seconds: float,
                sim_time_ms: Ms) -> SimulationResult:
        """Harvest the run so far; ``sim_time_ms`` is the driver's clock.

        The one place the FTL/flash/GC counters are collected, so the
        drivers can never drift in which statistics they report.  Fault
        counters stay at their zero defaults without a fault plan, which
        keeps fault-free results bit-identical to the pre-fault schema's.
        """
        parts_lat = self._done_lat + self._window_lat
        parts_iw = self._done_iw + self._window_iw
        latencies = (np.concatenate(parts_lat) if parts_lat
                     else np.zeros(0, dtype=np.float64))
        is_write = (np.concatenate(parts_iw) if parts_iw
                    else np.zeros(0, dtype=bool))
        ftl = self.ftl
        flash = ftl.flash
        stats = ftl.stats
        result = SimulationResult(
            scheme=ftl.scheme_name,
            trace_name=trace_name,
            n_requests=self.n,
            sim_time_ms=sim_time_ms,
            wall_seconds=wall_seconds,
            read_latencies=latencies[~is_write],
            write_latencies=latencies[is_write],
            read_raw_errors=self.read_raw_errors,
            read_bits=self.read_bits,
            erases_slc=flash.erases_slc,
            erases_mlc=flash.erases_mlc,
            programs_slc=flash.programs_slc,
            programs_mlc=flash.programs_mlc,
            partial_programs=flash.partial_programs,
            disturbed_valid_subpages=flash.disturbed_valid_subpages,
            host_programs_slc=stats.host_programs_slc,
            host_programs_mlc=stats.host_programs_mlc,
            gc_programs_slc=stats.gc_programs_slc,
            gc_programs_mlc=stats.gc_programs_mlc,
            host_subpages_slc=stats.host_subpages_slc,
            host_subpages_mlc=stats.host_subpages_mlc,
            gc_subpages_slc=stats.gc_subpages_slc,
            gc_subpages_mlc=stats.gc_subpages_mlc,
            level_writes=dict(stats.level_writes),
            intra_page_updates=stats.intra_page_updates,
            upgrade_moves=stats.upgrade_moves,
            new_data_writes=stats.new_data_writes,
            update_writes=stats.update_writes,
            slc_overflow_chunks=stats.slc_overflow_chunks,
            evicted_subpages_to_mlc=stats.evicted_subpages_to_mlc,
            slc_gc_collections=ftl.slc_gc.stats.collections,
            slc_page_utilization=ftl.slc_gc.stats.page_utilization,
            mlc_gc_collections=ftl.mlc_gc.stats.collections,
            gc_scan_seconds=ftl.slc_gc.policy.scan_seconds,
            gc_scans=ftl.slc_gc.policy.scans,
            gc_scan_blocks=getattr(ftl.slc_gc.policy, "scanned_blocks", 0),
            slc_wear_spread=ftl.slc_wear.spread,
            mlc_wear_spread=ftl.mlc_wear.spread,
        )
        from ..metrics.memory import mapping_breakdown
        breakdown = mapping_breakdown(ftl.scheme_name, self.config)
        result.mapping_table_bytes = breakdown.mapping_bytes
        result.metadata_bytes = breakdown.metadata_bytes
        cmt = getattr(ftl, "cmt", None)
        if cmt is not None:
            result.cmt_lookups = cmt.stats.lookups
            result.cmt_hits = cmt.stats.hits
            result.cmt_misses = cmt.stats.misses
            result.cmt_writebacks = cmt.stats.writebacks
        plan = getattr(ftl, "faults", None)
        if plan is not None:
            s = plan.stats
            result.read_faults = s.read_faults
            result.read_retries = s.read_retries
            result.uncorrectable_reads = s.uncorrectable_reads
            result.fault_relocations = s.fault_relocations
            result.program_failures = s.program_failures
            result.erase_failures = s.erase_failures
            result.retired_blocks = s.retired_blocks
            result.power_loss_events = s.power_loss_events
            result.torn_subpages = s.torn_subpages
            result.recovered_subpages = s.recovered_subpages
            result.recovery_ms = s.recovery_ms
        return result

    def feed(self, trace: Trace) -> None:
        """Admit and serve one chunk (the subclass's admission rule)."""
        raise NotImplementedError

    def finish(self) -> None:
        """End of input: complete what is still in flight.  The open and
        closed loops serve each request inside its own ``feed()``."""

    def result(self, trace_name: str, wall_seconds: float = 0.0,
               ) -> SimulationResult:
        """Harvest the run so far into a :class:`SimulationResult`."""
        raise NotImplementedError

    def run(self, trace) -> SimulationResult:
        """Replay a :class:`Trace` or ``TraceStream`` end to end.

        One :meth:`feed` per chunk, then :meth:`finish` and the harvest;
        this is the one place a replay reads the host clock.
        """
        wall_start = time.perf_counter()
        name, chunks = _source_chunks(trace)
        for chunk in chunks:
            self.feed(chunk)
        self.finish()
        return self.result(name, wall_seconds=time.perf_counter() - wall_start)


class OpenLoopReplay(ReplayCore):
    """Open-loop replay: each request issues at its trace timestamp."""

    def feed(self, trace: Trace) -> None:
        """Replay one chunk (absolute timestamps, arrival order)."""
        n = len(trace)
        latencies = np.zeros(n, dtype=np.float64)
        ftl = self.ftl
        serve = self._serve
        handle_write = ftl.handle_write
        handle_read = ftl.handle_read
        observer = self.observer
        next_power_loss = self.next_power_loss
        base_index = self.n

        times = trace.times_ms.tolist()
        writes = trace.is_write.tolist()
        firsts, lasts = _chunk_extents(trace, ftl.geometry)
        now = self.now
        for i in range(n):
            now = times[i]
            if now >= next_power_loss:
                next_power_loss = self._power_loss(now)
            lsns = list(range(firsts[i], lasts[i]))
            if writes[i]:
                complete = serve(handle_write(lsns, now), now, now, False)
            else:
                complete = serve(handle_read(lsns, now), now, now, True)
            latencies[i] = complete - now
            if observer is not None:
                observer(base_index + i, now)

        self.n = base_index + n
        self.now = now
        self._record_window(latencies, trace.is_write)

    def result(self, trace_name: str, wall_seconds: float = 0.0,
               ) -> SimulationResult:
        """Harvest the run so far; its clock is the last arrival."""
        return self._result(trace_name, wall_seconds, self.now)


class ClosedLoopReplay(ReplayCore):
    """Closed-loop replay: a fixed queue depth, no timestamps.

    Request ``i`` issues when request ``i - queue_depth`` completes, and
    power losses strike at issue times, which stand in for arrivals.  The
    extra carry state is the completion ring of the last ``queue_depth``
    requests and the running maximum completion time (completions are not
    monotonic, so the final ``sim_time_ms`` must be carried, not
    recomputed).
    """

    def __init__(self, ftl, queue_depth: int = 8,
                 config: SSDConfig | None = None,
                 timing: TimingModel | None = None,
                 resources: ResourceSet | None = None,
                 observer=None):
        if queue_depth < 1:
            raise SimulationError(
                f"queue_depth must be >= 1, got {queue_depth}")
        super().__init__(ftl, config, timing, resources, observer)
        self.queue_depth = queue_depth
        self.max_completion = 0.0
        #: Completions of the last ``queue_depth`` requests, oldest first.
        self.ring: list[float] = []

    def feed(self, trace: Trace) -> None:
        """Replay one chunk at the fixed queue depth."""
        n = len(trace)
        latencies = np.zeros(n, dtype=np.float64)
        queue_depth = self.queue_depth
        ring = self.ring
        max_completion = self.max_completion
        ftl = self.ftl
        serve = self._serve
        handle_write = ftl.handle_write
        handle_read = ftl.handle_read
        observer = self.observer
        next_power_loss = self.next_power_loss
        base_index = self.n
        now = self.now

        writes = trace.is_write.tolist()
        firsts, lasts = _chunk_extents(trace, ftl.geometry)
        for i in range(n):
            if len(ring) >= queue_depth:
                head = ring.pop(0)
                if head > now:
                    now = head
            if now >= next_power_loss:
                next_power_loss = self._power_loss(now)
            lsns = list(range(firsts[i], lasts[i]))
            if writes[i]:
                complete = serve(handle_write(lsns, now), now, now, False)
            else:
                complete = serve(handle_read(lsns, now), now, now, True)
            ring.append(complete)
            if complete > max_completion:
                max_completion = complete
            latencies[i] = complete - now
            if observer is not None:
                observer(base_index + i, now)

        self.n = base_index + n
        self.now = now
        self.max_completion = max_completion
        self._record_window(latencies, trace.is_write)

    def result(self, trace_name: str, wall_seconds: float = 0.0,
               ) -> SimulationResult:
        """Harvest the run so far; its clock is the last completion."""
        return self._result(trace_name, wall_seconds,
                            self.max_completion if self.n else 0.0)


class Simulator:
    """Replays traces (or trace streams) against one FTL instance."""

    def __init__(self, ftl, config: SSDConfig | None = None,
                 observer=None):
        self.ftl = ftl
        self.config = config if config is not None else ftl.config
        #: Optional callable ``(request_index, now_ms)`` invoked after each
        #: request is serviced (e.g. a metrics TimelineRecorder).
        self.observer = observer
        self.geometry = ftl.geometry
        self.timing = TimingModel(self.config)
        #: The chip/channel clocks every replay of this simulator reserves.
        self.resources = ResourceSet(self.geometry)

    def run(self, trace) -> SimulationResult:
        """Replay a :class:`Trace` or ``TraceStream`` open-loop.

        A stream is replayed chunk by chunk (:class:`OpenLoopReplay`):
        only one chunk's request columns are ever resident, and the
        results are byte-identical to a materialised replay of the same
        requests.
        """
        # The replay allocates heavily (one record per physical op) but
        # creates no reference cycles; pausing the cyclic collector for
        # the loop avoids its periodic full-heap scans.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            return OpenLoopReplay(
                self.ftl, self.config, self.timing, self.resources,
                self.observer).run(trace)
        finally:
            if gc_was_enabled:
                gc.enable()

    def run_closed(self, trace, queue_depth: int = 8) -> SimulationResult:
        """Closed-loop replay: ignore trace timestamps and keep at most
        ``queue_depth`` requests outstanding.

        The standard alternative to open-loop timestamp replay — it
        measures the device's sustainable behaviour rather than its
        response to a fixed arrival process.  Request ``i`` issues when
        request ``i - queue_depth`` completes (FTL state still mutates in
        issue order, as on a real command queue).  Accepts streams under
        the same chunking contract as :meth:`run`.
        """
        return ClosedLoopReplay(
            self.ftl, queue_depth, self.config, self.timing, self.resources,
            self.observer).run(trace)


def replay(ftl, trace: Trace, config: SSDConfig | None = None) -> SimulationResult:
    """One-shot convenience: build a simulator and run a trace."""
    return Simulator(ftl, config).run(trace)
