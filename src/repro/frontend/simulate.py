"""Replay through the device front-end: buffer + scheduler + FTL.

:class:`FrontendSimulator` is the front-end counterpart of
:class:`~repro.sim.simulator.Simulator`: same trace, same FTL, same
:class:`~repro.sim.timing.TimingModel` pricing on the same
:class:`~repro.sim.resources.ResourceSet` — but host requests pass
through the :class:`~repro.frontend.cache.WriteBuffer` and the
:class:`~repro.frontend.scheduler.MultiQueueScheduler` first:

* a **write** is absorbed into the buffer at dispatch time and
  acknowledged after the DRAM ack cost — unless the insert overflowed
  the buffer, in which case the request additionally waits for the
  pressure-flush spans it forced out (write backpressure is what makes
  queue depth matter);
* a **read** splits into buffer hits (DRAM cost) and misses (the FTL
  read path, chip/channel time reserved as usual);
* the periodic writeback sweep and the end-of-run drain destage in the
  background: their flash ops occupy the chips and delay later
  requests, but complete no host request;
* a power loss drops the dirty buffer contents (DRAM does not survive)
  *before* the mount scan runs — destaged-but-torn subpages follow the
  ordinary torn-page recovery, so a buffered write is either replayed
  from flash or dropped with the buffer, never duplicated.

Determinism: the FTL mutates in scheduler dispatch order, which is a
pure function of the submission history (see ``scheduler.py``); the
buffer is insertion-ordered.  Two replays of the same cell — including
across the parallel fan-out — are bit-identical.
"""

from __future__ import annotations

import math
import time

import numpy as np

from ..config import SSDConfig
from ..sim.ops import Cause, OpKind
from ..sim.resources import ResourceSet
from ..sim.simulator import (SimulationResult, _chunk_extents, _source_chunks,
                             collect_result)
from ..sim.timing import TimingModel
from ..traces.model import Trace
from ..units import Lsn, Ms
from .cache import WriteBuffer
from .config import FrontendConfig
from .scheduler import FrontRequest, MultiQueueScheduler

#: Op causes that complete a host request (same set the direct path uses).
_HOSTLIKE = (Cause.HOST, Cause.TRANSLATION)


class FrontendSimulator:
    """Replays traces through the write buffer and multi-queue scheduler."""

    def __init__(self, ftl, frontend: FrontendConfig,
                 config: SSDConfig | None = None):
        frontend.validate()
        self.ftl = ftl
        self.config = config if config is not None else ftl.config
        self.frontend = frontend
        self.geometry = ftl.geometry
        self.timing = TimingModel(self.config, ecc=ftl.ecc, rber=ftl.rber)
        self.resources = ResourceSet(self.geometry)
        self.pricer = self.timing.pricer(self.resources)
        self.buffer = WriteBuffer(frontend)
        #: The scheduler lives for the simulator's whole life (not per
        #: run) so a checkpoint pickled between chunks carries the
        #: in-flight heap and queue cursors with it.
        self.scheduler = MultiQueueScheduler(
            self.geometry.chips, frontend.queue_depth, self._issue)
        self._subpage_bits = self.geometry.subpage_size * 8
        #: Per-request response times, indexed by global request index.
        #: A growing python list (not a preallocated array): a request
        #: submitted in one chunk may complete during a later chunk's
        #: scheduler advance, so the storage must already cover every
        #: submitted index while growing chunk by chunk.
        self._latencies: list[float] = []
        self._is_write: list[bool] = []
        self._read_raw_errors = 0.0
        self._read_bits = 0
        #: Loop-carry state across feed() calls.
        self.n = 0
        self.now = 0.0
        faults_plan = getattr(ftl, "faults", None)
        self.next_power_loss = (faults_plan.next_power_loss(0.0)
                                if faults_plan is not None else math.inf)
        self._finished = False

    # -- destage ------------------------------------------------------------

    def _flush_span(self, span: "list[Lsn]", now: Ms) -> Ms:
        """Destage one buffer span through the FTL; returns the last end
        time among its ops (GC riding along included — a pressure-flushed
        writer waits for the whole eviction it forced)."""
        end = now
        reserve = self.pricer.reserve
        for op in self.ftl.handle_write(span, now):
            op_end = reserve(op, now)
            if op_end > end:
                end = op_end
        return end

    # -- scheduler issue callback --------------------------------------------

    def _issue(self, request: FrontRequest, issue_ms: Ms) -> Ms:
        """Run one dispatched request; returns its completion time."""
        index, arrival_ms, lsns, is_write = request
        if is_write:
            spans = self.buffer.write(lsns, issue_ms)
            complete = issue_ms + self.frontend.write_ack_ms
            for span in spans:
                end = self._flush_span(span, issue_ms)
                if end > complete:
                    complete = end
        else:
            hits, misses = self.buffer.split_read(lsns)
            complete = issue_ms + self.frontend.read_hit_ms if hits else issue_ms
            if misses:
                reserve = self.pricer.reserve
                ops = self.ftl.handle_read(misses, issue_ms)
                for op in ops:
                    if op.cause not in _HOSTLIKE:
                        continue
                    end = reserve(op, issue_ms)
                    if end > complete:
                        complete = end
                    if op.kind is OpKind.READ and op.cause is Cause.HOST:
                        self._read_raw_errors += op.raw_errors
                        self._read_bits += op.n_slots * self._subpage_bits
                for op in ops:
                    if op.cause not in _HOSTLIKE:
                        reserve(op, issue_ms)
        self._latencies[index] = complete - arrival_ms
        return complete

    # -- replay --------------------------------------------------------------

    def feed(self, trace: Trace) -> None:
        """Submit one chunk of requests through the front-end.

        Chunk boundaries are invisible to the simulation: requests
        in-flight at a boundary simply complete during a later chunk's
        scheduler advance (their latency slots already exist), so any
        chunking of a trace replays byte-identically to one whole-trace
        feed.  Call :meth:`finish` after the last chunk.
        """
        n = len(trace)
        base_index = self.n
        times = trace.times_ms.tolist()
        writes = trace.is_write.tolist()
        firsts, lasts = _chunk_extents(trace, self.geometry)
        self._latencies.extend([0.0] * n)
        self._is_write.extend(writes)

        ftl = self.ftl
        buffer = self.buffer
        # The buffer's dirty map, oldest entry first: the writeback sweep
        # is only called once its head has been dirty past the delay.
        entries = buffer._entries
        delay = buffer.delay_ms
        subpages_per_page = self.geometry.subpages_per_page
        n_chips = self.geometry.chips
        submit = self.scheduler.submit
        faults_plan = getattr(ftl, "faults", None)
        next_power_loss = self.next_power_loss
        now = self.now
        for i in range(n):
            now = times[i]
            while now >= next_power_loss:
                # DRAM dies first: dirty buffer contents are gone before
                # the mount scan repairs whatever reached the flash.
                buffer.drop_all()
                faults_plan.power_loss(ftl, next_power_loss, self.timing)
                next_power_loss = faults_plan.next_power_loss(next_power_loss)
            # Periodic writeback: destage entries past their delay in the
            # background (they occupy chips but complete no request).
            if entries and now - next(iter(entries.values())) >= delay:
                for span in buffer.expire(now):
                    self._flush_span(span, now)
            first = firsts[i]
            submit(FrontRequest(base_index + i, now,
                                list(range(first, lasts[i])), writes[i]),
                   (first // subpages_per_page) % n_chips, now)
        self.n = base_index + n
        self.now = now
        self.next_power_loss = next_power_loss

    def finish(self) -> None:
        """End of trace: run the queues dry, then destage what is left in
        the buffer so the flash holds the final image.  Idempotent."""
        if self._finished:
            return
        self._finished = True
        last_completion = self.scheduler.drain()
        drain_ms = last_completion if last_completion > self.now else self.now
        for span in self.buffer.drain():
            self._flush_span(span, drain_ms)

    def result(self, trace_name: str, wall_seconds: float = 0.0,
               ) -> SimulationResult:
        """Harvest the finished replay into a :class:`SimulationResult`."""
        latencies = np.asarray(self._latencies, dtype=np.float64)
        is_write = np.asarray(self._is_write, dtype=bool)
        n = self.n
        result = collect_result(
            self.ftl, self.config,
            trace_name=trace_name,
            n_requests=n,
            sim_time_ms=self.now,
            wall_seconds=wall_seconds,
            read_latencies=latencies[~is_write],
            write_latencies=latencies[is_write],
            read_raw_errors=self._read_raw_errors,
            read_bits=self._read_bits,
        )
        stats = self.buffer.stats
        result.cache_read_hits = stats.read_hits
        result.cache_read_misses = stats.read_misses
        result.merged_writes = stats.merged_writes
        result.coalesced_writes = stats.coalesced_writes
        result.flushes = stats.flushes
        result.flushed_subpages = stats.flushed_subpages
        result.dropped_subpages = stats.dropped_subpages
        result.frontend_queue_depth = self.frontend.queue_depth
        if n:
            result.lat_p50_ms = float(np.percentile(latencies, 50))
            result.lat_p90_ms = float(np.percentile(latencies, 90))
            result.lat_p99_ms = float(np.percentile(latencies, 99))
        return result

    def run(self, trace) -> SimulationResult:
        """Replay a :class:`Trace` or ``TraceStream`` end to end."""
        wall_start = time.perf_counter()
        name, chunks = _source_chunks(trace)
        for chunk in chunks:
            self.feed(chunk)
        self.finish()
        return self.result(name, wall_seconds=time.perf_counter() - wall_start)
