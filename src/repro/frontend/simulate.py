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
  read path, served by the same request path as the direct replays,
  :meth:`~repro.sim.simulator.ReplayCore._serve`);
* the periodic writeback sweep and the end-of-run drain destage in the
  background: their flash ops occupy the chips and delay later
  requests, but complete no host request (a destage reserves every op
  in FTL order and waits on all of them, so it is not ``_serve``);
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

import numpy as np

from ..config import SSDConfig
from ..errors import SimulationError
from ..sim.simulator import ReplayCore, SimulationResult
from ..traces.model import Trace
from ..units import Lsn, Ms
from .cache import WriteBuffer
from .config import FrontendConfig
from .scheduler import FrontRequest, MultiQueueScheduler


def _refuse_issue(request: FrontRequest, issue_ms: Ms) -> Ms:
    """The scheduler's issue callback once its replay has finished."""
    raise SimulationError("the front-end replay has finished; no request "
                          "can issue")


class FrontendSimulator(ReplayCore):
    """Replays traces through the write buffer and multi-queue scheduler."""

    def __init__(self, ftl, frontend: FrontendConfig,
                 config: SSDConfig | None = None):
        frontend.validate()
        super().__init__(ftl, config)
        self.frontend = frontend
        self.geometry = ftl.geometry
        self.buffer = WriteBuffer(frontend)
        #: The scheduler lives for the simulator's whole life (not per
        #: run) so a checkpoint pickled between chunks carries the
        #: in-flight heap and queue cursors with it.
        self.scheduler = MultiQueueScheduler(
            self.geometry.chips, frontend.queue_depth, self._issue)
        #: Per-request response times, indexed by global request index.
        #: A growing python list (not a per-chunk array): a request
        #: submitted in one chunk may complete during a later chunk's
        #: scheduler advance, so the storage must already cover every
        #: submitted index while growing window by window.  ``finish()``
        #: moves it into the latency window.
        self._latencies: list[float] = []
        self._is_write: list[bool] = []
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

    def _power_off(self) -> None:
        """DRAM dies first: dirty buffer contents are gone before the
        mount scan repairs whatever reached the flash."""
        self.buffer.drop_all()

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
                complete = self._serve(self.ftl.handle_read(misses, issue_ms),
                                       issue_ms, complete, True)
        self._latencies[index] = complete - arrival_ms
        return complete

    # -- replay --------------------------------------------------------------

    def feed(self, trace: Trace) -> None:
        """Submit one chunk of requests through the front-end.

        Chunk boundaries are invisible to the simulation: requests
        in-flight at a boundary simply complete during a later chunk's
        scheduler advance (their latency slots already exist), so any
        chunking of a trace replays byte-identically to one whole-trace
        feed.  Call :meth:`finish` after the last chunk; a finished
        replay refuses more input.
        """
        if self._finished:
            raise SimulationError(
                "the front-end replay has finished; build a new "
                "FrontendSimulator to replay more requests")
        n = len(trace)
        base_index = self.n

        buffer = self.buffer
        # The buffer's dirty map, oldest entry first: the writeback sweep
        # is only called once its head has been dirty past the delay.
        entries = buffer._entries
        delay = buffer.delay_ms
        subpages_per_page = self.geometry.subpages_per_page
        n_chips = self.geometry.chips
        submit = self.scheduler.submit
        next_power_loss = self.next_power_loss
        now = self.now
        for start, times, writes, firsts, lasts in self._row_windows(trace):
            # A window's latency slots exist before any of its requests
            # can issue.
            self._latencies.extend([0.0] * len(times))
            self._is_write.extend(writes)
            index = base_index + start
            for i in range(len(times)):
                now = times[i]
                if now >= next_power_loss:
                    next_power_loss = self._power_loss(now)
                # Periodic writeback: destage entries past their delay in
                # the background (they occupy chips but complete no
                # request).
                if entries and now - next(iter(entries.values())) >= delay:
                    for span in buffer.expire(now):
                        self._flush_span(span, now)
                first = firsts[i]
                submit(FrontRequest(index + i, now,
                                    list(range(first, lasts[i])), writes[i]),
                       (first // subpages_per_page) % n_chips, now)
        self.n = base_index + n
        self.now = now

    def finish(self) -> None:
        """End of trace: run the queues dry, then destage what is left in
        the buffer so the flash holds the final image.  Idempotent; the
        scheduler's reference back to this replay is dropped."""
        if self._finished:
            return
        self._finished = True
        last_completion = self.scheduler.drain()
        self.scheduler.issue = _refuse_issue
        drain_ms = last_completion if last_completion > self.now else self.now
        for span in self.buffer.drain():
            self._flush_span(span, drain_ms)
        self._record_window(np.asarray(self._latencies, dtype=np.float64),
                            np.asarray(self._is_write, dtype=bool))
        self._latencies = []
        self._is_write = []

    def result(self, trace_name: str, wall_seconds: float = 0.0,
               ) -> SimulationResult:
        """Harvest the finished replay into a :class:`SimulationResult`."""
        if not self._finished:
            raise SimulationError("call finish() before result(): requests "
                                  "may still be queued or in flight")
        result = self._result(trace_name, wall_seconds, self.now)
        stats = self.buffer.stats
        result.cache_read_hits = stats.read_hits
        result.cache_read_misses = stats.read_misses
        result.merged_writes = stats.merged_writes
        result.coalesced_writes = stats.coalesced_writes
        result.flushes = stats.flushes
        result.flushed_subpages = stats.flushed_subpages
        result.dropped_subpages = stats.dropped_subpages
        result.frontend_queue_depth = self.frontend.queue_depth
        if self.n:
            # Percentiles depend only on the values, not their order.
            latencies = np.concatenate((result.read_latencies,
                                        result.write_latencies))
            result.lat_p50_ms = float(np.percentile(latencies, 50))
            result.lat_p90_ms = float(np.percentile(latencies, 90))
            result.lat_p99_ms = float(np.percentile(latencies, 99))
        return result

    def run(self, trace) -> SimulationResult:
        """Replay a :class:`Trace` or ``TraceStream`` end to end."""
        return super().run(trace)
