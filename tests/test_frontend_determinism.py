"""Differential determinism tests for the device front-end.

Three contracts from ``docs/FRONTEND.md``:

* the :class:`MultiQueueScheduler` dispatch order is a pure function of
  the submission history (round-robin arbitration, FIFO per queue,
  seq-number tie-break, global depth bound), and equals that of the
  plain enqueue-then-scan reference scheduler kept here as a twin;
* a frontend-enabled run is byte-identical across repeated runs and
  across ``--jobs 1`` vs ``--jobs N``, at every queue depth;
* a *disabled* ``FrontendConfig`` is indistinguishable from no frontend
  at all — same results, same cache keys.
"""

import heapq

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SimulationError
from repro.frontend import FrontendConfig, FrontRequest, MultiQueueScheduler
from repro.experiments.runner import RunContext


# -- scheduler unit tests ----------------------------------------------------

def record_issue(log, service_ms=1.0):
    """An issue callback that logs ``(index, issue_ms)`` and prices every
    request at a fixed service time."""
    def issue(request, issue_ms):
        log.append((request.index, issue_ms))
        return issue_ms + service_ms
    return issue


def req(index, arrival_ms=0.0):
    return FrontRequest(index=index, arrival_ms=arrival_ms,
                        lsns=[index], is_write=True)


class TestScheduler:
    def test_round_robin_across_queues_fifo_within(self):
        log = []
        sched = MultiQueueScheduler(3, 1, record_issue(log))
        # Backlog: queue0=[0,1], queue1=[2], queue2=[3,4]; QD=1 so only
        # request 0 dispatches on submit, the rest drain in RR order.
        for index, qid in [(0, 0), (1, 0), (2, 1), (3, 2), (4, 2)]:
            sched.submit(req(index), qid, 0.0)
        sched.drain()
        assert [i for i, _ in log] == [0, 2, 3, 1, 4]

    def test_queue_depth_bounds_inflight(self):
        for qd in (1, 2, 4):
            log = []
            sched = MultiQueueScheduler(2, qd, record_issue(log))
            for index in range(10):
                sched.submit(req(index), index % 2, 0.0)
                assert len(sched._inflight) <= qd
            sched.drain()
            assert sched.max_inflight == min(qd, 10)
            assert len(log) == 10

    def test_completion_frees_slot_for_backlog(self):
        log = []
        sched = MultiQueueScheduler(1, 1, record_issue(log, service_ms=2.0))
        sched.submit(req(0, arrival_ms=0.0), 0, 0.0)
        sched.submit(req(1, arrival_ms=0.5), 0, 0.5)   # queued behind 0
        sched.submit(req(2, arrival_ms=5.0), 0, 5.0)   # slot idle by then
        last = sched.drain()
        # 0 issues at 0.0; 1 waits for the slot (2.0); 2 at its arrival.
        assert log == [(0, 0.0), (1, 2.0), (2, 5.0)]
        assert last == 7.0

    def test_issue_never_precedes_arrival(self):
        log = []
        sched = MultiQueueScheduler(2, 8, record_issue(log))
        sched.submit(req(0, arrival_ms=1.5), 0, 1.5)
        sched.submit(req(1, arrival_ms=2.5), 1, 2.5)
        sched.drain()
        assert all(issue_ms >= arrival
                   for (_, issue_ms), arrival in zip(log, [1.5, 2.5]))

    def test_dispatch_history_is_reproducible(self):
        def run_once():
            log = []
            sched = MultiQueueScheduler(4, 3, record_issue(log, 0.7))
            for index in range(40):
                sched.submit(req(index, arrival_ms=index * 0.3),
                             index % 4, index * 0.3)
            sched.drain()
            return log
        assert run_once() == run_once()

    def test_rejects_degenerate_shapes(self):
        with pytest.raises(SimulationError):
            MultiQueueScheduler(0, 4, lambda r, t: t)
        with pytest.raises(SimulationError):
            MultiQueueScheduler(2, 0, lambda r, t: t)

    def test_empty_backlog_submit_advances_round_robin(self):
        log = []
        sched = MultiQueueScheduler(4, 8, record_issue(log))
        sched.submit(req(0), 2, 0.0)
        assert log == [(0, 0.0)]
        assert sched._rr == 3
        assert sched._queued == 0


# -- reference twin ----------------------------------------------------------

class ReferenceScheduler:
    """The enqueue-then-round-robin scheduler, kept verbatim as the
    specification the production scheduler's fast paths must match."""

    def __init__(self, n_queues, queue_depth, issue):
        self.queue_depth = queue_depth
        self.issue = issue
        self._queues = [[] for _ in range(n_queues)]
        self._heads = [0] * n_queues
        self._rr = 0
        self._inflight = []
        self._seq = 0
        self._queued = 0
        self.max_inflight = 0

    def submit(self, request, queue_id, now):
        self.advance(now)
        self._queues[queue_id].append(request)
        self._queued += 1
        self._fill(now)

    def advance(self, to_ms):
        inflight = self._inflight
        while inflight and inflight[0][0] <= to_ms:
            done_ms, _ = heapq.heappop(inflight)
            self._fill(done_ms)

    def drain(self):
        last = 0.0
        inflight = self._inflight
        while inflight:
            done_ms, _ = heapq.heappop(inflight)
            if done_ms > last:
                last = done_ms
            self._fill(done_ms)
        return last

    def _fill(self, now):
        inflight = self._inflight
        while len(inflight) < self.queue_depth and self._queued:
            request = self._next_request()
            issue_ms = now if now > request.arrival_ms else request.arrival_ms
            completion = self.issue(request, issue_ms)
            self._seq += 1
            heapq.heappush(inflight, (completion, self._seq))
            if len(inflight) > self.max_inflight:
                self.max_inflight = len(inflight)

    def _next_request(self):
        queues = self._queues
        heads = self._heads
        n = len(queues)
        rr = self._rr
        for off in range(n):
            qid = (rr + off) % n
            queue = queues[qid]
            head = heads[qid]
            if head < len(queue):
                request = queue[head]
                heads[qid] = head + 1
                if heads[qid] == len(queue):
                    queue.clear()
                    heads[qid] = 0
                self._rr = (qid + 1) % n
                self._queued -= 1
                return request
        raise SimulationError("scheduler backlog accounting desynced")


def replay_history(scheduler_cls, n_queues, queue_depth, history):
    """Submit ``history`` (``(gap, lag, service, queue_id)`` steps) and
    return everything observable: the issue log, the in-flight heap after
    every submit (which fixes the retirement order), the drain time,
    ``max_inflight`` and the final round-robin cursor."""
    log = []
    services = [service for _, _, service, _ in history]

    def issue(request, issue_ms):
        log.append((request.index, issue_ms))
        return issue_ms + services[request.index]

    sched = scheduler_cls(n_queues, queue_depth, issue)
    arrival = 0.0
    inflight_after = []
    for index, (gap, lag, _, queue_id) in enumerate(history):
        arrival += gap
        sched.submit(req(index, arrival_ms=arrival), queue_id % n_queues,
                     arrival + lag)
        inflight_after.append(sorted(sched._inflight))
    last = sched.drain()
    return log, inflight_after, last, sched.max_inflight, sched._rr


# Quarter-millisecond grid: equal arrivals, equal completions and
# zero-length services all occur, so every tie-break path is exercised.
_grid = st.integers(min_value=0, max_value=8).map(lambda k: k * 0.25)


@settings(max_examples=300, deadline=None)
@given(n_queues=st.integers(min_value=1, max_value=8),
       queue_depth=st.integers(min_value=1, max_value=8),
       history=st.lists(
           st.tuples(_grid, st.sampled_from([0.0, 0.0, 0.5]), _grid,
                     st.integers(min_value=0, max_value=7)),
           max_size=60))
def test_scheduler_matches_reference_twin(n_queues, queue_depth, history):
    assert replay_history(MultiQueueScheduler, n_queues, queue_depth,
                          history) == \
        replay_history(ReferenceScheduler, n_queues, queue_depth, history)


# -- end-to-end determinism --------------------------------------------------

def frontend_context(qd):
    ctx = RunContext(scale="smoke", seed=1)
    ctx.frontend = FrontendConfig.from_qd(qd)
    return ctx


@pytest.mark.parametrize("qd", [1, 4, 32])
def test_repeated_runs_are_byte_identical(qd):
    first = frontend_context(qd).run("ts0", "ipu").deterministic_dict()
    second = frontend_context(qd).run("ts0", "ipu").deterministic_dict()
    assert first == second
    assert first["frontend_queue_depth"] == qd


def test_parallel_matches_sequential():
    cells = [("ts0", scheme, None) for scheme in ("baseline", "mga", "ipu")]
    seq = frontend_context(4)
    par = frontend_context(4)
    seq.run_cells(cells, jobs=1)
    par.run_cells(cells, jobs=3)
    for trace_name, scheme, pe in cells:
        assert seq.run(trace_name, scheme, pe).deterministic_dict() == \
            par.run(trace_name, scheme, pe).deterministic_dict()


def test_queue_depth_changes_latency_not_conservation():
    shallow = frontend_context(1).run("ts0", "ipu")
    deep = frontend_context(32).run("ts0", "ipu")
    # Dispatch depth may reorder buffer traffic (hit/merge counts can
    # shift), but the conservation laws are depth-invariant: every read
    # subpage is a hit or a miss, every write subpage merges or flushes.
    assert shallow.cache_read_hits + shallow.cache_read_misses == \
        deep.cache_read_hits + deep.cache_read_misses
    assert shallow.merged_writes + shallow.flushed_subpages == \
        deep.merged_writes + deep.flushed_subpages
    # The dispatch backpressure shows up in the tail.
    assert shallow.lat_p99_ms != deep.lat_p99_ms


def test_disabled_frontend_is_the_direct_path():
    plain = RunContext(scale="smoke", seed=1)
    disabled = RunContext(scale="smoke", seed=1)
    disabled.frontend = FrontendConfig()     # enabled=False
    plain_result = plain.run("ts0", "ipu")
    disabled_result = disabled.run("ts0", "ipu")
    assert plain_result.deterministic_dict() == \
        disabled_result.deterministic_dict()
    # Frontend counters stay zero on the direct path.
    assert plain_result.cache_read_hits == 0
    assert plain_result.frontend_queue_depth == 0
    assert plain_result.lat_p99_ms == 0.0


def test_disabled_frontend_shares_cache_keys():
    plain = RunContext(scale="smoke", seed=1)
    disabled = RunContext(scale="smoke", seed=1)
    disabled.frontend = FrontendConfig()
    enabled = RunContext(scale="smoke", seed=1)
    enabled.frontend = FrontendConfig.from_qd(4)
    assert plain.cell_key("ts0", "ipu") == disabled.cell_key("ts0", "ipu")
    assert plain.cell_key("ts0", "ipu") != enabled.cell_key("ts0", "ipu")
    # Different QDs are different experiments — different keys.
    deeper = RunContext(scale="smoke", seed=1)
    deeper.frontend = FrontendConfig.from_qd(8)
    assert enabled.cell_key("ts0", "ipu") != deeper.cell_key("ts0", "ipu")
