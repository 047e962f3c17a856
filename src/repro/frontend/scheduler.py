"""The multi-queue request scheduler.

Requests are distributed over per-chip queues (the NVMe-ish
submission-queue view of the device's chip parallelism) and dispatched
under one global in-flight bound — the *queue depth*.  Arbitration over
the non-empty queues is round-robin from a persistent pointer, so the
dispatch order is a pure function of the submission history:

* **submission** appends to the target queue (FIFO per queue) — or,
  when no request is waiting and a slot is free, dispatches at once:
  the scan would pick that request anyway;
* a **slot** frees when the earliest outstanding completion is reached;
  ties between equal completion times break by submission sequence
  number (a heap of ``(completion, seq)`` pairs — never by id or hash);
* each freed slot dispatches the next request from the round-robin scan,
  issuing it at ``max(slot time, arrival time)``.

The scheduler never prices anything itself: the owner supplies an
``issue(request, issue_ms) -> completion_ms`` callback that runs the FTL
and reserves chip/channel time through the replay's
:class:`~repro.sim.timing.OpPricer`, keeping all latency arithmetic in
one place.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Callable, NamedTuple

from ..errors import SimulationError
from ..units import Lsn, Ms


class FrontRequest(NamedTuple):
    """One host request as the scheduler sees it.

    A named tuple rather than a frozen dataclass: one is built per host
    request, and a frozen dataclass pays an ``object.__setattr__`` per
    field on construction.
    """

    index: int          #: position in the trace (latency slot)
    arrival_ms: Ms      #: host submission time
    lsns: "list[Lsn]"   #: touched subpages
    is_write: bool      #: direction


class MultiQueueScheduler:
    """Deterministic round-robin dispatcher with a global depth bound."""

    def __init__(self, n_queues: int, queue_depth: int,
                 issue: "Callable[[FrontRequest, Ms], Ms]"):
        if n_queues < 1:
            raise SimulationError(f"n_queues must be >= 1, got {n_queues}")
        if queue_depth < 1:
            raise SimulationError(
                f"queue_depth must be >= 1, got {queue_depth}")
        self.queue_depth = queue_depth
        self.issue = issue
        self._queues: "list[list[FrontRequest]]" = [[] for _ in range(n_queues)]
        #: Next-service cursor per queue (popping from the front of a
        #: plain list is O(n); an index keeps FIFO service O(1)).
        self._heads: "list[int]" = [0] * n_queues
        self._rr = 0
        self._inflight: "list[tuple[Ms, int]]" = []
        self._seq = 0
        self._queued = 0
        self.max_inflight = 0

    # -- owner API -----------------------------------------------------------

    def submit(self, request: FrontRequest, queue_id: int, now: Ms) -> None:
        """Enqueue one request at its arrival time.

        Completions due before ``now`` are retired first (each freed slot
        dispatches from the backlog at its completion time), then the new
        request joins its queue and dispatches immediately if a slot is
        free.  With the backlog empty the round-robin scan could only pick
        this request, so it is dispatched directly, without the enqueue.
        """
        inflight = self._inflight
        if inflight and inflight[0][0] <= now:
            self.advance(now)
        if not self._queued and len(inflight) < self.queue_depth:
            self._rr = (queue_id + 1) % len(self._queues)
            self._dispatch(request, now)
            return
        self._queues[queue_id].append(request)
        self._queued += 1
        self._fill(now)

    def advance(self, to_ms: Ms) -> None:
        """Retire completions up to ``to_ms``, dispatching the backlog."""
        inflight = self._inflight
        while inflight and inflight[0][0] <= to_ms:
            done_ms, _ = heappop(inflight)
            if self._queued:
                self._fill(done_ms)

    def drain(self) -> Ms:
        """Run every queued and in-flight request to completion.

        Returns the final completion time (0 if nothing was pending).
        """
        last = 0.0
        inflight = self._inflight
        while inflight:
            done_ms, _ = heappop(inflight)
            if done_ms > last:
                last = done_ms
            self._fill(done_ms)
        return last

    # -- internals -----------------------------------------------------------

    def _fill(self, now: Ms) -> None:
        """Dispatch backlog into free slots, round-robin across queues."""
        inflight = self._inflight
        while len(inflight) < self.queue_depth and self._queued:
            self._dispatch(self._next_request(), now)

    def _dispatch(self, request: FrontRequest, now: Ms) -> None:
        """Issue one request into a free slot at ``max(now, arrival)``."""
        arrival = request.arrival_ms
        completion = self.issue(request, now if now > arrival else arrival)
        seq = self._seq = self._seq + 1
        inflight = self._inflight
        heappush(inflight, (completion, seq))
        if len(inflight) > self.max_inflight:
            self.max_inflight = len(inflight)

    def _next_request(self) -> FrontRequest:
        """The next backlog entry in round-robin order (caller checked
        ``self._queued``)."""
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
