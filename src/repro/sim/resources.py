"""FCFS hardware resources.

Each flash chip and each channel is a unit-capacity FCFS server: an
operation issued at time ``t`` starts at ``max(t, next_free)`` and occupies
the server for its duration.  This is the queueing model SSDsim uses; it
captures both intra-request parallelism (ops of one request spread over
chips run concurrently) and the head-of-line blocking GC traffic inflicts
on later host operations.
"""

from __future__ import annotations

from ..nand.geometry import Geometry
from ..units import Ms


class Resource:
    """A unit-capacity FCFS server with busy-time accounting."""

    __slots__ = ("next_free", "busy_ms", "operations")

    def __init__(self) -> None:
        self.next_free: Ms = 0.0
        self.busy_ms: Ms = 0.0
        self.operations = 0


class ResourceSet:
    """Chips and channels of a device, addressed through the geometry."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.chips = [Resource() for _ in range(geometry.chips)]
        self.channels = [Resource() for _ in range(geometry.channels)]
        # The block→chip/channel mapping is fixed modulo arithmetic over a
        # fixed geometry; resolve it once instead of per reservation.
        self._pair = [
            (self.chips[geometry.chip_of(b)], self.channels[geometry.channel_of(b)])
            for b in range(geometry.total_blocks)
        ]

    def acquire_for_block(self, block_id: int, earliest: Ms,
                          duration: Ms) -> tuple[Ms, Ms]:
        """Reserve chip and channel together for one flash operation.

        The op starts when both servers are free and occupies both for the
        full duration — a first-order model that slightly over-serialises
        the channel but keeps GC blocking behaviour faithful.  Replays
        book through :meth:`~repro.sim.timing.OpPricer.reserve`, which
        inlines this; the pricer tests keep it as their reference.
        """
        chip, channel = self._pair[block_id]
        start = max(earliest, chip.next_free, channel.next_free)
        end = start + duration
        chip.next_free = end
        chip.busy_ms += duration
        chip.operations += 1
        channel.next_free = end
        channel.busy_ms += duration
        channel.operations += 1
        return start, end

    def horizon(self) -> Ms:
        """Latest busy-until time across all servers (the perf harness
        reads it for modelled chip utilisation)."""
        latest_chip = max((c.next_free for c in self.chips), default=0.0)
        latest_chan = max((c.next_free for c in self.channels), default=0.0)
        return max(latest_chip, latest_chan)
