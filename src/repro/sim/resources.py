"""FCFS hardware resources.

Each flash chip and each channel is a unit-capacity FCFS server: an
operation issued at time ``t`` starts at ``max(t, next_free)`` and occupies
the server for its duration.  This is the queueing model SSDsim uses; it
captures both intra-request parallelism (ops of one request spread over
chips run concurrently) and the head-of-line blocking GC traffic inflicts
on later host operations.
"""

from __future__ import annotations

from ..errors import SimulationError
from ..nand.geometry import Geometry
from ..units import Ms


class Resource:
    """A unit-capacity FCFS server with busy-time accounting."""

    __slots__ = ("name", "next_free", "busy_ms", "operations")

    def __init__(self, name: str):
        self.name = name
        self.next_free: Ms = 0.0
        self.busy_ms: Ms = 0.0
        self.operations = 0

    def acquire(self, earliest: Ms, duration: Ms) -> tuple[Ms, Ms]:
        """Reserve the server; returns ``(start, end)``."""
        if duration < 0:
            raise SimulationError(f"{self.name}: negative duration {duration}")
        if earliest < 0:
            raise SimulationError(f"{self.name}: negative issue time {earliest}")
        start = max(earliest, self.next_free)
        end = start + duration
        self.next_free = end
        self.busy_ms += duration
        self.operations += 1
        return start, end

    def utilization(self, horizon_ms: Ms) -> float:
        """Busy fraction over ``[0, horizon_ms]``."""
        if horizon_ms <= 0:
            return 0.0
        return min(1.0, self.busy_ms / horizon_ms)


class ResourceSet:
    """Chips and channels of a device, addressed through the geometry."""

    def __init__(self, geometry: Geometry):
        self.geometry = geometry
        self.chips = [Resource(f"chip{i}") for i in range(geometry.chips)]
        self.channels = [Resource(f"chan{i}") for i in range(geometry.channels)]
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
        the channel but keeps GC blocking behaviour faithful.
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

    def acquire_pipelined(self, block_id: int, earliest: Ms,
                          chip_ms: Ms, channel_ms: Ms,
                          chip_first: bool) -> tuple[Ms, Ms]:
        """Two-stage reservation: media occupies only the chip, transfer
        only the channel.

        Reads sense on the chip first and then stream over the channel
        (``chip_first=True``); programs stream the page buffer in before
        the chip programs (``chip_first=False``).  Erases pass
        ``channel_ms=0``.
        """
        if chip_ms < 0 or channel_ms < 0:
            raise SimulationError("negative stage duration")
        chip, channel = self._pair[block_id]
        first, second = (chip, channel) if chip_first else (channel, chip)
        first_ms, second_ms = ((chip_ms, channel_ms) if chip_first
                               else (channel_ms, chip_ms))
        start, mid = first.acquire(earliest, first_ms)
        if second_ms == 0:
            return start, mid
        _, end = second.acquire(mid, second_ms)
        return start, end

    def horizon(self) -> Ms:
        """Latest busy-until time across all servers."""
        latest_chip = max((c.next_free for c in self.chips), default=0.0)
        latest_chan = max((c.next_free for c in self.channels), default=0.0)
        return max(latest_chip, latest_chan)
