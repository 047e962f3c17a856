"""Latency model for flash operations (Table 2).

* page read: media sensing time (mode-dependent) + per-subpage channel
  transfer + BCH decode time (a function of the read subpages' RBER,
  computed by the FTL when it issues the op and carried on the op as
  ``ecc_ms``),
* page program: per-subpage channel transfer + media program time,
* erase: the Table 2 block erase time.

The model never prices RBER or ECC itself: every read op, including a
*pseudo read* of never-written data (``BaseFTL._pseudo_reads``), arrives
with its decode time already set.
"""

from __future__ import annotations

from ..config import SSDConfig
from ..units import Ms
from .ops import OpKind, OpRecord
from .resources import ResourceSet

_ERASE = OpKind.ERASE
_PROGRAM = OpKind.PROGRAM


class TimingModel:
    """Prices :class:`~repro.sim.ops.OpRecord` instances."""

    def __init__(self, config: SSDConfig):
        config.validate()
        self.config = config
        self.timing = config.timing
        # Table 2 latencies are fixed for a config; hoist them out of the
        # per-operation pricing path (attribute chains are hot here).
        t = self.timing
        self._erase_ms = t.erase_ms
        self._transfer = t.transfer_ms_per_subpage
        self._read = {True: t.slc_read_ms, False: t.mlc_read_ms}
        self._write = {True: t.slc_write_ms, False: t.mlc_write_ms}

    def duration_ms(self, op: OpRecord) -> Ms:
        """Service time of one operation on its chip/channel pair."""
        kind = op.kind
        if kind is OpKind.ERASE:
            return self._erase_ms
        transfer = self._transfer * op.channel_slots
        if kind is OpKind.PROGRAM:
            return transfer + self._write[op.is_slc]
        return self._read[op.is_slc] + transfer + op.ecc_ms

    def segments_ms(self, op: OpRecord) -> tuple[float, float, bool]:
        """(chip_ms, channel_ms, chip_first) for the pipelined bus model.

        ECC decode happens in the controller as data streams off the
        channel, so it is charged to the channel stage of reads.
        """
        kind = op.kind
        if kind is OpKind.ERASE:
            return self._erase_ms, 0.0, True
        transfer = self._transfer * op.channel_slots
        if kind is OpKind.PROGRAM:
            return self._write[op.is_slc], transfer, False
        return self._read[op.is_slc], transfer + op.ecc_ms, True

    def pricer(self, resources: ResourceSet) -> "OpPricer":
        """An :class:`OpPricer` bound to this model and ``resources``."""
        return OpPricer(self, resources)


class OpPricer:
    """Prices one op and reserves its chip/channel time in one call.

    :meth:`reserve` fuses :meth:`TimingModel.duration_ms` and
    :meth:`ResourceSet.acquire_for_block` (or, under the pipelined bus,
    ``segments_ms`` and ``acquire_pipelined``) into one call frame, bit
    for bit.  Every replay driver prices its ops through one.
    """

    __slots__ = ("timing", "resources", "_pipelined", "_pair", "_erase_ms",
                 "_transfer", "_read", "_write")

    def __init__(self, timing: TimingModel, resources: ResourceSet):
        self.timing = timing
        self.resources = resources
        self._pipelined = timing.timing.pipelined_bus
        self._pair = resources._pair
        self._erase_ms = timing._erase_ms
        self._transfer = timing._transfer
        self._read = timing._read
        self._write = timing._write

    def reserve(self, op: OpRecord, when: Ms) -> Ms:
        """Reserve ``op``'s servers from ``when``; returns its end time."""
        if self._pipelined:
            chip_ms, chan_ms, chip_first = self.timing.segments_ms(op)
            return self.resources.acquire_pipelined(
                op.block_id, when, chip_ms, chan_ms, chip_first)[1]
        kind = op.kind
        if kind is _ERASE:
            duration = self._erase_ms
        else:
            transfer = self._transfer * (op.transfer_slots or op.n_slots)
            if kind is _PROGRAM:
                duration = transfer + self._write[op.is_slc]
            else:
                duration = self._read[op.is_slc] + transfer + op.ecc_ms
        chip, channel = self._pair[op.block_id]
        start = max(when, chip.next_free, channel.next_free)
        end = start + duration
        chip.next_free = end
        chip.busy_ms += duration
        chip.operations += 1
        channel.next_free = end
        channel.busy_ms += duration
        channel.operations += 1
        return end
