"""Flash operation records.

An FTL scheme mutates flash state synchronously and returns a list of
:class:`OpRecord` describing the physical operations the request (plus any
GC or wear-levelling work it triggered) requires.  The replayer prices each
record with the :class:`~repro.sim.timing.TimingModel` and schedules it on
the chip/channel resources.
"""

from __future__ import annotations

import enum
from typing import NamedTuple

from ..units import Ms


class OpKind(enum.Enum):
    """Physical operation type."""

    READ = "read"
    PROGRAM = "program"
    ERASE = "erase"


class Cause(enum.Enum):
    """Why the operation happened."""

    HOST = "host"          #: directly serves the host request
    GC = "gc"              #: garbage-collection traffic
    WEAR = "wear"          #: static wear-levelling traffic
    TRANSLATION = "xlat"   #: demand-paged mapping lookups (extension)
    FAULT = "fault"        #: fault handling (read-reclaim, torn-page repair)


class OpRecord(NamedTuple):
    """One physical flash operation to be priced and scheduled.

    A named tuple rather than a dataclass: replay creates one record per
    physical operation and ``tuple.__new__`` is the cheapest constructor
    CPython offers, while keeping records genuinely immutable
    (``OpRecord._replace`` derives patched copies).
    """

    kind: OpKind
    block_id: int
    page: int
    n_slots: int
    is_slc: bool
    cause: Cause
    #: Subpages moved over the channel.  Programs without partial
    #: programming must drive the whole page buffer, so schemes that lack
    #: it transfer all four subpages even for a 4K write; reads and
    #: partial programs transfer only what they touch.  0 means n_slots.
    transfer_slots: int = 0
    #: ECC decode time for reads (already derived from the subpages' RBER).
    ecc_ms: Ms = 0.0
    #: Expected raw bit errors of the read (drives the error-rate metric).
    raw_errors: float = 0.0

    @property
    def channel_slots(self) -> int:
        """Subpages actually moved over the channel."""
        return self.transfer_slots if self.transfer_slots else self.n_slots


def _validating_new(cls, kind, block_id, page, n_slots, is_slc, cause,
                    transfer_slots=0, ecc_ms=0.0, raw_errors=0.0):
    # Single fused branch: the common case pays one comparison chain.
    if n_slots < 0 or ecc_ms < 0.0 or raw_errors < 0.0:
        raise ValueError(
            f"negative OpRecord field: n_slots={n_slots} "
            f"ecc_ms={ecc_ms} raw_errors={raw_errors}")
    return tuple.__new__(cls, (kind, block_id, page, n_slots, is_slc,
                               cause, transfer_slots, ecc_ms, raw_errors))


# ``typing.NamedTuple`` rejects ``__new__`` in the class body, so the
# validating constructor is attached afterwards (``_replace``/``_make``
# bypass it by design — they re-shuffle already-validated records).
OpRecord.__new__ = _validating_new  # type: ignore[method-assign]
