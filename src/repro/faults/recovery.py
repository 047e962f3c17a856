"""Power-loss injection and mount-time recovery.

A power loss interrupts whatever the device was doing at time ``t``.
Subpages programmed within the config's ``torn_window_ms`` before ``t``
are *torn*: their program pulse may not have completed, so their charge
state cannot be trusted.  Only the SLC cache is exposed — partial
programming re-opens pages there, which is exactly the vulnerability the
paper's reliability discussion is about; the high-density region programs
full pages once and a torn full-page program loses data that still exists
in the cache (the simulator's mapping update is atomic, so the previous
copy remains the bound one).

The mount scan then

1. reads every programmed SLC page to find torn subpages (priced as one
   full-page SLC read per programmed page),
2. repairs each torn subpage by relocating its (still modelled-valid)
   data through the owning scheme's normal relocation path.

Recovery work is priced with the :class:`~repro.sim.timing.TimingModel`
into ``FaultStats.recovery_ms`` but is **not** reserved on the chip and
channel resources: the device is off while it runs, so it delays the
mount, not in-flight host requests.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from ..nand.block import BlockState
from ..sim.ops import Cause, OpKind, OpRecord
from ..units import Ms

if TYPE_CHECKING:
    from ..ftl.base import BaseFTL
    from ..sim.timing import TimingModel
    from .plan import FaultPlan


def run_power_loss(ftl: BaseFTL, plan: FaultPlan, now: Ms,
                   timing: TimingModel) -> Ms:
    """Inject one power-loss event at ``now``; returns the recovery ms."""
    stats = plan.stats
    stats.power_loss_events += 1
    window_start = now - plan.config.torn_window_ms
    flash = ftl.flash
    spp = ftl.geometry.subpages_per_page

    # Pass 1: scan (ascending block id — deterministic), collecting torn
    # subpages without mutating anything.  Repairs relocate data and can
    # trigger GC, which must not invalidate the scan mid-flight.
    scanned_pages = 0
    torn: list[tuple[int, int, list[int]]] = []
    for block in flash.region_blocks(True):
        state = block.state
        if state is BlockState.FREE or state is BlockState.RETIRED:
            continue
        prog_mask = block.prog_mask
        valid = block.valid
        program_time = block.slot_program_time
        for page in range(block.next_page):
            if not prog_mask[page]:
                continue
            scanned_pages += 1
            valid_row = valid[page]
            times_row = program_time[page]
            slots = [s for s in range(spp)
                     if valid_row[s] and times_row[s] > window_start]
            if slots:
                torn.append((block.block_id, page, slots))
                stats.torn_subpages += len(slots)

    # Pass 2: repair through the scheme's relocation path.  The reclaim
    # re-checks validity, so data a previous repair (or its GC) already
    # moved is skipped rather than double-relocated.
    recovery_ops: list[OpRecord] = []
    for block_id, page, slots in torn:
        block = flash.block(block_id)
        if block.state is BlockState.RETIRED:
            continue
        valid_row = block.valid[page]
        live = [s for s in slots if valid_row[s]]
        if not live:
            continue
        recovery_ops.extend(
            ftl._fault_reclaim_page(block, page, now, slots=live))
        stats.recovered_subpages += len(live)
    recovery_ops.extend(plan.drain_ops())

    scan_op = OpRecord(kind=OpKind.READ, block_id=0, page=0, n_slots=spp,
                       is_slc=True, cause=Cause.FAULT)
    recovery_ms = scanned_pages * timing.duration_ms(scan_op)
    for op in recovery_ops:
        recovery_ms += timing.duration_ms(op)
    stats.recovery_ms += recovery_ms
    return recovery_ms
