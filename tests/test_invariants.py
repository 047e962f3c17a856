"""FTL invariant layer: conservation properties every scheme must hold.

Complements ``test_properties.py`` (which checks dict-like lookup
semantics) with the *accounting* invariants the experiment harness relies
on when it replays cells in parallel worker processes:

1. **Mapping bijection** — after any request completes, every live LPN
   maps to exactly one valid physical subpage, and every valid subpage is
   claimed by exactly one live LPN (no leaked or doubly-claimed slots).
2. **Subpage partition** — per block, valid + invalid + free subpage
   counts always equal the geometry's ``pages x subpages_per_page``, and
   the block's incremental counters agree with its occupancy bitmaps.
3. **GC conservation** — garbage collection relocates data; it never
   decreases the number of live valid subpages.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SCHEMES

from conftest import programmed_matrix, tiny_config

#: Logical space small enough that random workloads revisit addresses and
#: force updates, promotions, eviction and GC on the tiny device.
LSN_SPACE = 48

op = st.tuples(
    st.sampled_from(["w", "r"]),
    st.integers(min_value=0, max_value=LSN_SPACE - 1),
    st.integers(min_value=1, max_value=4),
)
workload = st.lists(op, min_size=1, max_size=120)

SCHEME_NAMES = ("baseline", "mga", "ipu")


def replay(scheme: str, ops):
    """Drive one FTL through a raw op sequence; returns the FTL."""
    ftl = SCHEMES[scheme](tiny_config())
    now = 0.0
    for kind, lsn, n in ops:
        lsns = [(lsn + i) % LSN_SPACE for i in range(n)]
        if kind == "w":
            ftl.handle_write(lsns, now)
        else:
            ftl.handle_read(lsns, now)
        now += 0.25
    return ftl


def valid_positions(ftl) -> set:
    """Every ``(block, page, slot)`` currently holding valid data."""
    positions = set()
    for block in ftl.flash.blocks:
        for page, slot in zip(*np.nonzero(block.valid)):
            positions.add((block.block_id, int(page), int(slot)))
    return positions


def assert_mapping_bijection(ftl) -> None:
    """Live LPNs <-> valid subpages is one-to-one and onto."""
    bound = {}
    for lsn, ppa in ftl.iter_bindings():
        pos = (ppa.block, ppa.page, ppa.slot)
        assert pos not in bound, (
            f"{ftl.scheme_name}: LSNs {bound[pos]} and {lsn} both map to {pos}")
        bound[pos] = lsn
    ftl.check_consistency()
    leaked = valid_positions(ftl) - set(bound)
    assert not leaked, (
        f"{ftl.scheme_name}: valid subpages not claimed by any LSN: "
        f"{sorted(leaked)[:5]}")


def assert_block_accounting(ftl) -> None:
    """valid + invalid + free == geometry total, per block."""
    for block in ftl.flash.blocks:
        total = block.pages * block.spp
        prog = programmed_matrix(block)
        valid = int(block.valid.sum())
        programmed = int(prog.sum())
        invalid = int((prog & ~block.valid).sum())
        free = total - programmed
        assert valid + invalid + free == total
        # Valid data only lives in programmed slots.
        assert not (block.valid & ~prog).any(), (
            f"block {block.block_id}: valid slot never programmed")
        # Incremental counters track the bitmaps exactly.
        assert block.n_valid == valid
        assert block.n_invalid == invalid
        assert block.n_programmed == programmed


class TestAfterWorkloads:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=workload)
    def test_bijection_and_accounting(self, scheme, ops):
        ftl = replay(scheme, ops)
        assert_mapping_bijection(ftl)
        assert_block_accounting(ftl)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_trace_replay_holds_invariants(self, scheme, short_trace):
        """The invariants also hold after a full simulator-driven replay
        (GC, wear levelling and eviction all exercised)."""
        from repro.sim import Simulator

        ftl = SCHEMES[scheme](tiny_config())
        Simulator(ftl).run(short_trace)
        assert_mapping_bijection(ftl)
        assert_block_accounting(ftl)


class TestGcConservation:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    @settings(max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(ops=workload)
    def test_gc_never_loses_valid_subpages(self, scheme, ops):
        """Draining all pending GC moves data but never drops it."""
        ftl = replay(scheme, ops)
        live_before = dict(ftl.iter_bindings())
        valid_before = len(valid_positions(ftl))
        ftl.idle_collect(now=1e9)
        live_after = dict(ftl.iter_bindings())
        assert set(live_after) == set(live_before), (
            f"{ftl.scheme_name}: GC changed the live LPN set")
        assert len(valid_positions(ftl)) == valid_before, (
            f"{ftl.scheme_name}: GC changed the valid subpage count")
        assert_mapping_bijection(ftl)
        assert_block_accounting(ftl)

    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_emergency_collect_conserves(self, scheme):
        """A forced full collection of both regions conserves live data."""
        ftl = SCHEMES[scheme](tiny_config())
        now = 0.0
        for i in range(0, LSN_SPACE, 4):
            ftl.handle_write([i, i + 1, i + 2, i + 3], now)
            now += 0.25
        # Rewrite a hot half to create invalid slots worth collecting.
        for i in range(0, LSN_SPACE // 2, 2):
            ftl.handle_write([i, i + 1], now)
            now += 0.25
        valid_before = len(valid_positions(ftl))
        ftl.slc_gc.collect_emergency(now)
        ftl.mlc_gc.collect_emergency(now + 1.0)
        assert len(valid_positions(ftl)) == valid_before
        assert_mapping_bijection(ftl)
        assert_block_accounting(ftl)
