"""Differential tests: array-backed block kernel vs pure-python reference.

The structure-of-arrays kernel (:mod:`repro.nand.block` over
:class:`repro.nand.state.RegionState`) earns its optimisations — flat
scalar stores, python-int bitmasks, derived counters — only if it is
observationally identical to the obvious implementation.
:class:`reference_block.ReferenceBlock` *is* the obvious
implementation; hypothesis drives randomized operation sequences through
both and asserts, after every single step:

* identical raised exception type (or none) and return value,
* identical observable state (slot matrices, lsns, times, disturb
  counters, lifecycle, epochs, occupancy),
* the kernel's own :meth:`Block.verify_array_state` cross-check passes.

A second group pins the array RBER/ECC kernels (``rber_many``,
``decode_ms_many``) to their scalar fast paths bit-for-bit — the batch
pricing paths are only byte-identical to the sequential replay if every
element matches the scalar result exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import ReliabilityConfig, TimingConfig
from repro.error.ecc import EccModel
from repro.error.rber import RberModel
from repro.nand.block import Block, BlockState
from repro.nand.cell import CellMode
from reference_block import ReferenceBlock, reclaimable_subpages

# Small geometry: enough pages for neighbour disturb and ordering rules,
# small enough that random sequences exercise full/erase transitions.
PAGES = 4
SPP = 4
MAX_PROGRAMS = 4

# ---------------------------------------------------------------------------
# Observable-state snapshot (shared shape for both implementations)


def snapshot(b) -> dict:
    """Every quantity the simulator can observe about a block, read from
    the kernel's one copy of each fact (programmed slots and per-page
    counts off the bitmasks, slot state off the region columns)."""
    if isinstance(b, Block):
        as_list = (lambda m: m.tolist())
        programmed = [[bool(m >> s & 1) for s in range(SPP)]
                      for m in b.prog_mask]
        page_valid = [m.bit_count() for m in b.valid_mask]
        page_programmed = [m.bit_count() for m in b.prog_mask]
    else:
        as_list = (lambda m: [list(row) for row in m])
        programmed = as_list(b.programmed)
        page_valid = b.page_valid
        page_programmed = b.page_programmed
    # An LSN is observable only in a programmed slot: the kernel keeps
    # no never-written sentinel in ``slot_lsn``.
    slot_lsn = [[lsn if done else None for lsn, done in zip(lsns, row)]
                for lsns, row in zip(as_list(b.slot_lsn), programmed)]
    snap = {
        "state": b.state,
        "level": b.level,
        "next_page": b.next_page,
        "erase_count": b.erase_count,
        "content_epoch": b.content_epoch,
        "n_valid": b.n_valid,
        "n_invalid": b.n_invalid,
        "n_programmed": b.n_programmed,
        "page_valid": page_valid,
        "page_programmed": page_programmed,
        "pass_counts": list(b.pass_counts),
        "pages_with_valid": b.pages_with_valid,
        "is_full": b.is_full,
        "reclaimable": reclaimable_subpages(b),
        "programmed": programmed,
        "valid": as_list(b.valid),
        "slot_lsn": slot_lsn,
        "free_slots": [b.free_slots_of_page(p) for p in range(PAGES)],
        "valid_slots": [b.valid_slots_of_page(p) for p in range(PAGES)],
        "lsns": [b.slot_lsns(p, [s for s in range(SPP) if programmed[p][s]])
                 for p in range(PAGES)],
    }
    if b.is_slc:
        snap["slot_time"] = as_list(b.slot_time)
        snap["slot_program_time"] = as_list(b.slot_program_time)
        snap["disturb_in"] = as_list(b.disturb_in)
        snap["disturb_nb"] = as_list(b.disturb_nb)
        snap["page_updated"] = list(b.page_updated)
    return snap


# ---------------------------------------------------------------------------
# Operation strategy

page_idx = st.integers(min_value=0, max_value=PAGES - 1)
slot_idx = st.integers(min_value=0, max_value=SPP - 1)
# Slightly out-of-range slots exercise the validation paths (only
# non-negative: a negative slot is a caller bug both implementations
# reject differently at the int-shift level).
loose_slot = st.integers(min_value=0, max_value=SPP + 1)
slot_list = st.lists(slot_idx, min_size=1, max_size=SPP, unique=True)
loose_slots = st.lists(loose_slot, min_size=0, max_size=SPP + 1)

operation = st.one_of(
    st.tuples(st.just("open"), st.integers(min_value=0, max_value=2)),
    # Program the next fresh page (usually valid).
    st.tuples(st.just("prog_next"), slot_list),
    # Partial-program free slots of an already-programmed page.
    st.tuples(st.just("prog_partial"), page_idx,
              st.integers(min_value=1, max_value=SPP)),
    # Raw program with arbitrary page/slots — exercises every rejection.
    st.tuples(st.just("prog_raw"), st.integers(min_value=0, max_value=PAGES),
              loose_slots),
    st.tuples(st.just("reprogram"), page_idx),
    st.tuples(st.just("invalidate"), page_idx, loose_slot),
    # Invalidate the first k currently-valid slots of a page.
    st.tuples(st.just("invalidate_valid"), page_idx,
              st.integers(min_value=0, max_value=SPP)),
    st.tuples(st.just("invalidate_many_raw"), page_idx, loose_slots),
    st.tuples(st.just("mark_updated"), page_idx),
    st.tuples(st.just("drain_page"), page_idx),
    st.tuples(st.just("erase"),),
    st.tuples(st.just("victim"),),
    st.tuples(st.just("retire"),),
)
op_sequence = st.lists(operation, min_size=1, max_size=60)


class _Driver:
    """Applies one op stream to one implementation, deterministically.

    Selector-style ops (``prog_partial``, ``invalidate_valid``,
    ``drain_page``) resolve against the implementation's *own* state, so
    the two drivers diverge the moment observable state does.
    """

    def __init__(self, block):
        self.b = block
        self.now = 0.0
        self.lsn = 0

    def apply(self, op):
        b = self.b
        kind = op[0]
        self.now += 0.5
        if kind == "open":
            return b.open_as(op[1])
        if kind == "prog_next":
            slots = op[1]
            lsns = [self._next_lsn() for _ in slots]
            return b.program_disturb(b.next_page, slots, lsns, self.now,
                                     MAX_PROGRAMS)
        if kind == "prog_partial":
            page = op[1] % max(1, b.next_page)
            slots = b.free_slots_of_page(page)[:op[2]]
            lsns = [self._next_lsn() for _ in slots]
            return b.program_disturb(page, slots, lsns, self.now, MAX_PROGRAMS)
        if kind == "prog_raw":
            slots = op[2]
            lsns = [self._next_lsn() for _ in slots]
            return b.program_disturb(op[1], slots, lsns, self.now, MAX_PROGRAMS)
        if kind == "reprogram":
            return b.reprogram_pass(op[1], MAX_PROGRAMS)
        if kind == "invalidate":
            return b.invalidate(op[1], op[2])
        if kind == "invalidate_valid":
            page = op[1]
            return b.invalidate_many(page, b.valid_slots_of_page(page)[:op[2]])
        if kind == "invalidate_many_raw":
            return b.invalidate_many(op[1], op[2])
        if kind == "mark_updated":
            return b.mark_page_updated(op[1])
        if kind == "drain_page":
            # GC idiom: invalidate every valid slot of one page.
            page = op[1]
            return b.invalidate_many(page, b.valid_slots_of_page(page))
        if kind == "erase":
            return b.erase()
        if kind == "victim":
            if b.state is BlockState.FULL:  # mark_victim has no guard
                return b.mark_victim()
            return None
        if kind == "retire":
            return b.retire()
        raise AssertionError(f"unknown op {kind}")

    def _next_lsn(self) -> int:
        self.lsn += 1
        return self.lsn


def assert_lists_follow_lifecycle(block: Block) -> None:
    """A free or retired block holds the shared all-zero tuple for its
    per-page values; a block in service holds three lists of its own."""
    values = (block.prog_mask, block.valid_mask, block.pass_counts)
    if block.state in (BlockState.FREE, BlockState.RETIRED):
        assert type(block.prog_mask) is tuple
        assert block.prog_mask is block.valid_mask is block.pass_counts
    else:
        assert all(type(v) is list for v in values)
        assert len({id(v) for v in values}) == 3


def run_differential(mode: CellMode, ops) -> None:
    kernel = _Driver(Block(0, mode, PAGES, SPP))
    reference = _Driver(ReferenceBlock(0, mode, PAGES, SPP))
    for op in ops:
        try:
            kr, ke = kernel.apply(op), None
        except Exception as exc:  # noqa: BLE001 - differential capture
            kr, ke = None, exc
        try:
            rr, re = reference.apply(op), None
        except Exception as exc:  # noqa: BLE001 - differential capture
            rr, re = None, exc
        assert type(ke) is type(re), (op, ke, re)
        assert kr == rr, (op, kr, rr)
        assert snapshot(kernel.b) == snapshot(reference.b), op
        kernel.b.verify_array_state()
        assert_lists_follow_lifecycle(kernel.b)


class TestDifferentialBlockState:
    @given(ops=op_sequence)
    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_slc_block_matches_reference(self, ops):
        run_differential(CellMode.SLC, ops)

    @given(ops=op_sequence)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_mlc_block_matches_reference(self, ops):
        run_differential(CellMode.MLC, ops)

    def test_snapshot_covers_slc_arrays(self):
        block = Block(0, CellMode.SLC, PAGES, SPP)
        snap = snapshot(block)
        assert "disturb_in" in snap and "slot_time" in snap

    def test_rejected_program_leaves_state_untouched(self):
        # The regression the differential suite first caught: a rejected
        # fresh-page program must not advance next_page.
        block = Block(0, CellMode.SLC, PAGES, SPP)
        block.open_as(1)
        before = snapshot(block)
        with pytest.raises(Exception):
            block.program_disturb(0, [0, 0], [1, 2], 0.0, MAX_PROGRAMS)
        assert snapshot(block) == before

    def test_empty_invalidate_many_is_a_noop(self):
        block = Block(0, CellMode.SLC, PAGES, SPP)
        block.open_as(1)
        block.program_disturb(0, [0], [7], 0.0, MAX_PROGRAMS)
        block.invalidate(0, 0)
        before = snapshot(block)
        block.invalidate_many(0, [])
        assert snapshot(block) == before
        block.verify_array_state()


# ---------------------------------------------------------------------------
# Array RBER/ECC kernels vs scalar fast paths (bit equality)


def _models():
    reliability = ReliabilityConfig()
    timing = TimingConfig()
    return RberModel(reliability), EccModel(timing, reliability)


rber_values = st.lists(
    st.floats(min_value=0.0, max_value=5e-3, allow_nan=False,
              allow_infinity=False),
    min_size=1, max_size=24)


class TestArrayKernelsBitIdentical:
    @given(values=rber_values)
    @settings(max_examples=100, deadline=None)
    def test_decode_ms_many_equals_scalar(self, values):
        _, ecc = _models()
        batch = ecc.decode_ms_many(np.asarray(values)).tolist()
        assert batch == [ecc.decode_ms(v) for v in values]

    @given(values=rber_values)
    @settings(max_examples=100, deadline=None)
    def test_decode_ms_list_equals_array_form(self, values):
        _, ecc = _models()
        # The page's slowest codeword: decode_ms of the largest RBER.
        assert ecc.decode_ms_list(values) == ecc.decode_ms(max(values))
        # The same worst subpage sets the read's failure probability; the
        # python max equals the float64 array reduction exactly.
        worst = float(np.asarray(values, dtype=np.float64).max())
        assert (ecc.uncorrectable_probability_for_subpages(values)
                == ecc.uncorrectable_probability(worst))

    @given(n_in=st.lists(st.integers(min_value=0, max_value=40),
                         min_size=1, max_size=16),
           pe=st.integers(min_value=0, max_value=6000))
    @settings(max_examples=100, deadline=None)
    def test_rber_many_equals_scalar(self, n_in, pe):
        rber, _ = _models()
        n_nb = [(v * 3) % 17 for v in n_in]
        in_arr = np.asarray(n_in, dtype=np.int64)
        nb_arr = np.asarray(n_nb, dtype=np.int64)
        unit = rber.disturb_unit(pe)
        ratio = rber.config.neighbor_disturb_ratio
        base = rber.base(pe, True)
        batch = rber.rber_many(pe, True, in_arr, nb_arr).tolist()
        # Operation-for-operation the scalar fast path of
        # FlashArray.read_list: base + unit*(n_in + ratio*n_nb).
        scalar = [base + unit * (float(i) + ratio * float(n))
                  for i, n in zip(n_in, n_nb)]
        assert batch == scalar

    def test_decode_ms_many_rejects_negative(self):
        _, ecc = _models()
        with pytest.raises(Exception):
            ecc.decode_ms_many(np.asarray([1e-4, -1e-9]))
