"""Property tests (hypothesis): the optimised hot-path structures agree
with naive reference implementations over randomized device states.

Four families:

* victim policies — ``select`` must pick the block a from-scratch
  reference scan picks, including the lowest-``block_id`` tie-break,
  before and after further mutations;
* victim candidates — ``RegionAllocator.victim_candidates`` (a scan of
  the region's ``state_code`` column) must list exactly the FULL blocks,
  in ascending ``block_id``, after any block lifecycle sequence;
* vectorised ECC decode latency — ``decode_ms_many`` must equal the
  scalar ``decode_ms`` element by element, bit for bit;
* fused op pricing — ``OpPricer.reserve`` must equal ``duration_ms``
  plus ``ResourceSet.acquire_for_block`` over random op sequences, end
  times and server clocks bit for bit.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.config import CacheConfig, GeometryConfig, SSDConfig
from repro.error import EccModel
from repro.ftl.allocator import RegionAllocator
from repro.ftl.hotcold import block_age_sum, block_coldness
from repro.ftl.victim import (
    GreedyPageVictimPolicy,
    GreedyVictimPolicy,
    IsrVictimPolicy,
)
from repro.nand import FlashArray
from repro.nand.block import Block, BlockState
from repro.nand.cell import CellMode
from repro.nand.geometry import Geometry
from repro.sim.ops import Cause, OpKind, OpRecord
from repro.sim.resources import ResourceSet
from repro.sim.timing import TimingModel

from conftest import tiny_config

PAGES = 2
SPP = 4
NOW = 100.0

SETTINGS = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])

#: One block's randomized state: per-slot invalidation mask, per-slot
#: last-access time (before NOW), per-page "resident data was updated"
#: flag, and a second invalidation wave applied after the first scan.
block_state = st.tuples(
    st.lists(st.booleans(), min_size=PAGES * SPP, max_size=PAGES * SPP),
    st.lists(st.integers(min_value=0, max_value=90),
             min_size=PAGES * SPP, max_size=PAGES * SPP),
    st.lists(st.booleans(), min_size=PAGES, max_size=PAGES),
    st.lists(st.booleans(), min_size=PAGES * SPP, max_size=PAGES * SPP),
)

region = st.lists(block_state, min_size=1, max_size=8)


def build_block(block_id, state):
    """A FULL SLC block with the given invalidation/age pattern."""
    invalid, times, updated, _late = state
    block = Block(block_id, CellMode.SLC, PAGES, SPP)
    block.open_as(1, 0.0)
    lsn = block_id * PAGES * SPP
    for page in range(PAGES):
        block.program_disturb(
            page, list(range(SPP)),
            list(range(lsn + page * SPP, lsn + (page + 1) * SPP)), 0.0, SPP)
        if updated[page]:
            block.mark_page_updated(page)
    for page in range(PAGES):
        for slot in range(SPP):
            block.slot_time[page, slot] = float(times[page * SPP + slot])
            if invalid[page * SPP + slot]:
                block.invalidate(page, slot)
    return block


def apply_late_invalidations(blocks, states):
    """Second mutation wave: a scan must see content changed since the
    last one (ISR's stored-IS' cache keys on ``content_epoch``)."""
    for block, (_invalid, _times, _updated, late) in zip(blocks, states):
        for page in range(PAGES):
            for slot in range(SPP):
                if late[page * SPP + slot] and block.valid[page, slot]:
                    block.invalidate(page, slot)


# -- naive references (ascending block_id; strict > keeps lowest id) ----

def ref_greedy(blocks):
    best, best_score = None, 0
    for block in sorted(blocks, key=lambda b: b.block_id):
        score = block.total_subpages - block.n_valid
        if score > best_score:
            best, best_score = block, score
    return best


def ref_greedy_page(blocks):
    best, best_score = None, 0
    for block in sorted(blocks, key=lambda b: b.block_id):
        score = block.pages - block.pages_with_valid
        if score > best_score:
            best, best_score = block, score
    return best


def ref_isr(blocks, now):
    ordered = sorted(blocks, key=lambda b: b.block_id)
    total_age, total_count = 0.0, 0
    for block in ordered:  # same accumulation order as the policy
        age_sum, count = block_age_sum(block, now)
        total_age += age_sum
        total_count += count
    t_mean = total_age / total_count if total_count else 0.0
    best, best_score = None, 0.0
    for block in ordered:
        score = (block.n_invalid
                 + block_coldness(block, now, t_mean)) / block.total_subpages
        if score > best_score:
            best, best_score = block, score
    return best


class TestVictimPolicyEquivalence:
    @SETTINGS
    @given(region)
    def test_greedy_matches_reference(self, states):
        blocks = [build_block(i, s) for i, s in enumerate(states)]
        expected = ref_greedy(blocks)
        # The scan must not depend on candidate order (integer scores).
        assert GreedyVictimPolicy().select(blocks[::-1], NOW) is expected
        assert GreedyVictimPolicy().select(blocks, NOW) is expected
        apply_late_invalidations(blocks, states)
        assert GreedyVictimPolicy().select(blocks, NOW) is ref_greedy(blocks)

    @SETTINGS
    @given(region)
    def test_greedy_page_matches_reference(self, states):
        blocks = [build_block(i, s) for i, s in enumerate(states)]
        expected = ref_greedy_page(blocks)
        assert GreedyPageVictimPolicy().select(blocks[::-1], NOW) is expected
        assert GreedyPageVictimPolicy().select(blocks, NOW) is expected
        apply_late_invalidations(blocks, states)
        assert (GreedyPageVictimPolicy().select(blocks, NOW)
                is ref_greedy_page(blocks))

    @SETTINGS
    @given(region)
    def test_isr_matches_reference(self, states):
        # ISR candidates keep ascending-id order (as victim_candidates
        # serves them): the region-mean accumulation is a float sum, so
        # only the documented order is bit-reproducible.
        blocks = [build_block(i, s) for i, s in enumerate(states)]
        assert IsrVictimPolicy().select(blocks, NOW) is ref_isr(blocks, NOW)
        apply_late_invalidations(blocks, states)
        assert IsrVictimPolicy().select(blocks, NOW) is ref_isr(blocks, NOW)

    @SETTINGS
    @given(region)
    def test_modelled_scan_cost_counts_candidates(self, states):
        # The Figure 12 cost model charges every candidate examined,
        # whatever the scan found; ISR pays 2.5x per block for reading
        # the stored IS' record.
        blocks = [build_block(i, s) for i, s in enumerate(states)]
        greedy, isr = GreedyVictimPolicy(), IsrVictimPolicy()
        for policy in (greedy, isr):
            policy.select(blocks, NOW)
            policy.select(blocks[:1], NOW)
            assert policy.scans == 2
            assert policy.scanned_blocks == len(blocks) + 1
        assert isr.modelled_scan_ms == pytest.approx(
            2.5 * greedy.modelled_scan_ms)


#: A device small enough for random steps to fill blocks: 4 blocks (2
#: SLC-mode) of 2 pages.
TINY_GEOMETRY = GeometryConfig(channels=2, chips_per_channel=1,
                               planes_per_chip=1, total_blocks=4,
                               slc_pages_per_block=2, mlc_pages_per_block=2)
#: Programs weighted up, so blocks reach FULL before they are recycled.
OPS = ("program",) * 3 + ("invalidate", "mark_victim", "erase", "retire")

#: (operation, block id, slot count or pick) steps.
lifecycle = st.lists(st.tuples(st.sampled_from(OPS), st.integers(0, 3),
                               st.integers(1, SPP)), min_size=20, max_size=80)


def apply_op(flash, op, block_id, k, now):
    """One lifecycle step on ``block_id``; a step its state forbids is
    skipped, so every drawn sequence is a legal device history."""
    block = flash.block(block_id)
    state = block.state
    if op == "program":
        if state is BlockState.FREE:
            block.open_as(1, now)
        if block.state is BlockState.OPEN:
            lsn = int(now) * SPP
            block.program_disturb(block.next_page, list(range(k)),
                                  list(range(lsn, lsn + k)), now, SPP)
    elif op == "invalidate":
        valid = [(page, slot) for page in range(block.next_page)
                 for slot in block.valid_slots_of_page(page)]
        if valid:
            block.invalidate(*valid[k % len(valid)])
    elif op == "mark_victim":
        if state is BlockState.FULL:
            block.mark_victim()
    elif op == "erase":
        if state not in (BlockState.FREE, BlockState.RETIRED):
            for page in range(block.next_page):
                block.invalidate_many(page, block.valid_slots_of_page(page))
            flash.erase(block_id)
    elif state is BlockState.FREE and block.erase_count:
        block.retire()  # blocks retire from the just-erased FREE state


class TestVictimCandidates:
    @SETTINGS
    @given(lifecycle)
    def test_candidates_are_the_full_blocks(self, steps):
        flash = FlashArray(SSDConfig(geometry=TINY_GEOMETRY,
                                     cache=CacheConfig(slc_ratio=0.25)))
        allocs = [RegionAllocator(flash, flash.slc_block_ids, "slc"),
                  RegionAllocator(flash, flash.mlc_block_ids, "mlc")]
        for now, (op, block_id, k) in enumerate(steps):
            apply_op(flash, op, block_id, k, float(now))
            for alloc in allocs:
                expected = [flash.block(b) for b in sorted(alloc.block_ids)
                            if flash.block(b).state is BlockState.FULL]
                assert alloc.victim_candidates() == expected
        flash.verify_array_state()


class TestVectorisedAccounting:
    @SETTINGS
    @given(st.lists(st.floats(min_value=0.0, max_value=0.02,
                              allow_nan=False, allow_infinity=False),
                    min_size=1, max_size=32))
    def test_decode_ms_many_matches_scalar(self, rbers):
        config = tiny_config()
        ecc = EccModel(config.timing, config.reliability)
        many = ecc.decode_ms_many(np.array(rbers, dtype=np.float64))
        assert many.shape == (len(rbers),)
        for rber, got in zip(rbers, many):
            assert float(got) == ecc.decode_ms(rber)

    op_record = st.tuples(
        st.sampled_from([OpKind.READ, OpKind.PROGRAM, OpKind.ERASE]),
        st.integers(min_value=0, max_value=3),   # n_slots (0 for erase ok)
        st.booleans(),                           # is_slc
        st.integers(min_value=0, max_value=4),   # transfer_slots
        st.floats(min_value=0.0, max_value=5.0,
                  allow_nan=False, allow_infinity=False),  # ecc_ms
    )

    @SETTINGS
    @given(st.lists(st.tuples(op_record,
                              st.integers(min_value=0, max_value=7),
                              st.floats(min_value=0.0, max_value=20.0,
                                        allow_nan=False,
                                        allow_infinity=False)),
                    min_size=1, max_size=24))
    def test_pricer_matches_scalar(self, specs):
        config = tiny_config()
        timing = TimingModel(config)
        geometry = Geometry(config.geometry)
        expected_rs, pricer_rs = ResourceSet(geometry), ResourceSet(geometry)
        reserve = timing.pricer(pricer_rs).reserve
        for (kind, n_slots, slc, transfer, ecc_ms), block_id, when in specs:
            op = OpRecord(kind=kind, block_id=block_id, page=0,
                          n_slots=n_slots if kind is not OpKind.ERASE else 0,
                          is_slc=slc, cause=Cause.HOST,
                          transfer_slots=transfer,
                          ecc_ms=ecc_ms if kind is OpKind.READ else 0.0)
            _, expected = expected_rs.acquire_for_block(
                block_id, when, timing.duration_ms(op))
            assert reserve(op, when) == expected
        assert [(r.next_free, r.busy_ms, r.operations)
                for r in pricer_rs.chips + pricer_rs.channels] == \
            [(r.next_free, r.busy_ms, r.operations)
             for r in expected_rs.chips + expected_rs.channels]
