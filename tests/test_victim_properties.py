"""Property tests (hypothesis): the optimised hot-path structures agree
with naive reference implementations over randomized device states.

Three families:

* victim policies — ``select`` (naive scan) and ``select_indexed`` (the
  incremental :class:`~repro.ftl.allocator.VictimIndex` path) must pick
  the block a from-scratch reference scan picks, including the
  lowest-``block_id`` tie-break, before and after further mutations;
* vectorised ECC decode latency — ``decode_ms_many`` must equal the
  scalar ``decode_ms`` element by element, bit for bit;
* fused op pricing — ``OpPricer.reserve`` must equal ``duration_ms``
  plus ``ResourceSet.acquire_for_block`` over random op sequences, end
  times and server clocks bit for bit.
"""

import numpy as np
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.error import EccModel
from repro.ftl.allocator import VictimIndex
from repro.ftl.hotcold import block_age_sum, block_coldness
from repro.ftl.victim import (
    GreedyPageVictimPolicy,
    GreedyVictimPolicy,
    IsrVictimPolicy,
)
from repro.nand.block import Block
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
#: flag, and a second invalidation wave applied after the index exists.
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
        block.program(page, list(range(SPP)),
                      list(range(lsn + page * SPP, lsn + (page + 1) * SPP)),
                      0.0, SPP)
        if updated[page]:
            block.mark_page_updated(page)
    for page in range(PAGES):
        for slot in range(SPP):
            block.touch(page, [slot], float(times[page * SPP + slot]))
            if invalid[page * SPP + slot]:
                block.invalidate(page, slot)
    return block


def apply_late_invalidations(blocks, states):
    """Second mutation wave, exercising the index watcher callbacks."""
    for block, (_invalid, _times, _updated, late) in zip(blocks, states):
        for page in range(PAGES):
            for slot in range(SPP):
                if late[page * SPP + slot] and block.valid[page, slot]:
                    block.invalidate(page, slot)


class _RegionStub:
    """Minimal ``FlashArray`` stand-in: the index only calls ``block``."""

    def __init__(self, blocks):
        self._by_id = {b.block_id: b for b in blocks}

    def block(self, block_id):
        return self._by_id[block_id]


def make_index(blocks):
    return VictimIndex(_RegionStub(blocks), [b.block_id for b in blocks])


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
        # Naive scan must not depend on candidate order (integer scores).
        assert GreedyVictimPolicy().select(blocks[::-1], NOW) is expected
        index = make_index(blocks)
        assert GreedyVictimPolicy().select_indexed(index, NOW) is expected
        apply_late_invalidations(blocks, states)
        assert (GreedyVictimPolicy().select_indexed(index, NOW)
                is ref_greedy(blocks))
        index.verify()

    @SETTINGS
    @given(region)
    def test_greedy_page_matches_reference(self, states):
        blocks = [build_block(i, s) for i, s in enumerate(states)]
        expected = ref_greedy_page(blocks)
        assert GreedyPageVictimPolicy().select(blocks[::-1], NOW) is expected
        index = make_index(blocks)
        assert GreedyPageVictimPolicy().select_indexed(index, NOW) is expected
        apply_late_invalidations(blocks, states)
        assert (GreedyPageVictimPolicy().select_indexed(index, NOW)
                is ref_greedy_page(blocks))
        index.verify()

    @SETTINGS
    @given(region)
    def test_isr_matches_reference(self, states):
        # ISR candidates keep ascending-id order (as victim_candidates
        # serves them): the region-mean accumulation is a float sum, so
        # only the documented order is bit-reproducible.
        blocks = [build_block(i, s) for i, s in enumerate(states)]
        expected = ref_isr(blocks, NOW)
        assert IsrVictimPolicy().select(blocks, NOW) is expected
        index = make_index(blocks)
        assert IsrVictimPolicy().select_indexed(index, NOW) is expected
        apply_late_invalidations(blocks, states)
        assert (IsrVictimPolicy().select_indexed(index, NOW)
                is ref_isr(blocks, NOW))
        index.verify()

    @SETTINGS
    @given(region)
    def test_modelled_scan_cost_counts_candidates(self, states):
        # The Figure 12 cost model charges every candidate examined,
        # independent of the host-side selection shortcut.
        blocks = [build_block(i, s) for i, s in enumerate(states)]
        naive, indexed = GreedyVictimPolicy(), GreedyVictimPolicy()
        naive.select(blocks, NOW)
        indexed.select_indexed(make_index(blocks), NOW)
        assert naive.scanned_blocks == indexed.scanned_blocks == len(blocks)
        assert naive.modelled_scan_ms == indexed.modelled_scan_ms


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
