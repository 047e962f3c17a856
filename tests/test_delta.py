"""Delta scheme (Zhang et al. FAST'16 in-place delta compression)."""

import pytest

from repro import DeltaFTL, IPUFTL, Simulator
from repro.ftl.delta import DELTA_LSN
from repro.sim.ops import OpKind
from repro.traces import generate, profile

from conftest import tiny_config


@pytest.fixture
def ftl():
    return DeltaFTL(tiny_config())


def chain_length(ftl, lsn):
    """Deltas stacked on ``lsn``'s page (0 = original only)."""
    ppa = ftl.lookup(lsn)
    if ppa is None:
        return 0
    return ftl._delta_state.get((ppa.block, ppa.page), (0, 0, 0))[2]


class TestDeltaAppend:
    def test_update_stays_in_place(self, ftl):
        ftl.handle_write([0], 0.0)
        before = ftl.lookup(0)
        ftl.handle_write([0], 1.0)
        assert ftl.lookup(0) == before          # mapping unchanged
        assert chain_length(ftl, 0) == 1

    def test_append_is_partial_program(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        assert ftl.flash.partial_programs == 1

    def test_disturbs_valid_originals(self, ftl):
        """The behaviour IPU eliminates: deltas land next to live data."""
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        assert ftl.flash.disturbed_valid_subpages >= 1

    def test_deltas_pack_bytewise(self, ftl):
        # delta_ratio=0.35: two 4K deltas (1434 B each) share one slot.
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        ftl.handle_write([0], 2.0)
        ppa = ftl.lookup(0)
        state = ftl._delta_state[(ppa.block, ppa.page)]
        assert state[2] == 2          # chain length
        assert state[1] == 1          # still one delta slot

    def test_delta_slots_carry_sentinel(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        ppa = ftl.lookup(0)
        block = ftl.flash.block(ppa.block)
        assert DELTA_LSN in set(int(x) for x in block.slot_lsn[ppa.page])

    def test_chain_bounded_by_pass_limit(self, ftl):
        ftl.handle_write([0], 0.0)
        for t in range(1, 4):
            ftl.handle_write([0], float(t))
        assert chain_length(ftl, 0) == 3
        # Fourth update cannot take another pass: falls out of place.
        before = ftl.lookup(0)
        ftl.handle_write([0], 4.0)
        assert ftl.lookup(0) != before
        assert chain_length(ftl, 0) == 0

    def test_capacity_overflow_falls_out_of_place(self):
        ftl = DeltaFTL(tiny_config(), delta_ratio=1.0)
        ftl.handle_write([0, 1, 2], 0.0)   # one free slot = 4096 B
        before = ftl.lookup(0)
        # A full-size delta of a 3-subpage chunk (12 KiB) cannot fit.
        ftl.handle_write([0, 1, 2], 1.0)
        assert ftl.lookup(0) != before

    def test_partial_chunk_update_ok(self, ftl):
        """Deltas are diffs against the original, so unlike IPU a partial
        rewrite can stay in place."""
        ftl.handle_write([0, 1], 0.0)
        before = ftl.lookup(1)
        ftl.handle_write([0], 1.0)
        assert ftl.lookup(1) == before
        assert chain_length(ftl, 0) == 1

    def test_invalid_ratio_rejected(self):
        with pytest.raises(ValueError):
            DeltaFTL(tiny_config(), delta_ratio=0.0)


class TestReadPath:
    def test_read_charges_delta_transfer(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        ops = ftl.handle_read([0], 2.0)
        read = next(o for o in ops if o.kind is OpKind.READ)
        assert read.channel_slots == 2   # original + delta slot

    def test_read_without_chain_unchanged(self, ftl):
        ftl.handle_write([0], 0.0)
        ops = ftl.handle_read([0], 1.0)
        read = next(o for o in ops if o.kind is OpKind.READ)
        assert read.channel_slots == 1


class TestGC:
    def test_consolidation_preserves_data(self, ftl):
        lsn, t = 0, 0.0
        written = []
        for i in range(1500):
            ftl.handle_write([lsn], t)
            written.append(lsn)
            lsn += 4
            t += 0.5
        assert ftl.flash.erases_slc > 0
        for w in written:
            assert ftl.lookup(w) is not None
        ftl.check_consistency()

    def test_chain_dropped_after_relocation(self, ftl):
        ftl.handle_write([0], 0.0)
        ftl.handle_write([0], 1.0)
        ppa = ftl.lookup(0)
        victim = ftl.flash.block(ppa.block)
        # Drain the page via the relocation path directly.
        from repro.nand.block import BlockState
        while not victim.is_full:
            victim.program_disturb(victim.next_page, [0], [999], 0.0, 4)
            ftl.flash.invalidate(victim.block_id, victim.next_page - 1, 0)
        victim.state = BlockState.VICTIM
        ftl._relocate_slc_page(victim, ppa.page,
                               victim.valid_slots_of_page(ppa.page),
                               [0], 2.0, None)
        assert chain_length(ftl, 0) == 0
        new = ftl.lookup(0)
        assert new.block != ppa.block or new.page != ppa.page


class TestComparativeBehaviour:
    def test_delta_disturbs_ipu_does_not(self):
        trace = generate(profile("ts0"), n_requests=1500, seed=12,
                         mean_interarrival_ms=1.0)
        delta_ftl = DeltaFTL(tiny_config())
        ipu_ftl = IPUFTL(tiny_config())
        delta_res = Simulator(delta_ftl).run(trace)
        ipu_res = Simulator(ipu_ftl).run(trace)
        assert delta_ftl.flash.disturbed_valid_subpages > 0
        assert ipu_ftl.flash.disturbed_valid_subpages == 0
        assert delta_res.read_error_rate > ipu_res.read_error_rate
