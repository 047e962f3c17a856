"""Property-based tests (hypothesis).

The central property: every FTL scheme, fed an arbitrary interleaving of
writes and reads over a small logical space, must behave like a dict —
after any prefix of operations, each written logical subpage maps to
exactly one valid physical subpage that still records its LSN, no matter
how much garbage collection, promotion or eviction happened in between.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SCHEMES
from repro.nand.block import Block, BlockState
from repro.nand.cell import CellMode
from repro.traces import characterize, generate, profile

from conftest import programmed_matrix, tiny_config

# Logical space: 48 subpages (12 logical pages) — small enough that random
# workloads revisit addresses and trigger updates, promotions and GC.
LSN_SPACE = 48

write_op = st.tuples(
    st.just("w"),
    st.integers(min_value=0, max_value=LSN_SPACE - 1),
    st.integers(min_value=1, max_value=4),
)
read_op = st.tuples(
    st.just("r"),
    st.integers(min_value=0, max_value=LSN_SPACE - 1),
    st.integers(min_value=1, max_value=4),
)
workload = st.lists(st.one_of(write_op, read_op), min_size=1, max_size=120)


def run_workload(scheme, ops):
    ftl = SCHEMES[scheme](tiny_config())
    oracle = {}
    now = 0.0
    for kind, lsn, length in ops:
        lsns = [l for l in range(lsn, min(lsn + length, LSN_SPACE))]
        if kind == "w":
            ftl.handle_write(lsns, now)
            stamp = now
            for l in lsns:
                oracle[l] = stamp
        else:
            ftl.handle_read(lsns, now)
        now += 0.5
    return ftl, oracle


@pytest.mark.parametrize("scheme", ["baseline", "mga", "ipu", "delta"])
class TestFtlVersusOracle:
    @given(ops=workload)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_read_your_writes(self, scheme, ops):
        ftl, oracle = run_workload(scheme, ops)
        for lsn in oracle:
            ppa = ftl.lookup(lsn)
            assert ppa is not None, f"{scheme}: LSN {lsn} unmapped"
            block = ftl.flash.block(ppa.block)
            assert block.valid[ppa.page, ppa.slot]
            assert int(block.slot_lsn[ppa.page, ppa.slot]) == lsn

    @given(ops=workload)
    @settings(max_examples=40, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_unwritten_stays_unmapped(self, scheme, ops):
        ftl, oracle = run_workload(scheme, ops)
        for lsn in range(LSN_SPACE):
            if lsn not in oracle:
                assert ftl.lookup(lsn) is None

    @given(ops=workload)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_consistency_invariant(self, scheme, ops):
        ftl, _ = run_workload(scheme, ops)
        ftl.check_consistency()

    @given(ops=workload)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_flash_invariants(self, scheme, ops):
        ftl, _ = run_workload(scheme, ops)
        limit = ftl.config.reliability.max_page_programs
        for block in ftl.flash.blocks:
            prog = programmed_matrix(block)
            # Counter consistency.
            assert block.n_valid == int(block.valid.sum())
            assert block.n_programmed == int(prog.sum())
            assert block.n_invalid == block.n_programmed - block.n_valid
            # Valid implies programmed.
            assert not (block.valid & ~prog).any()
            # Sequential programming: nothing beyond next_page.
            if block.next_page < block.pages:
                assert not prog[block.next_page:].any()
            # Manufacturer pass limit.
            assert max(block.pass_counts) <= limit
            # MLC pages receive at most one pass.
            if not block.mode.is_slc:
                assert max(block.pass_counts) <= 1


class TestIpuSpecificProperties:
    @given(ops=workload)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ipu_never_disturbs_valid_in_page_data(self, ops):
        ftl, _ = run_workload("ipu", ops)
        assert ftl.flash.disturbed_valid_subpages == 0

    @given(ops=workload)
    @settings(max_examples=25, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_ipu_slc_pages_hold_one_chunk(self, ops):
        """An IPU SLC page only holds subpages of one logical page."""
        ftl, _ = run_workload("ipu", ops)
        spp = ftl.geometry.subpages_per_page
        for block in ftl.flash.region_blocks(True):
            for page in range(block.next_page):
                lpns = {int(block.slot_lsn[page, s]) // spp
                        for s in block.valid_slots_of_page(page)}
                assert len(lpns) <= 1


class TestGeneratorProperties:
    @given(
        name=st.sampled_from(["ts0", "wdev0", "lun1", "usr0", "lun2", "ads"]),
        n=st.integers(min_value=500, max_value=4000),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_marginals_hold_for_any_seed(self, name, n, seed):
        prof = profile(name)
        trace = generate(prof, n_requests=n, seed=seed)
        stats = characterize(trace)
        assert len(trace) == n
        assert stats.write_ratio == pytest.approx(prof.write_ratio, abs=0.02)
        assert stats.hot_write_ratio == pytest.approx(
            prof.hot_write_ratio, abs=0.08)
        assert (trace.sizes % 4096 == 0).all()
        assert (np.diff(trace.times_ms) >= 0).all()

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=15, deadline=None)
    def test_first_write_precedes_updates(self, seed):
        trace = generate(profile("ts0"), n_requests=800, seed=seed)
        sizes_at_first = {}
        for i in range(len(trace)):
            if not trace.is_write[i]:
                continue
            off = int(trace.offsets[i])
            if off in sizes_at_first:
                assert int(trace.sizes[i]) == sizes_at_first[off]
            else:
                sizes_at_first[off] = int(trace.sizes[i])


class TestIsrProperties:
    @given(
        ages=st.lists(st.floats(min_value=0.0, max_value=1e6),
                      min_size=1, max_size=16),
        t_mean=st.floats(min_value=1e-3, max_value=1e6),
    )
    @settings(max_examples=50, deadline=None)
    def test_coldness_weight_bounds(self, ages, t_mean):
        from repro.ftl.hotcold import coldness_weight
        weights = coldness_weight(np.array(ages), t_mean)
        assert ((weights >= 0.0) & (weights < 1.0 + 1e-12)).all()

    @given(
        n_valid=st.integers(min_value=0, max_value=8),
        n_invalid=st.integers(min_value=0, max_value=8),
        now=st.floats(min_value=1.0, max_value=1e5),
    )
    @settings(max_examples=50, deadline=None)
    def test_isr_bounds(self, n_valid, n_invalid, now):
        from repro.ftl.hotcold import block_isr
        block = Block(0, CellMode.SLC, 4, 4)
        block.open_as(1)
        total = n_valid + n_invalid
        placed = 0
        for page in range(4):
            slots = list(range(min(4, total - placed)))
            if not slots:
                break
            block.program_disturb(page, slots, [placed + s for s in slots],
                                  0.0, 4)
            placed += len(slots)
        invalidated = 0
        for page in range(4):
            for slot in block.valid_slots_of_page(page):
                if invalidated >= n_invalid:
                    break
                block.invalidate(page, slot)
                invalidated += 1
        score = block_isr(block, now)
        assert 0.0 <= score <= 1.0 + 1e-9
