"""ISR arithmetic (Equations 1 and 2)."""

import math

import numpy as np
import pytest

from repro.ftl.hotcold import coldness_weight
from repro.nand.block import Block
from repro.nand.cell import CellMode

from reference_isr import block_coldness, block_isr


def make_block(pages=4, spp=4):
    block = Block(0, CellMode.SLC, pages, spp)
    block.open_as(1)
    return block


class TestColdnessWeight:
    def test_zero_age(self):
        assert coldness_weight(np.array([0.0]), 10.0)[0] == 0.0

    def test_approaches_one(self):
        assert coldness_weight(np.array([1e9]), 1.0)[0] == pytest.approx(1.0)

    def test_formula(self):
        t, T = 5.0, 10.0
        expected = 1 - math.exp(-t / T)
        assert coldness_weight(np.array([t]), T)[0] == pytest.approx(expected)

    def test_monotone_in_age(self):
        ages = np.array([1.0, 2.0, 4.0, 8.0])
        weights = coldness_weight(ages, 3.0)
        assert (np.diff(weights) > 0).all()

    def test_degenerate_mean(self):
        assert (coldness_weight(np.array([1.0, 2.0]), 0.0) == 0.0).all()


class TestBlockColdness:
    def test_empty_block(self):
        assert block_coldness(make_block(), 10.0) == 0.0

    def test_uniform_ages(self):
        block = make_block()
        block.program_disturb(0, [0, 1], [1, 2], 0.0, 4)
        # Ages both 10, T = 10 => each weight = 1 - e^-1.
        value = block_coldness(block, 10.0)
        assert value == pytest.approx(2 * (1 - math.exp(-1)))

    def test_updated_pages_excluded(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        block.program_disturb(1, [0], [2], 0.0, 4)
        block.mark_page_updated(0)
        full = block_coldness(block, 10.0)
        # Only page 1's subpage contributes.
        assert full == pytest.approx(1 - math.exp(-1))

    def test_all_updated_gives_zero(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        block.mark_page_updated(0)
        assert block_coldness(block, 10.0) == 0.0

    def test_mlc_block_rejected(self):
        block = Block(0, CellMode.MLC, 4, 4)
        with pytest.raises(ValueError):
            block_coldness(block, 1.0)

    def test_recent_access_reduces_coldness(self):
        cold = make_block()
        cold.program_disturb(0, [0], [1], 0.0, 4)
        warm = make_block()
        warm.program_disturb(0, [0], [1], 0.0, 4)
        warm.slot_time[0, 0] = 9.0
        # Shared region mean T makes ages comparable across blocks.
        t_mean = 5.5
        assert (block_coldness(warm, 10.0, t_mean)
                < block_coldness(cold, 10.0, t_mean))

    def test_block_local_mean_is_default(self):
        block = make_block()
        block.program_disturb(0, [0], [1], 0.0, 4)
        import math
        # Single uniform-age subpage: t/T = 1 under the self-normalised
        # variant, regardless of the absolute age.
        assert block_coldness(block, 50.0) == pytest.approx(1 - math.exp(-1))


class TestBlockIsr:
    def test_figure4_style_comparison(self):
        """A block with equal invalid count but cold valid data scores
        higher (the paper's GC candidate B beats candidate A)."""
        a = make_block()
        b = make_block()
        for blk in (a, b):
            blk.program_disturb(0, [0, 1], [1, 2], 0.0, 4)
            blk.invalidate(0, 0)
        # Block A's survivor was accessed recently; B's has been idle.
        a.slot_time[0, 1] = 99.0
        t_mean = 50.0
        assert block_isr(b, 100.0, t_mean) > block_isr(a, 100.0, t_mean)

    def test_invalid_dominates(self):
        block = make_block()
        block.program_disturb(0, [0, 1, 2, 3], [1, 2, 3, 4], 0.0, 4)
        before = block_isr(block, 10.0)
        block.invalidate(0, 0)
        assert block_isr(block, 10.0) > before

    def test_bounds(self):
        block = make_block(pages=1)
        block.program_disturb(0, [0, 1, 2, 3], [1, 2, 3, 4], 0.0, 4)
        for slot in range(4):
            block.invalidate(0, slot)
        assert block_isr(block, 10.0) == pytest.approx(1.0)

    def test_empty_block_zero(self):
        assert block_isr(make_block(), 5.0) == 0.0

    def test_worked_example(self):
        """ISR = (IS + IS') / TS with explicit numbers."""
        block = make_block(pages=1)  # TS = 4
        block.program_disturb(0, [0, 1, 2], [1, 2, 3], 0.0, 4)
        block.invalidate(0, 0)       # IS = 1
        now = 10.0                   # both survivors age 10, T = 10
        is_prime = 2 * (1 - math.exp(-1.0))
        assert block_isr(block, now) == pytest.approx((1 + is_prime) / 4)
