"""Cell-mode properties."""

from repro.nand.cell import CellMode


class TestCellMode:
    def test_is_slc(self):
        assert CellMode.SLC.is_slc
        assert not CellMode.MLC.is_slc

    def test_pages_per_block_selector(self):
        assert CellMode.SLC.pages_per_block(64, 128) == 64
        assert CellMode.MLC.pages_per_block(64, 128) == 128
