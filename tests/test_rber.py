"""RBER model calibration and monotonicity."""

import numpy as np
import pytest

from repro.config import ReliabilityConfig
from repro.errors import ConfigError
from repro.error.rber import RberModel


@pytest.fixture
def model():
    return RberModel(ReliabilityConfig())


def rbers(model, n_in, n_nb, pe=4000):
    """SLC subpage RBERs at ``pe`` from their disturb counts, as a
    replay prices them."""
    return model.rber_many(pe, True, np.array(n_in, dtype=np.int64),
                           np.array(n_nb, dtype=np.int64)).tolist()


class TestCalibration:
    def test_conventional_anchor(self, model):
        assert model.base(4000) == pytest.approx(2.8e-4, rel=1e-9)

    def test_partial_anchor(self, model):
        assert model.partial_typical(4000) == pytest.approx(3.8e-4, rel=1e-9)

    def test_fresh_value(self, model):
        assert model.base(0) == pytest.approx(1e-5)

    def test_disturb_unit_at_reference(self, model):
        # (3.8e-4 - 2.8e-4) spread over max_page_programs - 1 = 3 passes.
        assert model.disturb_unit(4000) == pytest.approx(1e-4 / 3)


class TestMonotonicity:
    def test_base_increases_with_pe(self, model):
        values = [model.base(pe) for pe in (0, 1000, 2000, 4000, 8000)]
        assert all(b > a for a, b in zip(values, values[1:]))

    def test_partial_above_conventional(self, model):
        for pe in (500, 1000, 4000, 8000):
            assert model.partial_typical(pe) > model.base(pe)

    def test_gap_widens_with_pe(self, model):
        """Section 2.2: the difference grows as P/E grows."""
        gaps = [model.partial_typical(pe) - model.base(pe)
                for pe in (1000, 2000, 4000, 8000)]
        assert all(b > a for a, b in zip(gaps, gaps[1:]))

    def test_disturb_raises_rber(self, model):
        base, in_page, neighbor = rbers(model, [0, 1, 0], [0, 0, 1])
        assert base == model.base(4000)
        assert in_page > base
        assert neighbor > base

    def test_neighbor_weaker_than_in_page(self, model):
        _, in_page, neighbor = rbers(model, [0, 1, 0], [0, 0, 1])
        assert neighbor < in_page

    def test_mlc_factor(self):
        import dataclasses
        cfg = dataclasses.replace(ReliabilityConfig(), mlc_rber_factor=2.0)
        model = RberModel(cfg)
        assert model.base(4000, slc=False) == pytest.approx(2 * model.base(4000, slc=True))

    def test_negative_pe_rejected(self, model):
        with pytest.raises(ConfigError):
            model.base(-1)


class TestVectorized:
    def test_curve_shape(self, model):
        curves = model.curve([1000, 2000, 4000])
        assert len(curves["pe"]) == 3
        assert (curves["partial"] > curves["conventional"]).all()

    def test_curve_hits_figure2_point(self, model):
        curves = model.curve([4000])
        assert curves["conventional"][0] == pytest.approx(2.8e-4)
        assert curves["partial"][0] == pytest.approx(3.8e-4)


class TestConsistencyWithSubpageModel:
    def test_full_budget_subpage_equals_partial_curve(self, model):
        """A subpage that absorbed (max_programs - 1) in-page events sits
        exactly on the partial-programming curve."""
        (value,) = rbers(model, [3], [0])
        assert value == pytest.approx(model.partial_typical(4000))
