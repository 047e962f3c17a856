"""The P/E sweep experiment module (Figures 13/14 internals)."""

import pytest

from repro.experiments import run
from repro.experiments.runner import default_context
from repro.experiments.sweep import PE_LEVELS, SWEEP_LENGTH_FACTOR, SWEEP_TRACES


class TestSweepStructure:
    def test_pe_levels_include_default(self):
        assert 4000 in PE_LEVELS
        assert list(PE_LEVELS) == sorted(PE_LEVELS)

    def test_all_six_traces_swept(self):
        assert len(SWEEP_TRACES) == 6

    def test_context_memoised_per_scale(self):
        sweep = default_context("smoke", 3, SWEEP_LENGTH_FACTOR)
        assert sweep is default_context("smoke", 3, SWEEP_LENGTH_FACTOR)
        assert sweep is not default_context("smoke", 4, SWEEP_LENGTH_FACTOR)
        # The full-length context of the same scale and seed is another.
        assert sweep is not default_context("smoke", 3)

    def test_sweep_uses_shorter_traces(self):
        ctx = default_context("smoke", 3, SWEEP_LENGTH_FACTOR)
        assert ctx.length_factor < 1.0


class TestSweepArtifacts:
    @pytest.fixture(scope="class")
    def fig14(self):
        return run("fig14", scale="smoke", seed=3)

    def test_rows_cover_matrix(self, fig14):
        assert len(fig14.rows) == len(PE_LEVELS) * 3

    def test_error_monotone_in_pe(self, fig14):
        for scheme in ("baseline", "mga", "ipu"):
            means = [float(r["mean"]) for r in fig14.rows
                     if r["Scheme"] == scheme]
            assert means == sorted(means)

    def test_ipu_below_mga_at_every_age(self, fig14):
        by_pe = {}
        for row in fig14.rows:
            by_pe.setdefault(row["P/E"], {})[row["Scheme"]] = float(row["mean"])
        for pe, values in by_pe.items():
            assert values["ipu"] < values["mga"], f"P/E {pe}"

    def test_fig13_latency_monotone(self):
        fig13 = run("fig13", scale="smoke", seed=3)
        for scheme in ("baseline", "mga", "ipu"):
            means = [float(r["mean"]) for r in fig13.rows
                     if r["Scheme"] == scheme]
            assert means[-1] > means[0]

    def test_chart_attached(self, fig14):
        assert "P/E" in fig14.render() or fig14.chart
        assert fig14.chart
