"""Trace replay: latency accounting and result aggregation."""

import gc
import weakref

import numpy as np
import pytest

from repro import SCHEMES, Simulator
from repro.errors import ConfigError, SimulationError
from repro.faults import FaultConfig, attach_faults
from repro.frontend import FrontendConfig
from repro.frontend.simulate import FrontendSimulator
from repro.sim import simulator as simulator_mod
from repro.traces import generate, profile
from repro.traces.model import Trace

from conftest import tiny_config


def small_trace(n=600, seed=4):
    return generate(profile("ts0"), n_requests=n, seed=seed,
                    mean_interarrival_ms=0.8)


class TestReplay:
    def test_all_requests_served(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        trace = small_trace()
        result = Simulator(ftl).run(trace)
        assert result.n_requests == len(trace)
        assert len(result.read_latencies) == trace.n_reads
        assert len(result.write_latencies) == trace.n_writes

    def test_latencies_positive(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        result = Simulator(ftl).run(small_trace())
        assert (result.read_latencies > 0).all()
        assert (result.write_latencies > 0).all()

    def test_write_latency_at_least_program_time(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        result = Simulator(ftl).run(small_trace())
        assert result.write_latencies.min() >= 0.3

    def test_read_latency_at_least_media_time(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        result = Simulator(ftl).run(small_trace())
        assert result.read_latencies.min() >= 0.025

    def test_deterministic(self, scheme_name):
        cfg = tiny_config()
        r1 = Simulator(SCHEMES[scheme_name](cfg)).run(small_trace())
        r2 = Simulator(SCHEMES[scheme_name](cfg)).run(small_trace())
        assert np.array_equal(r1.read_latencies, r2.read_latencies)
        assert np.array_equal(r1.write_latencies, r2.write_latencies)
        assert r1.read_error_rate == r2.read_error_rate

    def test_error_metric_accumulates_only_on_reads(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        result = Simulator(ftl).run(small_trace())
        assert result.read_bits > 0
        assert result.read_raw_errors > 0
        assert 1e-6 < result.read_error_rate < 1e-2

    def test_mapping_memory_filled(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        result = Simulator(ftl).run(small_trace(n=100))
        assert result.mapping_table_bytes > 0

    def test_summary_keys(self):
        result = Simulator(SCHEMES["ipu"](tiny_config())).run(small_trace(n=100))
        summary = result.summary()
        for key in ("scheme", "trace", "avg_latency_ms", "read_error_rate",
                    "erases_slc", "slc_page_utilization"):
            assert key in summary

    def test_replay_helper(self):
        result = Simulator(SCHEMES["baseline"](tiny_config())).run(small_trace(n=50))
        assert result.scheme == "baseline"
        assert result.trace_name == "ts0"


class TestGcAccounting:
    def test_gc_delays_later_requests_not_trigger(self):
        """GC runs in the background: the op stream still reserves chips,
        so sustained GC shows up as queueing for subsequent requests."""
        cfg = tiny_config()
        ftl = SCHEMES["baseline"](cfg)
        result = Simulator(ftl).run(small_trace(n=2500))
        assert ftl.flash.erases_slc > 0
        # Queueing exists: the mean exceeds the bare service time.
        assert result.avg_write_latency_ms > 0.3

    def test_sim_time_spans_trace(self):
        trace = small_trace(n=200)
        result = Simulator(SCHEMES["mga"](tiny_config())).run(trace)
        assert result.sim_time_ms >= float(trace.times_ms[-1])


class TestEmptyAndEdge:
    def test_single_request(self):
        trace = Trace([0.0], [True], [0], [4096], name="one")
        result = Simulator(SCHEMES["ipu"](tiny_config())).run(trace)
        assert result.n_requests == 1
        assert result.avg_read_latency_ms == 0.0

    def test_read_only_trace(self):
        trace = Trace([0.0, 1.0], [False, False], [0, 8192],
                      [4096, 4096], name="ro")
        result = Simulator(SCHEMES["baseline"](tiny_config())).run(trace)
        assert result.read_bits == 2 * 4096 * 8
        assert result.programs_slc == 0


@pytest.mark.parametrize("driver", ["open", "closed", "frontend"])
@pytest.mark.parametrize("column, value", [("offsets", -4096),
                                           ("sizes", 0)])
def test_bad_extent_raises_the_scalar_error(driver, column, value):
    """Every replay computes a chunk's extents in one vectorised pass; a
    bad extent (here patched in after the trace validated) still raises
    ``Geometry.byte_range_to_lsns``'s error, before any request runs."""
    trace = small_trace(n=50)
    getattr(trace, column)[7] = value
    ftl = SCHEMES["ipu"](tiny_config())
    with pytest.raises(ConfigError, match="invalid byte extent"):
        if driver == "open":
            Simulator(ftl).run(trace)
        elif driver == "closed":
            Simulator(ftl).run_closed(trace, queue_depth=4)
        else:
            FrontendSimulator(ftl, FrontendConfig.from_qd(4)).run(trace)
    assert ftl.stats.host_write_requests == 0
    assert ftl.stats.host_read_requests == 0


def _windowed_replay(driver, faulty):
    """One replay's deterministic result and the request indices its
    observer saw (the front end has no observer)."""
    ftl = SCHEMES["ipu"](tiny_config(seed=3))
    if faulty:
        attach_faults(ftl, FaultConfig.from_rate(3.0), seed=5)
    trace = small_trace(n=1500)
    seen = []

    def observer(index, now):
        seen.append(index)

    if driver == "open":
        result = Simulator(ftl, observer=observer).run(trace)
    elif driver == "closed":
        result = Simulator(ftl, observer=observer).run_closed(
            trace, queue_depth=4)
    else:
        result = FrontendSimulator(ftl, FrontendConfig.from_qd(4)).run(trace)
    return result.deterministic_dict(), seen


@pytest.mark.parametrize("faulty", [False, True], ids=["fault-free", "faulty"])
@pytest.mark.parametrize("driver", ["open", "closed", "frontend"])
def test_window_boundaries_are_invisible(driver, faulty, monkeypatch):
    """A driver turns its chunk into python lists one row window at a
    time; a 7-row window must replay exactly as one window holding the
    whole 1,500-request trace."""
    expected, seen = _windowed_replay(driver, faulty)
    assert simulator_mod.WINDOW_ROWS > 1500
    assert seen == ([] if driver == "frontend" else list(range(1500)))
    assert (expected["power_loss_events"] > 0) is faulty
    monkeypatch.setattr(simulator_mod, "WINDOW_ROWS", 7)
    assert _windowed_replay(driver, faulty) == (expected, seen)


class TestFinishedFrontendReplay:
    """``finish()`` ends a front-end replay: only then is there a result,
    nothing more can be fed, and nothing in the scheduler points back at
    the replay."""

    def test_refuses_more_input(self):
        sim = FrontendSimulator(SCHEMES["ipu"](tiny_config()),
                                FrontendConfig.from_qd(2))
        trace = small_trace()
        first = sim.run(trace).deterministic_dict()
        assert first["n_requests"] == len(trace)
        with pytest.raises(SimulationError, match="finished"):
            sim.run(trace)
        with pytest.raises(SimulationError, match="finished"):
            sim.feed(trace)
        assert sim.result(trace.name).deterministic_dict() == first

    def test_unfinished_replay_has_no_result(self):
        sim = FrontendSimulator(SCHEMES["ipu"](tiny_config()),
                                FrontendConfig.from_qd(2))
        sim.feed(small_trace(n=100))
        with pytest.raises(SimulationError, match="finish"):
            sim.result("partial")

    def test_finished_replay_is_freed_without_the_collector(self):
        sim = FrontendSimulator(SCHEMES["ipu"](tiny_config()),
                                FrontendConfig.from_qd(2))
        sim.run(small_trace(n=100))
        ref = weakref.ref(sim)
        enabled = gc.isenabled()
        gc.disable()
        try:
            del sim
            assert ref() is None
        finally:
            if enabled:
                gc.enable()
