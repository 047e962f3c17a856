"""Closed-loop (queue-depth) replay mode."""

import numpy as np
import pytest

from repro import SCHEMES, Simulator
from repro.errors import SimulationError
from repro.experiments.runner import RunContext
from repro.faults import FaultConfig, attach_faults
from repro.traces import generate, profile

from conftest import tiny_config


def small_trace(n=800):
    return generate(profile("ts0"), n_requests=n, seed=4,
                    mean_interarrival_ms=0.5)


class TestClosedLoop:
    def test_runs_all_requests(self, scheme_name):
        result = Simulator(SCHEMES[scheme_name](tiny_config())).run_closed(
            small_trace(), queue_depth=4)
        assert result.n_requests == 800

    def test_qd1_is_serial(self):
        """At queue depth 1 every request waits for its predecessor, so
        the makespan is at least the sum of latencies."""
        result = Simulator(SCHEMES["ipu"](tiny_config())).run_closed(
            small_trace(200), queue_depth=1)
        total = result.read_latencies.sum() + result.write_latencies.sum()
        assert result.sim_time_ms >= total * 0.999

    def test_deeper_queue_finishes_sooner(self):
        times = {}
        for qd in (1, 8):
            result = Simulator(SCHEMES["ipu"](tiny_config())).run_closed(
                small_trace(), queue_depth=qd)
            times[qd] = result.sim_time_ms
        assert times[8] < times[1]

    def test_throughput_saturates(self):
        """Beyond the device's parallelism, more QD cannot help much."""
        times = {}
        for qd in (8, 64):
            result = Simulator(SCHEMES["ipu"](tiny_config())).run_closed(
                small_trace(), queue_depth=qd)
            times[qd] = result.sim_time_ms
        assert times[64] >= times[8] * 0.5

    def test_state_consistent_after_closed_replay(self, scheme_name):
        ftl = SCHEMES[scheme_name](tiny_config())
        Simulator(ftl).run_closed(small_trace(), queue_depth=8)
        ftl.check_consistency()

    def test_error_metric_matches_open_loop(self):
        """The error metric is timing-independent: open- and closed-loop
        replays of one trace see the same data placement history only if
        GC decisions coincide; at minimum both must be positive and of the
        same magnitude."""
        trace = small_trace()
        open_res = Simulator(SCHEMES["ipu"](tiny_config())).run(trace)
        closed_res = Simulator(SCHEMES["ipu"](tiny_config())).run_closed(
            trace, queue_depth=8)
        assert closed_res.read_error_rate == pytest.approx(
            open_res.read_error_rate, rel=0.2)

    def test_invalid_queue_depth(self):
        with pytest.raises(SimulationError):
            Simulator(SCHEMES["ipu"](tiny_config())).run_closed(
                small_trace(100), queue_depth=0)

    def test_observer_invoked(self):
        calls = []
        sim = Simulator(SCHEMES["ipu"](tiny_config()),
                        observer=lambda i, t: calls.append(i))
        sim.run_closed(small_trace(100), queue_depth=4)
        assert len(calls) == 100

    def test_latencies_positive(self):
        result = Simulator(SCHEMES["mga"](tiny_config())).run_closed(
            small_trace(300), queue_depth=16)
        assert (result.write_latencies > 0).all()
        assert (result.read_latencies > 0).all()


class TestClosedLoopPowerLoss:
    """Power loss strikes at issue times, as it strikes an open loop at
    arrivals."""

    POWER_LOSS = FaultConfig(power_loss_per_ms=0.05)

    def test_run_closed_injects_power_loss(self):
        trace = generate(profile("ts0"), n_requests=2000, seed=11,
                         mean_interarrival_ms=0.6)
        ftl = SCHEMES["ipu"](tiny_config())
        attach_faults(ftl, self.POWER_LOSS)
        result = Simulator(ftl).run_closed(trace, queue_depth=8)
        assert result.power_loss_events > 0
        assert result.recovery_ms > 0
        ftl.check_consistency()

    def test_run_context_closed_cell_injects_power_loss(self):
        ctx = RunContext(scale="smoke", seed=7, length_factor=0.25,
                         faults=self.POWER_LOSS)
        assert ctx.run("ts0", "ipu", queue_depth=8).power_loss_events > 0
