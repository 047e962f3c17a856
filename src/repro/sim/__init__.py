"""Trace-replay substrate.

FCFS hardware resources with busy-time bookkeeping
(:mod:`repro.sim.resources`), the operation/latency model
(:mod:`repro.sim.ops`, :mod:`repro.sim.timing`), and the trace replay
drivers (:mod:`repro.sim.simulator`) that drive an FTL scheme over a
trace and collect the paper's metrics.
"""

from .. import lazy_exports

_EXPORTS = {
    "Resource": ".resources", "ResourceSet": ".resources",
    "OpKind": ".ops", "Cause": ".ops", "OpRecord": ".ops",
    "TimingModel": ".timing",
    "ClosedLoopReplay": ".simulator", "OpenLoopReplay": ".simulator",
    "Simulator": ".simulator", "SimulationResult": ".simulator",
    "replay": ".simulator",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
