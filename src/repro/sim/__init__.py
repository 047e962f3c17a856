"""Trace-replay substrate.

FCFS hardware resources with busy-time bookkeeping
(:mod:`repro.sim.resources`), the operation/latency model
(:mod:`repro.sim.ops`, :mod:`repro.sim.timing`), and the trace replay
drivers (:mod:`repro.sim.simulator`) that drive an FTL scheme over a
trace and collect the paper's metrics.
"""

from .resources import Resource, ResourceSet
from .ops import OpKind, Cause, OpRecord
from .timing import TimingModel
from .simulator import (
    ClosedLoopReplay,
    OpenLoopReplay,
    SimulationResult,
    Simulator,
    replay,
)

__all__ = [
    "Resource",
    "ResourceSet",
    "OpKind",
    "Cause",
    "OpRecord",
    "TimingModel",
    "ClosedLoopReplay",
    "OpenLoopReplay",
    "Simulator",
    "SimulationResult",
    "replay",
]
