"""repro — reproduction of *Intra-page Cache Update in SLC-mode with
Partial Programming in High Density SSDs* (Li et al., ICPP 2021).

A trace-driven hybrid SLC/MLC SSD simulator with partial programming, the
paper's IPU scheme, the Baseline and MGA comparison schemes, a calibrated
synthetic workload generator for the six evaluation traces, and experiment
harnesses regenerating every table and figure of the paper's evaluation.

Quickstart::

    from repro import IPUFTL, Simulator, scaled_config
    from repro.traces import profile, generate

    config = scaled_config("small", seed=1)
    trace = generate(profile("ts0"), n_requests=20_000, seed=1)
    result = Simulator(IPUFTL(config)).run(trace)
    print(result.summary())

Every name in ``__all__`` but ``__version__`` is imported on first
access (PEP 562), so importing the package — or a numpy-free subpackage
such as :mod:`repro.analysis` — loads neither numpy nor the simulator.
"""

from __future__ import annotations

import importlib
from typing import Any

__version__ = "1.0.0"

#: Public name -> the submodule that defines it, in ``__all__`` order.
_EXPORTS = {
    "SSDConfig": "config",
    "GeometryConfig": "config",
    "TimingConfig": "config",
    "ReliabilityConfig": "config",
    "CacheConfig": "config",
    "ScaleSpec": "config",
    "SCALES": "config",
    "paper_config": "config",
    "scaled_config": "config",
    "ReproError": "errors",
    "FlashArray": "nand",
    "CellMode": "nand",
    "Geometry": "nand",
    "PPA": "nand",
    "RberModel": "error",
    "BCHCode": "error",
    "EccModel": "error",
    "BaselineFTL": "ftl",
    "MGAFTL": "ftl",
    "DeltaFTL": "ftl",
    "IPUFTL": "core",
    "BlockLevel": "ftl.levels",
    "FrontendConfig": "frontend",
    "Simulator": "sim",
    "SimulationResult": "sim",
    "replay": "sim",
    "SCHEMES": "schemes",
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name: str) -> Any:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS})
