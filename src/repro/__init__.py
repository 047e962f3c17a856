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
access (PEP 562), and so is every name of the simulator subpackage
roots (:func:`lazy_exports`), so importing the package — or a numpy-free
subpackage such as :mod:`repro.analysis` — loads neither numpy nor the
simulator.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

__version__ = "1.0.0"


def lazy_exports(namespace: dict[str, Any], exports: dict[str, str],
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``(__getattr__, __dir__)`` of a package root.

    ``namespace`` is the root's ``globals()``; ``exports`` maps each
    public name to the module that defines it, as a relative import
    (``".flash"``, ``"..ftl.levels"``).  A name's module is imported on
    its first access and the value kept in ``namespace``, so importing
    the root runs none of its submodules.
    """
    package = namespace["__name__"]

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *exports})

    return __getattr__, __dir__


#: Public name -> the module that defines it, in ``__all__`` order.
_EXPORTS = {
    "SSDConfig": ".config", "GeometryConfig": ".config",
    "TimingConfig": ".config", "ReliabilityConfig": ".config",
    "CacheConfig": ".config", "ScaleSpec": ".config", "SCALES": ".config",
    "paper_config": ".config", "scaled_config": ".config",
    "ReproError": ".errors",
    "FlashArray": ".nand.flash",
    "CellMode": ".nand.cell",
    "Geometry": ".nand.geometry", "PPA": ".nand.geometry",
    "RberModel": ".error.rber",
    "BCHCode": ".error.bch",
    "EccModel": ".error.ecc",
    "BaselineFTL": ".ftl.baseline",
    "MGAFTL": ".ftl.mga",
    "DeltaFTL": ".ftl.delta",
    "IPUFTL": ".core.ipu_ftl",
    "BlockLevel": ".ftl.levels",
    "FrontendConfig": ".frontend.config",
    "Simulator": ".sim.simulator", "SimulationResult": ".sim.simulator",
    "SCHEMES": ".schemes",
}

__all__ = [*_EXPORTS, "__version__"]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
