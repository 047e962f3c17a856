"""Experiment harnesses: one module per table/figure of the evaluation.

Every artefact of Section 4 has a module that regenerates it::

    table1  update-size distribution of the traces
    table2  simulator settings
    table3  trace specifications
    fig2    RBER: conventional vs partial programming over P/E cycles
    fig5    I/O response time per trace and scheme
    fig6    completed writes in SLC vs MLC regions
    fig7    IPU write distribution over Work/Monitor/Hot blocks
    fig8    average read error rate
    fig9    page utilisation of collected SLC blocks
    fig10   erase counts per region
    fig11   normalised mapping-table size
    fig12   GC victim-selection compute overhead
    fig13   I/O latency under varied P/E cycles
    fig14   read error rate under varied P/E cycles

plus extension studies beyond the paper (``summary`` scoreboard,
``ext-delta``, ``ext-translation``, ``ext-qd``, ``ext-seeds``,
``ext-cache``).

Use :func:`repro.experiments.registry.get` (or the CLI) to run one, and
:class:`repro.experiments.runner.RunContext` to control scale and seeding.
Simulation results are memoised per (trace, scheme, scale, seed, P/E), so
regenerating every figure costs one simulation sweep, not one per figure.
"""

from .. import lazy_exports

_EXPORTS = {
    "Artifact": ".artifact",
    "CACHE_SCHEMA_VERSION": ".cache", "ResultCache": ".cache",
    "cell_key": ".cache", "default_cache_dir": ".cache",
    "CellSpec": ".parallel", "resolve_jobs": ".parallel",
    "run_cells": ".parallel",
    "RunContext": ".runner", "configure_execution": ".runner",
    "execution_summary": ".runner",
    "EXPERIMENTS": ".registry", "get": ".registry", "run": ".registry",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
