"""Deterministic fault injection and reliability campaigns.

The paper's argument is a reliability trade-off — partial programming
raises RBER and IPU's job is to keep that survivable — so this package
makes the failure modes first-class: transient read failures with a
retry ladder and read reclaim, program/erase failures growing a
bad-block table, and power losses tearing in-flight partial programs
with a mount-time recovery scan.

Everything is seeded through dedicated :func:`repro.rng.faults_rng`
streams; with every rate at zero (or no plan attached) simulations are
bit-identical to a device without the subsystem.  See ``docs/FAULTS.md``.

The campaign runner (:mod:`repro.faults.campaign`) is imported lazily by
the CLI — it pulls in the experiments layer, which plain plan consumers
do not need.
"""

from .. import lazy_exports

_EXPORTS = {
    "BadBlockTable": ".badblocks",
    "FaultConfig": ".config",
    "FaultPlan": ".plan", "FaultStats": ".plan", "attach_faults": ".plan",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
