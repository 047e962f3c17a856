"""Block I/O trace substrate.

The paper evaluates on six traces (MSR-Cambridge ``ts0``, ``wdev0``,
``usr0``; Microsoft production ``ads``; VDI ``lun1``, ``lun2``).  Those
files are not redistributable, so this package provides:

* :mod:`repro.traces.profiles` — per-trace statistical profiles lifted
  from Tables 1 and 3 of the paper,
* :mod:`repro.traces.synth` — a constructive generator that reproduces the
  profiled marginals (request count, write ratio, write sizes, update-size
  buckets, hot-address ratio),
* :mod:`repro.traces.msr` — a parser for the real MSR-Cambridge CSV format
  for users who have the original files,
* :mod:`repro.traces.stream` — the chunked :class:`TraceStream` protocol
  behind constant-memory replay of arbitrarily long traces,
* :mod:`repro.traces.stats` — characterisation used to regenerate
  Tables 1 and 3 from any trace.
"""

from .. import lazy_exports

_EXPORTS = {
    "Trace": ".model", "TraceRequest": ".model", "OpType": ".model",
    "TraceProfile": ".profiles", "PROFILES": ".profiles",
    "profile": ".profiles",
    "InMemoryStream": ".stream", "MergedStream": ".stream",
    "MsrStream": ".msr",
    "SyntheticStream": ".synth", "SyntheticTraceGenerator": ".synth",
    "TraceStream": ".stream",
    "generate": ".synth",
    "materialize": ".stream",
    "parse_msr_csv": ".msr",
    "TraceStats": ".profiles", "characterize": ".stats",
    "update_size_buckets": ".stats",
}

__all__ = [*_EXPORTS]

__getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)
