"""Reliability campaigns: sweep fault rates across the three schemes.

A campaign replays the evaluation matrix once per fault rate, with every
mechanism's intensity derived from the single sweep rate through
:meth:`FaultConfig.from_rate`, and collects degradation curves — retries,
relocations, retired blocks, recovery time, and the latency they cost —
per scheme.  Rate ``0`` runs with no plan attached at all, so its results
are bit-identical to (and share cache entries with) ordinary runs: the
leftmost point of every curve *is* the paper's fault-free evaluation.

Campaign output is built exclusively from deterministic result fields
and serialised with sorted keys, so the same seed always produces
byte-identical JSON, sequentially or under ``--jobs`` fan-out.
"""

from __future__ import annotations

import json
from dataclasses import asdict, fields
from typing import TYPE_CHECKING, Sequence

from ..experiments.runner import SCHEME_ORDER, RunContext
from ..traces.profiles import TRACE_NAMES
from .config import FaultConfig
from .plan import FaultStats

if TYPE_CHECKING:
    from ..experiments.cache import ResultCache

#: Campaign payload layout version (independent of the result cache's).
CAMPAIGN_SCHEMA = 1

#: Default sweep: rate 0 proves bit-identity, the rest bend the curves.
DEFAULT_RATES = (0.0, 0.5, 1.0)

#: Result fields a degradation curve accumulates per (scheme, rate):
#: every fault counter, in declaration order.
CURVE_FIELDS = tuple(counter.name for counter in fields(FaultStats))


def run_campaign(rates: Sequence[float] = DEFAULT_RATES,
                 scale: str = "smoke", seed: int = 1,
                 traces: Sequence[str] | None = None,
                 schemes: Sequence[str] = SCHEME_ORDER,
                 jobs: int | None = None,
                 cache: "ResultCache | None" = None) -> dict:
    """Run the sweep; returns the JSON-ready campaign payload.

    One fresh :class:`~repro.experiments.runner.RunContext` per rate
    (fault configs are part of a context's identity, like seed or
    scale), each replaying the full ``traces`` x ``schemes`` matrix.
    No context outlives the call, so back-to-back campaigns are
    independent end-to-end determinism checks rather than memo replays;
    the CLI summary line still counts their cells (every context adds
    to the process-wide tally).
    """
    names = tuple(traces) if traces is not None else TRACE_NAMES
    rates = tuple(float(r) for r in rates)
    curves: dict[str, list[dict]] = {scheme: [] for scheme in schemes}
    for rate in rates:
        faults = FaultConfig.from_rate(rate)
        ctx = RunContext(scale=scale, seed=seed, jobs=jobs, cache=cache,
                         faults=faults if faults.enabled else None)
        results = ctx.run_matrix(names, schemes)
        for scheme in schemes:
            # Each counter starts at its FaultStats default (0 or 0.0).
            point: dict = {"rate": rate, **asdict(FaultStats())}
            total_requests = 0
            latency_sum = 0.0
            by_trace: dict[str, dict] = {}
            for trace in names:
                result = results[(trace, scheme)]
                total_requests += result.n_requests
                latency_sum += result.avg_latency_ms * result.n_requests
                detail = {"avg_latency_ms": result.avg_latency_ms}
                for f_name in CURVE_FIELDS:
                    value = getattr(result, f_name)
                    point[f_name] += value
                    detail[f_name] = value
                by_trace[trace] = detail
            point["avg_latency_ms"] = (
                latency_sum / total_requests if total_requests else 0.0)
            point["n_requests"] = total_requests
            point["by_trace"] = by_trace
            curves[scheme].append(point)
    return {
        "schema": CAMPAIGN_SCHEMA,
        "scale": scale,
        "seed": seed,
        "rates": list(rates),
        "traces": list(names),
        "schemes": list(schemes),
        "curves": curves,
    }


def campaign_json(payload: dict) -> str:
    """Canonical serialisation: sorted keys, stable indentation —
    byte-identical for identical payloads."""
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"
