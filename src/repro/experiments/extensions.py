"""Extension experiments beyond the paper's figures.

* ``ext-delta`` — adds the Delta comparator (Zhang et al., FAST'16, the
  related work IPU builds on) to the scheme comparison: same page-per-
  request layout and in-page appends as IPU, but without the
  invalidate-first rule, so its partial passes disturb live data.
* ``ext-translation`` — quantifies the address-translation latency the
  paper's introduction attributes to second-level mapping tables, using
  the DFTL-style cached-mapping-table model: MGA's two-level table misses
  more than IPU's page-level-plus-offset table.

Every cell here replays through :meth:`RunContext.run` (config overrides
and closed-loop queue depths are cell inputs), so a warm result cache
serves all of them.
"""

from __future__ import annotations

import dataclasses

from ..config import SSDConfig, TranslationConfig
from .artifact import Artifact
from .runner import SCHEME_ORDER, default_context, new_context

#: Traces used by the extension studies (one write-hot, one read-hot).
EXT_TRACES = ("ts0", "lun2")


def build_delta_comparison(scale: str = "small", seed: int = 1) -> Artifact:
    """Four-way comparison including the Delta scheme."""
    schemes = ("baseline", "mga", "delta", "ipu")
    results = default_context(scale, seed).run_matrix(EXT_TRACES, schemes)
    rows = []
    for trace in EXT_TRACES:
        for scheme in schemes:
            r = results[(trace, scheme)]
            rows.append({
                "Trace": trace,
                "Scheme": scheme,
                "latency ms": f"{r.avg_latency_ms:.4f}",
                "error rate": f"{r.read_error_rate:.4e}",
                "GC util": f"{r.slc_page_utilization:.1%}",
                "in-page svc": r.intra_page_updates,
                "disturbed valid": r.disturbed_valid_subpages,
            })
    return Artifact(
        id="ext-delta",
        title="Related-work comparison including in-place delta compression",
        rows=rows,
        scale=scale,
        notes=("Delta keeps updates in-page like IPU but without "
               "invalidating first: its 'disturbed valid' column is the "
               "in-page damage IPU provably avoids (IPU's is always 0)."),
    )


def build_seed_study(scale: str = "small", seed: int = 1) -> Artifact:
    """Headline metrics across independent seeds (reproducibility check).

    The paper reports single-run numbers; here the IPU-vs-Baseline latency
    gain, the error-rate increases and the utilisation gaps are re-derived
    under three different generator/device seeds to show they are
    properties of the mechanisms, not of one lucky trace realisation.
    """
    rows = []
    for s_ in (seed, seed + 1, seed + 2):
        results = default_context(scale, s_).run_matrix(("ts0",))
        base, mga, ipu = (results[("ts0", k)] for k in SCHEME_ORDER)
        rows.append({
            "seed": s_,
            "IPU vs Base lat": f"{ipu.avg_latency_ms / base.avg_latency_ms - 1:+.1%}",
            "MGA err incr": f"{mga.read_error_rate / base.read_error_rate - 1:+.1%}",
            "IPU err incr": f"{ipu.read_error_rate / base.read_error_rate - 1:+.1%}",
            "util B/M/I": "/".join(
                f"{r.slc_page_utilization:.0%}" for r in (base, mga, ipu)),
            "SLC erases B/M/I": "/".join(
                str(r.erases_slc) for r in (base, mga, ipu)),
        })
    return Artifact(
        id="ext-seeds",
        title="Headline shapes across independent seeds (ts0)",
        rows=rows,
        scale=scale,
        notes=("Every row must show the same orderings: IPU faster than "
               "Baseline, IPU's error increase a fraction of MGA's, "
               "utilisation Baseline < IPU < MGA, erases MGA < IPU <= "
               "Baseline."),
    )


def build_cache_sensitivity(scale: str = "small", seed: int = 1) -> Artifact:
    """IPU behaviour versus SLC cache size (the Table 2 ratio is fixed at
    5%; this sweeps the cache relative to the trace's hot set)."""
    ctx = default_context(scale, seed)
    base_cfg = ctx.trace_config("ts0")
    planes = base_cfg.geometry.planes
    base_slc_pp = max(1, round(base_cfg.geometry.blocks_per_plane
                               * base_cfg.cache.slc_ratio))
    mlc_pp = base_cfg.geometry.blocks_per_plane - base_slc_pp

    configs = {}
    for factor in (0.5, 1.0, 2.0):
        slc_pp = max(1, round(base_slc_pp * factor))
        bpp = slc_pp + mlc_pp
        geometry = dataclasses.replace(
            base_cfg.geometry, total_blocks=bpp * planes)
        cache = dataclasses.replace(base_cfg.cache, slc_ratio=slc_pp / bpp)
        configs[factor] = SSDConfig(geometry=geometry, cache=cache,
                                    reliability=base_cfg.reliability,
                                    timing=base_cfg.timing).validate()
    ctx.run_cells([("ts0", "ipu", None, cfg) for cfg in configs.values()])

    rows = []
    for factor, cfg in configs.items():
        r = ctx.run("ts0", "ipu", config=cfg)
        rows.append({
            "cache factor": f"{factor:.1f}x",
            "SLC blocks": cfg.slc_blocks,
            "latency ms": f"{r.avg_latency_ms:.4f}",
            "intra-page": r.intra_page_updates,
            "evicted": r.evicted_subpages_to_mlc,
            "SLC erases": r.erases_slc,
        })
    return Artifact(
        id="ext-cache",
        title="IPU sensitivity to SLC cache size (ts0)",
        rows=rows,
        scale=scale,
        notes=("A larger cache retains more of the hot set: intra-page "
               "updates rise and evictions fall; shrinking it below the "
               "hot set collapses the benefit toward Baseline behaviour."),
    )


#: Queue depths the ext-qd sweep visits by default.
QD_SWEEP = (1, 4, 16, 64)


def build_qd_study(scale: str = "small", seed: int = 1,
                   qds: "tuple[int, ...]" = QD_SWEEP,
                   frontend: bool = True) -> Artifact:
    """Queue-depth sweep, closed loop and through the device front-end.

    ``closed`` rows replay with the classic closed-loop driver (no
    buffer, QD caps outstanding requests).  ``frontend`` rows replay the
    open-loop trace through the write-back buffer and the multi-queue
    scheduler (:mod:`repro.frontend`), reporting the buffer's hit /
    coalesce / flush counters and the tail of the response-time
    distribution.  ``--qd``/``--frontend`` on ``repro-ssd run`` map to
    the ``qds``/``frontend`` keywords.
    """
    ctx = default_context(scale, seed)
    rows = []
    schemes = SCHEME_ORDER
    ctx.run_cells([("ts0", s, None, None, qd) for qd in qds for s in schemes])
    for qd in qds:
        for scheme in schemes:
            result = ctx.run("ts0", scheme, queue_depth=qd)
            iops = (result.n_requests / result.sim_time_ms * 1e3
                    if result.sim_time_ms else 0.0)
            rows.append({
                "QD": qd,
                "Scheme": scheme,
                "mode": "closed",
                "KIOPS": f"{iops / 1e3:.2f}",
                "mean lat ms": f"{result.avg_latency_ms:.4f}",
                "p99 ms": "-",
                "hits": "-",
                "coalesced": "-",
                "flushes": "-",
            })
    if frontend:
        from ..frontend import FrontendConfig
        for qd in qds:
            fctx = new_context(scale, seed)
            fctx.frontend = FrontendConfig.from_qd(qd)
            fctx.run_cells([("ts0", s, None) for s in schemes])
            for scheme in schemes:
                result = fctx.run("ts0", scheme)
                rows.append({
                    "QD": qd,
                    "Scheme": scheme,
                    "mode": "frontend",
                    "KIOPS": "-",
                    "mean lat ms": f"{result.avg_latency_ms:.4f}",
                    "p99 ms": f"{result.lat_p99_ms:.4f}",
                    "hits": result.cache_read_hits,
                    "coalesced": result.coalesced_writes,
                    "flushes": result.flushes,
                })
    return Artifact(
        id="ext-qd",
        title="Queue-depth sweep: closed loop and device front-end (ts0)",
        rows=rows,
        scale=scale,
        notes=("Closed-loop rows are the sustainable-rate view (throughput "
               "saturates at the device's chip parallelism).  Front-end "
               "rows replay the arrival-paced trace through the coalescing "
               "write buffer and multi-queue scheduler: deeper queues hide "
               "destage backpressure, so the p99 tail tightens with QD "
               "while the hit/coalesce counters barely move."),
    )


def build_translation_study(scale: str = "small", seed: int = 1) -> Artifact:
    """CMT hit ratios and the latency cost of second-level translation."""
    ctx = default_context(scale, seed)
    configs = {}
    for trace in EXT_TRACES:
        base_cfg = ctx.trace_config(trace)
        # Size the CMT to cover ~30% of the trace's first-level working
        # set: page-mapped lookups mostly hit, while MGA's 4x-denser
        # second-level key space cannot fit.
        entries = 256
        lpns = ctx.trace(trace).footprint_bytes // base_cfg.geometry.page_size
        configs[trace] = dataclasses.replace(
            base_cfg,
            translation=TranslationConfig(
                enabled=True, entries_per_page=entries,
                cache_pages=max(2, int(0.3 * lpns / entries))))
    ctx.run_cells([(trace, scheme, None, config)
                   for trace, cfg in configs.items()
                   for scheme in SCHEME_ORDER
                   for config in (None, cfg)])
    rows = []
    for trace, cfg in configs.items():
        for scheme in SCHEME_ORDER:
            result = ctx.run(trace, scheme, config=cfg)
            plain = ctx.run(trace, scheme)
            rows.append({
                "Trace": trace,
                "Scheme": scheme,
                "CMT hit ratio": f"{result.cmt_hit_ratio:.1%}",
                "misses": result.cmt_misses,
                "writebacks": result.cmt_writebacks,
                "latency ms": f"{result.avg_latency_ms:.4f}",
                "vs no-CMT": (f"{result.avg_latency_ms / plain.avg_latency_ms - 1:+.1%}"
                              if plain.avg_latency_ms else "-"),
            })
    return Artifact(
        id="ext-translation",
        title="Address-translation overhead under a cached mapping table",
        rows=rows,
        scale=scale,
        notes=("Section 1's motivation quantified: MGA's second-level "
               "subpage entries thrash the translation cache harder than "
               "IPU's page-level table, costing extra foreground flash "
               "reads."),
    )
