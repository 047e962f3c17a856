"""Command-line interface.

::

    repro-ssd list                         # experiment ids
    repro-ssd run fig5 --scale small       # regenerate one figure/table
    repro-ssd all --scale smoke            # regenerate everything
    repro-ssd simulate --trace ts0 --scheme ipu --scale smoke
    repro-ssd faults --rates 0,0.5,1.0     # reliability campaign sweep
    repro-ssd fleet --devices 4 --tenants ts0,usr0:0.5   # fleet campaign
    repro-ssd traces                       # profile summary
    repro-ssd lint                         # determinism/schema analyzer

(also reachable as ``python -m repro ...``)
"""

from __future__ import annotations

import argparse
import sys

from . import SCHEMES, __version__
from .analysis.cli import add_lint_arguments, cmd_lint
from .bench import DEFAULT_SCHEMES, DEFAULT_TRACES
from .experiments import EXPERIMENTS, run as run_experiment
from .experiments.cache import ResultCache, default_cache_dir
from .experiments.parallel import resolve_jobs
from .experiments.runner import (
    configure_execution,
    default_context,
    execution_summary,
)
from .metrics.report import format_table
from .traces.profiles import PROFILES
from .units import KIB


def _setup_execution(args: argparse.Namespace) -> None:
    """Apply ``--jobs`` / ``--cache-dir`` / ``--no-cache`` process-wide."""
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    configure_execution(jobs=resolve_jobs(args.jobs), cache=cache)


def _print_execution_summary() -> None:
    """The per-invocation cell / cache counter line."""
    info = execution_summary()
    line = (f"[cells] {info['executed_cells']} simulated "
            f"({info['executed_seconds']:.1f}s replay wall)")
    if info["cache_dir"] is not None:
        line += (f"; cache: {info['cache_hits']} hits / "
                 f"{info['cache_misses']} misses ({info['cache_dir']})")
    print(line)


def _cmd_list(args: argparse.Namespace) -> int:
    rows = [{"id": eid, "builder": fn.__module__.split(".")[-1]}
            for eid, fn in EXPERIMENTS.items()]
    print(format_table(rows, title="Available experiments"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    _setup_execution(args)
    kwargs = {}
    if args.qd:
        kwargs["qds"] = tuple(int(q) for q in args.qd.split(","))
    if args.frontend is not None:
        kwargs["frontend"] = args.frontend
    if kwargs and args.experiment != "ext-qd":
        print(f"--qd/--frontend only apply to ext-qd, not {args.experiment}")
        return 2
    artifact = run_experiment(args.experiment, scale=args.scale,
                              seed=args.seed, **kwargs)
    print(artifact.render())
    if args.json:
        artifact.save_json(args.json)
        print(f"(rows written to {args.json})")
    _print_execution_summary()
    return 0


def _cmd_all(args: argparse.Namespace) -> int:
    _setup_execution(args)
    for eid in EXPERIMENTS:
        artifact = run_experiment(eid, scale=args.scale, seed=args.seed)
        print(artifact.render())
        print()
    _print_execution_summary()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir or default_cache_dir())
    if args.clear:
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.root}")
        return 0
    print(format_table(
        [{"cache dir": str(cache.root), "entries": len(cache)}],
        title="Simulation result cache"))
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    _setup_execution(args)
    if args.frontend:
        from .experiments.runner import new_context
        from .frontend import FrontendConfig
        from .frontend.config import DEFAULT_QUEUE_DEPTH
        qd = args.qd or DEFAULT_QUEUE_DEPTH
        ctx = new_context(args.scale, args.seed)
        ctx.frontend = FrontendConfig.from_qd(qd)
        result = ctx.run(args.trace, args.scheme)
        mode = f"frontend, QD={qd}"
    else:
        ctx = default_context(args.scale, args.seed)
        result = ctx.run(args.trace, args.scheme,
                         queue_depth=args.qd or None)
        mode = f"closed loop, QD={args.qd}" if args.qd else "open loop"
    rows = [{"metric": k, "value": v} for k, v in result.summary().items()]
    if args.frontend:
        rows += [
            {"metric": "p99_latency_ms", "value": result.lat_p99_ms},
            {"metric": "cache_read_hits", "value": result.cache_read_hits},
            {"metric": "cache_read_misses", "value": result.cache_read_misses},
            {"metric": "merged_writes", "value": result.merged_writes},
            {"metric": "coalesced_writes", "value": result.coalesced_writes},
            {"metric": "flushes", "value": result.flushes},
        ]
    elif args.qd and result.sim_time_ms:
        rows.append({"metric": "KIOPS",
                     "value": f"{result.n_requests / result.sim_time_ms:.3f}"})
    print(format_table(rows, title=f"{args.scheme} on {args.trace} "
                                   f"({mode}, scale={args.scale})"))
    if args.json:
        import json as _json
        with open(args.json, "w", encoding="utf-8") as fh:
            _json.dump(result.deterministic_dict(), fh,
                       sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        print(f"(deterministic result written to {args.json})")
    _print_execution_summary()
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from .bench import (
        compare_to_baseline,
        load_baseline,
        profile_cell,
        run_bench,
        save_baseline,
    )

    traces = tuple(args.traces.split(","))
    schemes = tuple(args.schemes.split(","))
    payload = run_bench(scale=args.scale, seed=args.seed, traces=traces,
                        schemes=schemes, repeats=args.repeats)
    rows = [{"trace": c["trace"], "scheme": c["scheme"],
             "requests": c["n_requests"],
             "wall s": f"{c['wall_seconds']:.3f}",
             "ops/sec": f"{c['ops_per_sec']:,.0f}"}
            for c in payload["cells"]]
    agg = payload["aggregate"]
    rows.append({"trace": "(aggregate)", "scheme": "-",
                 "requests": agg["n_requests"],
                 "wall s": f"{agg['wall_seconds']:.3f}",
                 "ops/sec": f"{agg['ops_per_sec']:,.0f}"})
    print(format_table(rows, title=f"Hot-path throughput (scale={args.scale}, "
                                   f"best of {args.repeats})"))
    if args.profile:
        for c in payload["cells"]:
            print(f"\n--- cProfile: {c['trace']}/{c['scheme']} "
                  f"(top {args.profile} by tottime) ---")
            print(profile_cell(c["trace"], c["scheme"], args.scale,
                               args.seed, top=args.profile))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            import json as _json
            _json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"(results written to {args.json})")
    if args.update:
        save_baseline(payload, args.baseline)
        print(f"(baseline updated: {args.baseline})")
        return 0
    if args.check:
        try:
            baseline = load_baseline(args.baseline)
        except FileNotFoundError:
            print(f"bench: baseline {args.baseline} not found "
                  f"(create it with --update)")
            return 1
        failures = compare_to_baseline(payload, baseline,
                                       max_regression=args.max_regression)
        if failures:
            print(f"bench: {len(failures)} cell(s) regressed beyond "
                  f"{args.max_regression:.0%}:")
            for line in failures:
                print(f"  {line}")
            return 1
        print(f"bench: all cells within {args.max_regression:.0%} of "
              f"{args.baseline}")
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    # Lazy: the campaign module pulls in the whole experiments layer.
    from .faults.campaign import campaign_json, run_campaign

    # One cache handle shared with the process-wide defaults, so the
    # summary line sees the campaign's hits/misses.
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    jobs = resolve_jobs(args.jobs)
    configure_execution(jobs=jobs, cache=cache)
    rates = tuple(float(r) for r in args.rates.split(","))
    traces = tuple(args.traces.split(",")) if args.traces else None
    schemes = tuple(args.schemes.split(","))
    payload = run_campaign(rates=rates, scale=args.scale, seed=args.seed,
                           traces=traces, schemes=schemes,
                           jobs=jobs, cache=cache)
    rows = []
    for scheme in schemes:
        for point in payload["curves"][scheme]:
            rows.append({
                "scheme": scheme,
                "rate": f"{point['rate']:g}",
                "avg lat ms": f"{point['avg_latency_ms']:.4f}",
                "retries": point["read_retries"],
                "uncorr": point["uncorrectable_reads"],
                "reloc": point["fault_relocations"],
                "prog fail": point["program_failures"],
                "retired": point["retired_blocks"],
                "pwr loss": point["power_loss_events"],
                "recovery ms": f"{point['recovery_ms']:.2f}",
            })
    print(format_table(rows, title=f"Fault-injection degradation curves "
                                   f"(scale={args.scale}, seed={args.seed})"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(campaign_json(payload))
        print(f"(campaign written to {args.json})")
    _print_execution_summary()
    return 0


def _parse_tenants(text: str):
    """``profile[:weight]`` comma list -> tuple of TenantSpec."""
    from .fleet import TenantSpec

    tenants = []
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if ":" in item:
            name, weight = item.split(":", 1)
            tenants.append(TenantSpec(name, float(weight)))
        else:
            tenants.append(TenantSpec(item))
    return tuple(tenants)


def _cmd_fleet(args: argparse.Namespace) -> int:
    # Lazy: the fleet layer pulls in the whole experiments stack.
    from .fleet import FleetConfig, run_campaign
    from .fleet.campaign import campaign_json

    cfg = FleetConfig(
        n_devices=args.devices,
        tenants=_parse_tenants(args.tenants),
        scheme=args.scheme,
        scale=args.scale,
        seed=args.seed,
        n_epochs=args.epochs,
        epoch_requests=args.epoch_requests,
        stripe_bytes=args.stripe_kib * KIB,
        fault_rate=args.fault_rate,
    ).validate()
    cache_dir = None
    if not args.no_cache:
        cache_dir = str(args.cache_dir or default_cache_dir())
    campaign = run_campaign(
        cfg, jobs=resolve_jobs(args.jobs), cache_dir=cache_dir,
        checkpoint_dir=args.checkpoint_dir,
        checkpoint_every=args.checkpoint_every,
        stop_after_epoch=args.stop_after_epoch)
    if campaign is None:
        print(f"[fleet] paused before epoch {args.stop_after_epoch}; "
              f"snapshots in {args.checkpoint_dir} — rerun without "
              f"--stop-after-epoch to finish")
        return 0
    rows = []
    for rec in campaign["epochs"]:
        rows.append({
            "epoch": rec["epoch"],
            "requests": rec["n_requests"],
            "p50 ms": f"{rec['lat_p50_ms']:.4f}",
            "p99 ms": f"{rec['lat_p99_ms']:.4f}",
            "p999 ms": f"{rec['lat_p999_ms']:.4f}",
            "retired": rec["retired_blocks"],
            "cap loss": f"{rec['capacity_loss']:.4%}",
        })
    print(format_table(
        rows, title=f"Fleet campaign ({cfg.n_devices} devices, "
                    f"scheme={cfg.scheme}, scale={cfg.scale}, "
                    f"seed={cfg.seed})"))
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(campaign_json(campaign))
        print(f"(campaign written to {args.json})")
    return 0


def _cmd_traces(args: argparse.Namespace) -> int:
    rows = [
        {
            "trace": p.name,
            "# req (paper)": f"{p.n_requests:,}",
            "write ratio": f"{p.write_ratio:.1%}",
            "write size": f"{p.mean_write_bytes / KIB:.1f}KB",
            "hot write": f"{p.hot_write_ratio:.1%}",
            "<=4K updates": f"{p.update_size_probs[0]:.1%}",
        }
        for p in PROFILES.values()
    ]
    print(format_table(rows, title="Evaluation trace profiles (Tables 1 & 3)"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argument parser (exposed for shell-completion tooling)."""
    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description=("Reproduction of 'Intra-page Cache Update in SLC-mode "
                     "with Partial Programming in High Density SSDs' "
                     "(ICPP 2021)"),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_execution_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--jobs", type=int, default=None, metavar="N",
                       help="worker processes for the simulation fan-out "
                            "(default: REPRO_JOBS or CPU count; 0 = auto)")
        p.add_argument("--cache-dir", metavar="DIR",
                       help="on-disk result cache location "
                            "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
        p.add_argument("--no-cache", action="store_true",
                       help="simulate every cell, ignore the result cache")

    sub.add_parser("list", help="list experiment ids").set_defaults(fn=_cmd_list)

    p_run = sub.add_parser("run", help="regenerate one table/figure")
    p_run.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p_run.add_argument("--scale", default="small",
                       choices=("smoke", "small", "medium", "paper"))
    p_run.add_argument("--seed", type=int, default=1)
    p_run.add_argument("--json", metavar="PATH",
                       help="also write the artifact rows as JSON")
    p_run.add_argument("--qd", metavar="Q1,Q2", default=None,
                       help="queue depths for the ext-qd sweep "
                            "(comma-separated; default 1,4,16,64)")
    p_run.add_argument("--frontend", action=argparse.BooleanOptionalAction,
                       default=None,
                       help="include/skip the device front-end rows in the "
                            "ext-qd sweep (default: include)")
    add_execution_flags(p_run)
    p_run.set_defaults(fn=_cmd_run)

    p_all = sub.add_parser("all", aliases=["run-all"],
                           help="regenerate every table/figure")
    p_all.add_argument("--scale", default="small",
                       choices=("smoke", "small", "medium", "paper"))
    p_all.add_argument("--seed", type=int, default=1)
    add_execution_flags(p_all)
    p_all.set_defaults(fn=_cmd_all)

    p_sim = sub.add_parser("simulate", help="replay one trace/scheme pair")
    p_sim.add_argument("--trace", default="ts0", choices=sorted(PROFILES))
    p_sim.add_argument("--scheme", default="ipu", choices=sorted(SCHEMES))
    p_sim.add_argument("--scale", default="smoke",
                       choices=("smoke", "small", "medium", "paper"))
    p_sim.add_argument("--seed", type=int, default=1)
    p_sim.add_argument("--qd", type=int, default=0, metavar="DEPTH",
                       help="closed-loop replay at this queue depth "
                            "(0 = open-loop timestamp replay); with "
                            "--frontend, the scheduler's queue depth")
    p_sim.add_argument("--frontend", action="store_true",
                       help="replay through the device front-end (write "
                            "buffer + multi-queue scheduler)")
    p_sim.add_argument("--json", metavar="PATH",
                       help="write the deterministic result dict as "
                            "canonical JSON (byte-stable across replays)")
    add_execution_flags(p_sim)
    p_sim.set_defaults(fn=_cmd_simulate)

    p_bench = sub.add_parser(
        "bench", help="measure hot-path throughput (ops/sec per cell)")
    p_bench.add_argument("--scale", default="smoke",
                         choices=("smoke", "small", "medium", "paper"))
    p_bench.add_argument("--seed", type=int, default=1)
    p_bench.add_argument("--traces", default=",".join(DEFAULT_TRACES),
                         metavar="T1,T2", help="comma-separated trace names")
    p_bench.add_argument("--schemes", default=",".join(DEFAULT_SCHEMES),
                         metavar="S1,S2", help="comma-separated scheme names")
    p_bench.add_argument("--repeats", type=int, default=3,
                         help="measurement repeats per cell (best wins)")
    p_bench.add_argument("--profile", type=int, default=0, metavar="N",
                         help="also cProfile each cell and dump the top N "
                              "functions by tottime")
    p_bench.add_argument("--json", metavar="PATH",
                         help="write the measurement payload as JSON")
    p_bench.add_argument("--baseline", default="BENCH_hotpath.json",
                         metavar="PATH", help="committed reference file")
    p_bench.add_argument("--check", action="store_true",
                         help="fail when a cell regresses vs the baseline")
    p_bench.add_argument("--update", action="store_true",
                         help="rewrite the baseline with this run")
    p_bench.add_argument("--max-regression", type=float, default=0.30,
                         metavar="FRAC",
                         help="allowed per-cell ops/sec drop for --check "
                              "(default 0.30)")
    p_bench.set_defaults(fn=_cmd_bench)

    p_faults = sub.add_parser(
        "faults", help="run a fault-injection reliability campaign")
    p_faults.add_argument("--rates", default="0,0.5,1.0", metavar="R1,R2",
                          help="comma-separated fault-rate sweep points "
                               "(0 = fault-free reference point)")
    p_faults.add_argument("--scale", default="smoke",
                          choices=("smoke", "small", "medium", "paper"))
    p_faults.add_argument("--seed", type=int, default=1)
    p_faults.add_argument("--traces", default=None, metavar="T1,T2",
                          help="comma-separated trace names (default: all)")
    p_faults.add_argument("--schemes", default="baseline,mga,ipu",
                          metavar="S1,S2", help="comma-separated scheme names")
    p_faults.add_argument("--json", metavar="PATH",
                          help="write the degradation curves as canonical "
                               "JSON (byte-stable for a given seed)")
    add_execution_flags(p_faults)
    p_faults.set_defaults(fn=_cmd_faults)

    p_fleet = sub.add_parser(
        "fleet", help="run a sharded multi-device fleet campaign")
    p_fleet.add_argument("--devices", type=int, default=2, metavar="N",
                         help="devices in the array (default: 2)")
    p_fleet.add_argument("--tenants", default="ts0", metavar="P[:W],...",
                         help="tenant mix as profile[:weight] entries, "
                              "e.g. ts0,usr0:0.5 (default: ts0)")
    p_fleet.add_argument("--scheme", default="ipu",
                         choices=sorted(SCHEMES))
    p_fleet.add_argument("--scale", default="smoke",
                         choices=("smoke", "small", "medium"))
    p_fleet.add_argument("--seed", type=int, default=1)
    p_fleet.add_argument("--epochs", type=int, default=4, metavar="N",
                         help="campaign epochs (the aging axis)")
    p_fleet.add_argument("--epoch-requests", type=int, default=4096,
                         metavar="N", help="fleet-wide requests per epoch")
    p_fleet.add_argument("--stripe-kib", type=int, default=256, metavar="K",
                         help="sharding stripe size in KiB (default: 256)")
    p_fleet.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                         help="fault-injection rate multiplier (0 = off)")
    p_fleet.add_argument("--checkpoint-dir", metavar="DIR",
                         help="snapshot device replays here and resume "
                              "from the newest snapshots on rerun")
    p_fleet.add_argument("--checkpoint-every", type=int, default=1,
                         metavar="N", help="snapshot every N epochs "
                                           "(default: 1; 0 = only on stop)")
    p_fleet.add_argument("--stop-after-epoch", type=int, default=None,
                         metavar="E", help="save snapshots and pause the "
                                           "campaign before epoch E")
    p_fleet.add_argument("--json", metavar="PATH",
                         help="write the fleet aggregate as canonical JSON "
                              "(byte-stable for a given config)")
    add_execution_flags(p_fleet)
    p_fleet.set_defaults(fn=_cmd_fleet)

    p_lint = sub.add_parser(
        "lint", help="run the determinism/schema static analyzer")
    add_lint_arguments(p_lint)
    p_lint.set_defaults(fn=cmd_lint)

    p_cache = sub.add_parser("cache", help="inspect or clear the result cache")
    p_cache.add_argument("--cache-dir", metavar="DIR",
                         help="cache location (default: REPRO_CACHE_DIR "
                              "or ~/.cache/repro)")
    p_cache.add_argument("--clear", action="store_true",
                         help="delete every cached result")
    p_cache.set_defaults(fn=_cmd_cache)

    sub.add_parser("traces", help="show trace profiles").set_defaults(fn=_cmd_traces)
    return parser


def main(argv: "list[str] | None" = None) -> int:
    """Entry point."""
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output was piped into something that closed early (| head).
        return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
