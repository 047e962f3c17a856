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
import math
import sys

from . import __version__

# Each handler (and each ``_add_*_arguments``) imports what its command
# needs, so ``lint``, ``--help`` and ``--version`` start without numpy
# or the simulator.


def _setup_execution(args: argparse.Namespace) -> None:
    """Apply ``--jobs`` / ``--cache-dir`` / ``--no-cache`` process-wide."""
    from .experiments.cache import ResultCache, default_cache_dir
    from .experiments.parallel import resolve_jobs
    from .experiments.runner import configure_execution

    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    configure_execution(jobs=resolve_jobs(args.jobs), cache=cache)


def _print_execution_summary() -> None:
    """The per-invocation cell / cache counter line."""
    from .experiments.runner import execution_summary

    info = execution_summary()
    line = (f"[cells] {info['executed_cells']} simulated "
            f"({info['executed_seconds']:.1f}s replay wall)")
    if info["cache_dir"] is not None:
        line += (f"; cache: {info['cache_hits']} hits / "
                 f"{info['cache_misses']} misses ({info['cache_dir']})")
    print(line)


def _cmd_list(args: argparse.Namespace) -> int:
    from .experiments import EXPERIMENTS
    from .metrics.report import format_table

    rows = [{"id": eid, "builder": fn.__module__.split(".")[-1]}
            for eid, fn in EXPERIMENTS.items()]
    print(format_table(rows, title="Available experiments"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from .experiments import run as run_experiment

    _setup_execution(args)
    kwargs = {}
    if args.qd:
        kwargs["qds"] = args.qd
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
    from .experiments import EXPERIMENTS, run as run_experiment

    _setup_execution(args)
    for eid in EXPERIMENTS:
        artifact = run_experiment(eid, scale=args.scale, seed=args.seed)
        print(artifact.render())
        print()
    _print_execution_summary()
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    from .experiments.cache import ResultCache, default_cache_dir
    from .metrics.report import format_table

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
    from .experiments.runner import default_context, new_context
    from .frontend import FrontendConfig
    from .frontend.config import DEFAULT_QUEUE_DEPTH
    from .metrics.report import format_table

    _setup_execution(args)
    if args.frontend:
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


def _cmd_faults(args: argparse.Namespace) -> int:
    from .experiments.cache import ResultCache, default_cache_dir
    from .experiments.parallel import resolve_jobs
    from .experiments.runner import configure_execution
    from .faults.campaign import campaign_json, run_campaign
    from .metrics.report import format_table

    # One cache handle shared with the process-wide defaults, so the
    # summary line sees the campaign's hits/misses.
    cache = None
    if not args.no_cache:
        cache = ResultCache(args.cache_dir or default_cache_dir())
    jobs = resolve_jobs(args.jobs)
    configure_execution(jobs=jobs, cache=cache)
    traces = tuple(args.traces.split(",")) if args.traces else None
    schemes = tuple(args.schemes.split(","))
    payload = run_campaign(rates=args.rates, scale=args.scale, seed=args.seed,
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


def _number(text: str, cast: type = float):
    """One number of a comma-list option; a bad one is a usage error."""
    try:
        value = cast(text)
    except ValueError:
        kind = "an integer" if cast is int else "a number"
        raise argparse.ArgumentTypeError(f"{text!r} is not {kind}") from None
    if cast is float and not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"{text!r} is not finite")
    return value


def _numbers(cast: type):
    """An argparse ``type=`` for a comma-separated list of numbers."""
    def parse(text: str) -> tuple:
        return tuple(_number(item, cast) for item in text.split(","))

    return parse


def _tenants(text: str):
    """``profile[:weight]`` comma list -> tuple of TenantSpec."""
    from .fleet import TenantSpec

    tenants = []
    for item in text.split(","):
        name, colon, weight = item.strip().partition(":")
        if colon:
            tenants.append(TenantSpec(name, _number(weight)))
        elif name:
            tenants.append(TenantSpec(name))
    return tuple(tenants)


def _cmd_fleet(args: argparse.Namespace) -> int:
    from .experiments.cache import default_cache_dir
    from .experiments.parallel import resolve_jobs
    from .fleet import FleetConfig, run_campaign
    from .fleet.campaign import campaign_json
    from .metrics.report import format_table
    from .units import KIB

    cfg = FleetConfig(
        n_devices=args.devices,
        tenants=args.tenants,
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
    from .metrics.report import format_table
    from .traces.profiles import PROFILES
    from .units import KIB

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


def _cmd_lint(args: argparse.Namespace) -> int:
    from .analysis.cli import cmd_lint

    return cmd_lint(args)


def _add_execution_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--jobs", type=int, default=None, metavar="N",
                   help="worker processes for the simulation fan-out "
                        "(default: REPRO_JOBS or CPU count; 0 = auto)")
    p.add_argument("--cache-dir", metavar="DIR",
                   help="on-disk result cache location "
                        "(default: REPRO_CACHE_DIR or ~/.cache/repro)")
    p.add_argument("--no-cache", action="store_true",
                   help="simulate every cell, ignore the result cache")


def _add_run_arguments(p: argparse.ArgumentParser) -> None:
    from .experiments import EXPERIMENTS

    p.add_argument("experiment", choices=sorted(EXPERIMENTS))
    p.add_argument("--scale", default="small",
                   choices=("smoke", "small", "medium", "paper"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--json", metavar="PATH",
                   help="also write the artifact rows as JSON")
    p.add_argument("--qd", type=_numbers(int), metavar="Q1,Q2", default=None,
                   help="queue depths for the ext-qd sweep "
                        "(comma-separated; default 1,4,16,64)")
    p.add_argument("--frontend", action=argparse.BooleanOptionalAction,
                   default=None,
                   help="include/skip the device front-end rows in the "
                        "ext-qd sweep (default: include)")
    _add_execution_flags(p)


def _add_all_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--scale", default="small",
                   choices=("smoke", "small", "medium", "paper"))
    p.add_argument("--seed", type=int, default=1)
    _add_execution_flags(p)


def _add_simulate_arguments(p: argparse.ArgumentParser) -> None:
    from .schemes import SCHEMES
    from .traces.profiles import PROFILES

    p.add_argument("--trace", default="ts0", choices=sorted(PROFILES))
    p.add_argument("--scheme", default="ipu", choices=sorted(SCHEMES))
    p.add_argument("--scale", default="smoke",
                   choices=("smoke", "small", "medium", "paper"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--qd", type=int, default=0, metavar="DEPTH",
                   help="closed-loop replay at this queue depth "
                        "(0 = open-loop timestamp replay); with "
                        "--frontend, the scheduler's queue depth")
    p.add_argument("--frontend", action="store_true",
                   help="replay through the device front-end (write "
                        "buffer + multi-queue scheduler)")
    p.add_argument("--json", metavar="PATH",
                   help="write the deterministic result dict as "
                        "canonical JSON (byte-stable across replays)")
    _add_execution_flags(p)


def _add_faults_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--rates", type=_numbers(float), default="0,0.5,1.0",
                   metavar="R1,R2",
                   help="comma-separated fault-rate sweep points "
                        "(0 = fault-free reference point)")
    p.add_argument("--scale", default="smoke",
                   choices=("smoke", "small", "medium", "paper"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--traces", default=None, metavar="T1,T2",
                   help="comma-separated trace names (default: all)")
    p.add_argument("--schemes", default="baseline,mga,ipu",
                   metavar="S1,S2", help="comma-separated scheme names")
    p.add_argument("--json", metavar="PATH",
                   help="write the degradation curves as canonical "
                        "JSON (byte-stable for a given seed)")
    _add_execution_flags(p)


def _add_fleet_arguments(p: argparse.ArgumentParser) -> None:
    from .schemes import SCHEMES

    p.add_argument("--devices", type=int, default=2, metavar="N",
                   help="devices in the array (default: 2)")
    p.add_argument("--tenants", type=_tenants, default="ts0",
                   metavar="P[:W],...",
                   help="tenant mix as profile[:weight] entries, "
                        "e.g. ts0,usr0:0.5 (default: ts0)")
    p.add_argument("--scheme", default="ipu", choices=sorted(SCHEMES))
    p.add_argument("--scale", default="smoke",
                   choices=("smoke", "small", "medium"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--epochs", type=int, default=4, metavar="N",
                   help="campaign epochs (the aging axis)")
    p.add_argument("--epoch-requests", type=int, default=4096,
                   metavar="N", help="fleet-wide requests per epoch")
    p.add_argument("--stripe-kib", type=int, default=256, metavar="K",
                   help="sharding stripe size in KiB (default: 256)")
    p.add_argument("--fault-rate", type=float, default=0.0, metavar="R",
                   help="fault-injection rate multiplier (0 = off)")
    p.add_argument("--checkpoint-dir", metavar="DIR",
                   help="snapshot device replays here and resume "
                        "from the newest snapshots on rerun")
    p.add_argument("--checkpoint-every", type=int, default=1,
                   metavar="N", help="snapshot every N epochs "
                                     "(default: 1; 0 = only on stop)")
    p.add_argument("--stop-after-epoch", type=int, default=None,
                   metavar="E", help="save snapshots and pause the "
                                     "campaign before epoch E")
    p.add_argument("--json", metavar="PATH",
                   help="write the fleet aggregate as canonical JSON "
                        "(byte-stable for a given config)")
    _add_execution_flags(p)


def _add_lint_arguments(p: argparse.ArgumentParser) -> None:
    from .analysis.cli import add_lint_arguments

    add_lint_arguments(p)


def _add_cache_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--cache-dir", metavar="DIR",
                   help="cache location (default: REPRO_CACHE_DIR "
                        "or ~/.cache/repro)")
    p.add_argument("--clear", action="store_true",
                   help="delete every cached result")


def _no_arguments(p: argparse.ArgumentParser) -> None:
    pass


#: Every subcommand in ``--help`` order: ``(name, aliases, help,
#: handler, add_arguments)``.  ``add_arguments`` imports whatever its
#: ``choices`` and defaults read (experiment ids, schemes, profiles).
_COMMANDS = (
    ("list", (), "list experiment ids", _cmd_list, _no_arguments),
    ("run", (), "regenerate one table/figure", _cmd_run, _add_run_arguments),
    ("all", ("run-all",), "regenerate every table/figure", _cmd_all,
     _add_all_arguments),
    ("simulate", (), "replay one trace/scheme pair", _cmd_simulate,
     _add_simulate_arguments),
    ("faults", (), "run a fault-injection reliability campaign",
     _cmd_faults, _add_faults_arguments),
    ("fleet", (), "run a sharded multi-device fleet campaign", _cmd_fleet,
     _add_fleet_arguments),
    ("lint", (), "run the determinism/schema static analyzer", _cmd_lint,
     _add_lint_arguments),
    ("cache", (), "inspect or clear the result cache", _cmd_cache,
     _add_cache_arguments),
    ("traces", (), "show trace profiles", _cmd_traces, _no_arguments),
)


def _parser(command: "str | None") -> argparse.ArgumentParser:
    """The argument parser, with every subcommand registered.

    ``command`` names the one subcommand whose arguments are added (its
    name or an alias); ``None`` adds every subcommand's arguments.
    """
    parser = argparse.ArgumentParser(
        prog="repro-ssd",
        description=("Reproduction of 'Intra-page Cache Update in SLC-mode "
                     "with Partial Programming in High Density SSDs' "
                     "(ICPP 2021)"),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, aliases, help_text, handler, add_arguments in _COMMANDS:
        p = sub.add_parser(name, aliases=list(aliases), help=help_text)
        if command is None or command == name or command in aliases:
            add_arguments(p)
        p.set_defaults(fn=handler)
    return parser


def build_parser() -> argparse.ArgumentParser:
    """The complete argument parser (exposed for shell-completion tooling)."""
    return _parser(None)


def main(argv: "list[str] | None" = None) -> int:
    """Entry point.

    Only the invoked subcommand's arguments are added, so a command
    imports only the registries its own ``choices`` read.  Top-level
    options take no value, so the first word that is not an option is
    the subcommand.
    """
    if argv is None:
        argv = sys.argv[1:]
    command = next((word for word in argv if not word.startswith("-")), "")
    args = _parser(command).parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        # Output was piped into something that closed early (| head).
        return 0
    except Exception as exc:
        # Imported only here, so lint, --help and --version keep their
        # standard-library start-up (tests/test_lean_startup.py).
        from .errors import ReproError

        if not isinstance(exc, ReproError):
            raise
        print(f"repro-ssd: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
