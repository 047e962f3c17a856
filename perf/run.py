"""Repository benchmark: six workloads, end-to-end and per-layer metrics.

One workload, as a benchmark harness calls it::

    python3 perf/run.py --workload write-gc --seed 1 --seconds 8 --trace 0

prints a table, then as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: every end-to-end
metric with ``--trace 0``, every per-layer metric with ``--trace 1``.
Details (every sample, provenance, digests, per-function trace
aggregates) go to ``perf/out/<workload>.json`` (``.traced.json``) and the
kept spans to ``perf/out/<workload>.spans.json``.

Every workload, ``--runs`` times with consecutive seeds, each run in its
own process (the first round traced)::

    python3 perf/run.py [--only read-heavy,lint] [--runs 5] [--no-trace]
                        [--json PATH]

Two such suites, compared metric by metric against the bounds in
``BENCHMARK.json``, and the exact metrics seed by seed (exit 1 on any
worse metric, any changed exact metric or more failures)::

    python3 perf/run.py --compare BASE.json NEW.json

See ``perf/README.md`` for the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import gc
import importlib.metadata
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

from calibration import at_reference, probe_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Timed reps per run, at least (more while ``--seconds`` lasts).
MIN_REPS = 3
#: Fresh set-ups per run whose median is ``setup_s``.
SETUP_SAMPLES = 5
#: Relative gain below which a median counts as unchanged in --compare.
NOISE_FLOOR = 0.01
#: Native thread pools (numpy's BLAS) kept to one thread, in this
#: process and in every child.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def provenance(seed: int) -> dict:
    """Where and how a result was measured."""
    return {
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "cpus": sorted(os.sched_getaffinity(0)),
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "started_unix": time.time(),
    }


def summarize(samples: "list[float]") -> dict:
    """Median, extremes and raw samples of one measurement."""
    return {"median": statistics.median(samples), "min": min(samples),
            "max": max(samples), "n": len(samples), "samples": samples}


def peak_rss_mb(timed_children_mb: float) -> float:
    """Max RSS of this process and of the children of the timed reps, MiB.

    Children of untimed steps (the set-up samples, campaign's cold fill)
    are left out: they are not the workload being measured.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return max(own, timed_children_mb)


def load_benchmark() -> dict:
    with BENCHMARK.open(encoding="utf-8") as fh:
        return json.load(fh)


# -- one workload ---------------------------------------------------------------


class Ledger:
    """Ops attempted and failed, and the reference digest of each op."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def fail(self, message: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.failures.append(message)

    def account(self, ops, phase: str) -> None:
        """Count ``ops`` and check each against its first digest."""
        for op in ops:
            self.attempted += 1
            problem = op.error
            if not problem and op.output is not None:
                digest = self.workload.digest(op)
                reference = self.digests.setdefault(op.name, digest)
                if digest != reference:
                    problem = "output digest differs from its first run"
            if problem:
                self.failed += 1
                self.failures.append(f"{phase} {op.name}: {problem}")


def run_rep(workload, inputs, ledger: Ledger, phase: str):
    """One rep: ``(seconds, ops)``, or ``(None, [])`` if it raised."""
    gc.collect()
    start = time.perf_counter()
    try:
        ops = workload.rep(inputs)
    except Exception:
        ledger.fail(f"{phase}: raised\n{traceback.format_exc()}")
        return None, []
    seconds = time.perf_counter() - start
    ledger.account(ops, phase)
    return seconds, ops


def measure(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload; returns its detail record."""
    OUT.mkdir(parents=True, exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"tmp-{workload.name}-", dir=OUT))
    try:
        return _measure(workload, seed, seconds, trace, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def _measure(workload, seed: int, seconds: float, trace: bool,
             tmp: Path) -> dict:
    detail: dict = {"workload": workload.name, "seed": seed,
                    "seconds": seconds, "trace": int(trace),
                    "provenance": provenance(seed)}
    ledger = Ledger(workload)
    probes: list[float] = []

    def probe() -> float:
        probes.append(probe_seconds())
        return probes[-1]

    prepared = workload.prepare(seed, tmp)
    ledger.account(prepared, "prepare")
    detail["prepare_s"] = sum(op.seconds for op in prepared)
    setup_raw, setup_ref = [], []
    for _ in range(SETUP_SAMPLES):
        speed = probe()
        setup_raw.append(workload.setup_once(seed, tmp))
        setup_ref.append(at_reference(setup_raw[-1], speed))
    inputs = workload.build_inputs(seed, tmp)

    exact = None
    requests = 0
    if workload.warmup:
        detail["warmup_s"], ops = run_rep(workload, inputs, ledger, "warm-up")
        if ops:
            exact = workload.exact_metrics(ops)
            requests = workload.requests(ops)
    samples: list[float] = []
    reps = []
    children_mb = 0.0
    probe()
    start = time.perf_counter()
    attempts = 0
    while attempts < MIN_REPS or time.perf_counter() - start < seconds:
        attempts += 1
        rep_s, ops = run_rep(workload, inputs, ledger, f"rep {attempts}")
        probe()
        if rep_s is None:
            continue
        samples.append(rep_s)
        if exact is None:
            exact = workload.exact_metrics(ops)
            requests = workload.requests(ops)
        for op in ops:
            children_mb = max(children_mb, op.info.get("rss_mb", 0.0))
            op.output = None
            op.info = {}
        reps.append(ops)
    if not samples:
        raise RuntimeError("every rep failed:\n" + "\n".join(ledger.failures))
    rss = peak_rss_mb(children_mb)
    ledger.account(workload.check_ops(), "check")

    op_seconds: dict[str, list[float]] = {}
    for ops in reps:
        for op in ops:
            op_seconds.setdefault(op.name, []).append(op.seconds)
    # Each op's fastest timed run, at reference speed against the
    # fastest probe: both are taken in the host's fast phase whenever the
    # run saw one, and both in the slow phase when it did not.
    wall = at_reference(sum(min(v) for v in op_seconds.values()), min(probes))
    detail["e2e"] = {"wall_s": wall,
                     "setup_s": statistics.median(setup_ref),
                     "peak_rss_mb": rss}
    detail["rep_s"] = summarize(samples)
    detail["setup_raw_s"] = setup_raw
    detail["probe_s"] = probes
    detail["op_seconds"] = op_seconds
    detail["exact"] = exact or {}
    detail["extra"] = workload.extra(reps)
    if requests:
        detail["extra"]["replay_rps"] = requests / wall
    if trace:
        detail["layers"] = traced_run(workload, seed, tmp, ledger, detail)
    detail["attempted"] = ledger.attempted
    detail["failed"] = ledger.failed
    detail["failures"] = ledger.failures
    detail["correct"] = not ledger.failures
    detail["digests"] = ledger.digests
    return detail


def traced_run(workload, seed: int, tmp: Path, ledger: Ledger,
               detail: dict) -> dict:
    """One rep under the tracer; returns the per-layer record."""
    from layers import TraceView, build_targets, layer_metrics
    from tracer import Tracer, tracing
    from workloads import CliWorkload

    untraced_s = detail["e2e"]["wall_s"]
    if isinstance(workload, CliWorkload):
        # The traced CLI run is in-process: no interpreter start-up.
        untraced_s -= detail["e2e"]["setup_s"]
    targets = build_targets()
    tracer = Tracer()
    before = probe_seconds()
    gc.collect()
    start = time.perf_counter()
    with tracing(tracer, targets):
        ops, setup_s, requests = workload.traced_rep(seed, tmp)
    wall = time.perf_counter() - start
    speed = min(before, probe_seconds())
    ledger.account(ops, "traced")
    requests = requests or tracer.requests
    exact = dict(detail["exact"])
    exact.update(workload.traced_extra(tracer))
    overhead = at_reference(wall - setup_s, speed) / untraced_s - 1.0
    metrics = layer_metrics(TraceView(tracer), wall, requests, exact,
                            overhead, detail["extra"])
    spans = tracer.spans_payload()
    spans.update(workload=workload.name, seed=seed)
    with (OUT / f"{workload.name}.spans.json").open("w") as fh:
        json.dump(spans, fh, separators=(",", ":"))
    return {"metrics": metrics, "traced_wall_s": wall,
            "traced_setup_s": setup_s, "requests": requests,
            "functions": tracer.by_function()}


def result_line(detail: dict, trace: bool) -> dict:
    """The machine-readable summary of one run (the last line printed)."""
    from layers import LAYER_METRICS

    if trace:
        units = {m.name: m.unit for m in LAYER_METRICS}
        values = detail["layers"]["metrics"]
    else:
        units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
        values = detail["e2e"]
    return {"correct": detail["correct"], "attempted": detail["attempted"],
            "failed": detail["failed"],
            "metrics": {name: {"value": values[name], "unit": units[name]}
                        for name in units}}


def print_detail(detail: dict) -> None:
    units = {m["name"]: m["unit"] for m in load_benchmark()["end_to_end"]}
    print(f"{detail['workload']} (seed {detail['seed']}): "
          f"{detail['attempted']} ops, {detail['failed']} failed")
    for name, value in detail["e2e"].items():
        print(f"  {name:<26} {value:>11.4f} {units[name]}")
    reps = detail["rep_s"]
    print(f"  {'rep_s (host, raw)':<26} {reps['median']:>11.4f} s    "
          f"min {reps['min']:.4f} max {reps['max']:.4f} n={reps['n']}")
    raw = detail["setup_raw_s"]
    print(f"  {'setup_s (host, raw)':<26} {statistics.median(raw):>11.4f} s    "
          f"min {min(raw):.4f} max {max(raw):.4f} n={len(raw)}")
    for name, value in sorted(detail["extra"].items()):
        print(f"  {name:<26} {value:>11.4f}")
    for name, value in sorted(detail["exact"].items()):
        print(f"  {name:<26} {value:>11.6g}")
    if "layers" in detail:
        for name, value in detail["layers"]["metrics"].items():
            print(f"  {name:<30} {value:.6g}")
    for failure in detail["failures"]:
        print(f"  FAIL {failure}")


def run_one(args) -> int:
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    if args.setup_only:
        OUT.mkdir(parents=True, exist_ok=True)
        tmp = Path(tempfile.mkdtemp(prefix="setup-", dir=OUT))
        try:
            workload.build_inputs(args.seed, tmp)
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        return 0
    trace = bool(args.trace)
    detail = measure(workload, args.seed, args.seconds, trace)
    name = f"{workload.name}.traced.json" if trace else f"{workload.name}.json"
    with (OUT / name).open("w") as fh:
        json.dump(detail, fh, indent=1, sort_keys=True)
    print_detail(detail)
    print(json.dumps(result_line(detail, trace)))
    return 0


# -- the suite ------------------------------------------------------------------


def run_suite(args) -> int:
    from workloads import WORKLOADS

    names = (args.only.split(",") if args.only else list(WORKLOADS))
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        print(f"unknown workloads: {', '.join(unknown)}", file=sys.stderr)
        return 2
    suite: dict = {"provenance": provenance(args.seed), "runs": []}
    # Rounds interleave the workloads, so host drift spreads over all.
    for round_ in range(args.runs):
        trace = 0 if args.no_trace or round_ else 1
        seed = args.seed + round_
        for name in names:
            argv = [sys.executable, str(Path(__file__).resolve()),
                    "--workload", name, "--seed", str(seed),
                    "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=ROOT, capture_output=True,
                                  text=True)
            if proc.returncode != 0:
                print(proc.stdout + proc.stderr, file=sys.stderr)
                print(f"{name}: exited {proc.returncode}", file=sys.stderr)
                return 1
            out = OUT / (f"{name}.traced.json" if trace else f"{name}.json")
            with out.open() as fh:
                suite["runs"].append(json.load(fh))
            print(proc.stdout.rsplit("\n", 2)[0], flush=True)
    path = Path(args.json) if args.json else OUT / "suite.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as fh:
        json.dump(suite, fh, indent=1, sort_keys=True)
    print(f"(suite written to {path})")
    return 0 if all(run["correct"] for run in suite["runs"]) else 1


# -- compare --------------------------------------------------------------------


def rel_spread(values: "list[float]") -> float:
    """Distance between the quartiles over the median (0 for n < 2)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(base: "list[float]", new: "list[float]", better: str,
            bound: float) -> str:
    """better / worse / unchanged / unresolved for one metric's runs."""
    sign = 1.0 if better == "lower" else -1.0
    b, n = statistics.median(base), statistics.median(new)
    worsening = sign * (n - b) / abs(b) if b else sign * (n - b)
    spread = max(rel_spread(base), rel_spread(new))
    if better == "lower":
        all_worse, all_better = min(new) > max(base), max(new) < min(base)
    else:
        all_worse, all_better = max(new) < min(base), min(new) > max(base)
    if spread > bound and not (all_worse or all_better):
        return "unresolved"
    if worsening > bound:
        return "worse"
    if -worsening > max(spread, NOISE_FLOOR):
        return "better"
    return "unchanged"


def exact_verdict(base: "dict[int, float]", new: "dict[int, float]") -> str:
    """identical / changed for one exact metric, given per seed.

    An exact metric is deterministic for a seed, so it is compared seed
    by seed; a value for a seed only one side has counts as a change.
    """
    seeds = sorted(set(base) | set(new))
    changed = sum(base.get(s) != new.get(s) for s in seeds)
    return f"changed ({changed}/{len(seeds)} seeds)" if changed else "identical"


def _by_workload(suite: dict) -> "dict[str, list[dict]]":
    out: dict[str, list[dict]] = {}
    for run in suite["runs"]:
        out.setdefault(run["workload"], []).append(run)
    return out


def _row(workload: str, metric: str, base: "list[float]",
         new: "list[float]", v: str, fmt: str = ".4f") -> None:
    def cell(values):
        return (f"{statistics.median(values):>12{fmt}} "
                f"{min(values):>10{fmt}}..{max(values):<10{fmt}}")
    print(f"{workload:<11} {metric:<26} {cell(base)} {cell(new)} "
          f"{len(base):>2}/{len(new):<2}  {v}")


def compare(base_path: str, new_path: str) -> int:
    from layers import LAYER_METRICS

    with open(base_path) as fh:
        base = _by_workload(json.load(fh))
    with open(new_path) as fh:
        new = _by_workload(json.load(fh))
    e2e = load_benchmark()["end_to_end"]
    exact_names = sorted(m.name for m in LAYER_METRICS if m.exact)
    bad = False
    print(f"{'workload':<11} {'metric':<26} {'base median':>12} "
          f"{'base min..max':>22} {'new median':>12} {'new min..max':>22} "
          f"{'n':>5}  verdict")
    for name in sorted(set(base) & set(new)):
        b_runs, n_runs = base[name], new[name]
        for metric in e2e:
            bv = [r["e2e"][metric["name"]] for r in b_runs]
            nv = [r["e2e"][metric["name"]] for r in n_runs]
            v = verdict(bv, nv, metric["better"], metric["bound"])
            bad = bad or v == "worse"
            _row(name, metric["name"], bv, nv, v)
        # Exact metrics repeat for a seed: compare the seeds both ran.
        b_seed = {r["seed"]: r["exact"] for r in b_runs}
        n_seed = {r["seed"]: r["exact"] for r in n_runs}
        seeds = sorted(set(b_seed) & set(n_seed))
        if not seeds:
            print(f"{name:<11} (no seed in both suites: exact metrics "
                  f"not compared)")
        for metric in exact_names:
            bv = {s: b_seed[s][metric] for s in seeds if metric in b_seed[s]}
            nv = {s: n_seed[s][metric] for s in seeds if metric in n_seed[s]}
            if not any(bv.values()) and not any(nv.values()):
                continue  # a layer this workload skips
            v = exact_verdict(bv, nv)
            bad = bad or v != "identical"
            _row(name, metric, list(bv.values()) or [0.0],
                 list(nv.values()) or [0.0], v, ".6g")
        fb = sum(r["failed"] for r in b_runs) / sum(r["attempted"] for r in b_runs)
        fn = sum(r["failed"] for r in n_runs) / sum(r["attempted"] for r in n_runs)
        v = "worse" if fn > fb else "unchanged"
        bad = bad or v == "worse"
        _row(name, "fail_frac", [fb], [fn], v)
    return 1 if bad else 0


# -- entry point ----------------------------------------------------------------


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(
        description="Repository benchmark (see perf/README.md).")
    parser.add_argument("--workload", help="run one workload")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of every generated input (default 1)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed-rep budget per run (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add the traced run, report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--only", metavar="W1,W2",
                        help="suite: run only these workloads")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite: runs per workload, seeds SEED, SEED+1, ...")
    parser.add_argument("--no-trace", action="store_true",
                        help="suite: skip the traced runs")
    parser.add_argument("--json", metavar="PATH",
                        help="suite: output path (default perf/out/suite.json)")
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"),
                        help="compare two suite outputs")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perf: no program to measure: {SRC / 'repro'} is missing "
              f"(run from a full checkout)", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = float(load_benchmark()["run_seconds"])
    if args.seconds <= 0 or args.runs < 1:
        parser.error("--seconds and --runs must be positive")
    for name in list(os.environ):
        if name.startswith("REPRO_"):
            del os.environ[name]
    for name in THREAD_VARS:
        os.environ[name] = "1"
    # One CPU for this process and every child, so a probe and the
    # timing it calibrates share a CPU and its speed at the time.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    sys.path.insert(0, str(SRC))
    if args.workload:
        from workloads import WORKLOADS

        if args.workload not in WORKLOADS:
            parser.error(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
        return run_one(args)
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
