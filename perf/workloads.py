"""The six benchmark workloads.

Each workload builds its inputs from the seed, runs one *rep* of its
operations, and says how to check them.  An *op* is one cell replay, one
campaign run or one lint run; its output digest must repeat exactly
across reps, and between the traced and the untraced run.

From the host's side every replay is a batch job: the trace is fed as
fast as the simulator runs, with modelled open-loop arrivals taken from
the trace timestamps, so host speed is reported as time per rep at a
stated input size.  Everything runs in one process with one thread;
``campaign`` and ``lint`` time fresh CLI processes, one at a time.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
#: A CLI child still running after this many seconds is killed.
CLI_TIMEOUT_S = 170
GOLDEN_DIR = ROOT / "results" / "golden"
#: Golden headline metrics must match to this absolute tolerance (the
#: repository's golden regression test uses the same).
GOLDEN_TOLERANCE = 1e-9
#: Queue depth of the front-end replays.
FRONTEND_QD = 8


def child_env() -> dict:
    """Environment for CLI children: no ``REPRO_*``, ``src`` importable."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


@dataclass
class CliRun:
    """One finished ``python -m repro`` child."""

    seconds: float
    returncode: int
    stdout: str
    #: The child's own peak resident memory, MiB.
    rss_mb: float


def run_cli(args: "list[str]") -> CliRun:
    """Run ``python -m repro ARGS`` from the repository root; timed.

    The child is reaped with ``os.wait4``, which gives its own peak RSS
    apart from every other child this process has waited for.
    """
    argv = [sys.executable, "-m", "repro", *args]

    def timed_out(signum, frame):
        raise subprocess.TimeoutExpired(argv, CLI_TIMEOUT_S)

    OUT.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryFile(dir=OUT) as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=out,
                                stderr=subprocess.DEVNULL)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(CLI_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except subprocess.TimeoutExpired:
            proc.kill()
            os.wait4(proc.pid, 0)
            raise
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        stdout = out.read().decode("utf-8")
    return CliRun(seconds, proc.returncode, stdout, usage.ru_maxrss / 1024.0)


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def result_digest(result) -> str:
    """SHA-256 of a result's canonical ``deterministic_dict()`` JSON."""
    return sha256(json.dumps(result.deterministic_dict(), sort_keys=True,
                             separators=(",", ":")))


@dataclass
class Op:
    """One operation of a rep: its name, host seconds and output."""

    name: str
    seconds: float
    #: What the digest is taken over (a result, a JSON string, stdout);
    #: ``None`` for an op checked by other means (the golden cells).
    output: object = None
    #: Failure found while running the op ("" = none).
    error: str = ""
    #: Small per-op facts the workload keeps (modelled resource use, a
    #: CLI child's ``rss_mb``).
    info: dict = field(default_factory=dict)


class Workload:
    """Base class; see the module docstring for the vocabulary."""

    name = ""
    why = ""
    #: Run one untimed rep before timing (it also fixes the reference
    #: digests).
    warmup = True
    #: Smoke-scale ``(trace, scheme)`` cells checked against the
    #: committed golden values (seed 1).
    golden_cells: "tuple[tuple[str, str], ...]" = ()

    def prepare(self, seed: int, tmp: Path) -> "list[Op]":
        """One-off untimed preparation before the set-up samples; its
        ops' outputs become the reference digests."""
        return []

    def setup_once(self, seed: int, tmp: Path) -> float:
        """Host seconds of one fresh set-up (spawn to exit).

        The default spawns ``run.py --setup-only``: a fresh interpreter
        that imports the program and builds this workload's inputs.
        """
        argv = [sys.executable, str(Path(__file__).with_name("run.py")),
                "--setup-only", "--workload", self.name, "--seed", str(seed)]
        start = time.perf_counter()
        subprocess.run(argv, cwd=ROOT, env=child_env(), check=True,
                       capture_output=True, timeout=170)
        return time.perf_counter() - start

    def build_inputs(self, seed: int, tmp: Path):
        """The rep's inputs (traces, configs), built in this process."""
        return None

    def rep(self, inputs) -> "list[Op]":
        raise NotImplementedError

    def digest(self, op: Op) -> str:
        return result_digest(op.output)

    def exact_metrics(self, ops: "list[Op]") -> dict:
        """Deterministic metrics from one rep's ops."""
        return {}

    def extra(self, reps: "list[list[Op]]") -> dict:
        """Host measurements beyond ``wall_s`` (medians over reps)."""
        return {}

    def traced_rep(self, seed: int, tmp: Path):
        """Build inputs and run one rep, for the traced run.

        Returns ``(ops, setup_s, requests)``: the ops, the seconds spent
        building inputs (traced as well), and the simulated host requests
        replayed (0 = let the tracer count request entries).
        """
        start = time.perf_counter()
        inputs = self.build_inputs(seed, tmp)
        setup_s = time.perf_counter() - start
        ops = self.rep(inputs)
        return ops, setup_s, self.requests(ops)

    def requests(self, ops: "list[Op]") -> int:
        """Simulated host requests one rep replays (0: not a replay)."""
        return 0

    def check_ops(self) -> "list[Op]":
        """Correctness ops run once after timing (the golden cells)."""
        return golden_ops(self.golden_cells)

    def traced_extra(self, tracer) -> dict:
        """Exact metrics only the traced run can see."""
        return {}


def golden_ops(cells) -> "list[Op]":
    """Replay ``cells`` at smoke scale, seed 1; compare with the goldens.

    One op per cell.  Every run checks the same committed values, so a
    change that moves a modelled result fails here on any seed.
    """
    if not cells:
        return []
    from repro.experiments.runner import RunContext

    golden: dict = {}
    for path in sorted(GOLDEN_DIR.glob("*_smoke.json")):
        for cell, metrics in json.loads(path.read_text())["cells"].items():
            golden.setdefault(cell, {}).update(metrics)
    ctx = RunContext(scale="smoke", seed=1)
    ops = []
    for trace, scheme in cells:
        name = f"golden {trace}/{scheme}"
        expected = golden.get(f"{trace}/{scheme}")
        if expected is None:
            ops.append(Op(name, 0.0, error="no committed golden values"))
            continue
        start = time.perf_counter()
        result = ctx.run(trace, scheme)
        errors = [f"{metric} = {getattr(result, metric)!r}, committed {value!r}"
                  for metric, value in sorted(expected.items())
                  if abs(getattr(result, metric) - value) > GOLDEN_TOLERANCE]
        ops.append(Op(name, time.perf_counter() - start,
                      error="; ".join(errors)))
    return ops


# -- modelled metrics ---------------------------------------------------------


def pooled_metrics(records: "list[dict]", latencies=None,
                   write_latencies=None, reads: int = 0) -> dict:
    """Modelled metrics pooled over cells.

    ``records`` are result field dicts (``SimulationResult`` fields);
    latency arrays are optional (the fleet payloads carry histograms
    instead).
    """
    def total(*names):
        return sum(r[name] for r in records for name in names)

    host = total("host_subpages_slc", "host_subpages_mlc")
    gc = total("gc_subpages_slc", "gc_subpages_mlc")
    out = {
        "sim.write_amp": (host + gc) / host if host else 0.0,
        "sim.read_error_rate": (total("read_raw_errors") / total("read_bits")
                                if total("read_bits") else 0.0),
        "ftl.gc_write_frac": gc / (host + gc) if host + gc else 0.0,
        "ftl.slc_victim_util": (total("slc_page_utilization") / len(records)
                                if records else 0.0),
        "ftl.mlc_spill_frac": (total("host_subpages_mlc") / host
                               if host else 0.0),
        "core.intra_page_frac": (total("intra_page_updates")
                                 / total("update_writes")
                                 if total("update_writes") else 0.0),
        "nand.partial_programs": total("partial_programs"),
        "nand.erases": total("erases_slc", "erases_mlc"),
        "faults.retries_per_read": (total("read_retries") / reads
                                    if reads else 0.0),
        "faults.program_failures": total("program_failures"),
        "faults.power_losses": total("power_loss_events"),
        "frontend.flushes": total("flushes"),
    }
    looked_up = total("cache_read_hits", "cache_read_misses")
    out["frontend.read_hit_frac"] = (total("cache_read_hits") / looked_up
                                     if looked_up else 0.0)
    flushed = total("flushed_subpages")
    out["frontend.coalesce_frac"] = (total("coalesced_writes") / flushed
                                     if flushed else 0.0)
    if latencies is not None and len(latencies):
        import numpy as np
        out["sim.lat_p99_ms"] = float(np.percentile(latencies, 99))
    if write_latencies is not None and len(write_latencies):
        out["sim.write_lat_ms"] = float(write_latencies.mean())
    return out


def result_metrics(results, chip_busy: "list[float]") -> dict:
    """:func:`pooled_metrics` over in-memory ``SimulationResult`` s."""
    import numpy as np

    records = [vars(r) for r in results]
    lat = np.concatenate([a for r in results
                          for a in (r.read_latencies, r.write_latencies)])
    wlat = np.concatenate([r.write_latencies for r in results])
    out = pooled_metrics(records, lat, wlat,
                         reads=sum(len(r.read_latencies) for r in results))
    out["sim.chip_busy_frac"] = sum(chip_busy) / len(chip_busy)
    return out


def chip_busy_frac(resources) -> float:
    """Modelled chip utilisation: busy time over chips x horizon."""
    horizon = resources.horizon()
    if horizon <= 0:
        return 0.0
    busy = sum(chip.busy_ms for chip in resources.chips)
    return busy / (len(resources.chips) * horizon)


# -- replay workloads ---------------------------------------------------------


class ReplayWorkload(Workload):
    """Cells replayed in-process on freshly built FTLs."""

    scale = "small"
    length_factor = 1.0
    #: ``(trace, scheme, through_frontend)`` per cell, in rep order.
    cells: "tuple[tuple[str, str, bool], ...]" = ()

    def modelled_cell(self, trace: str, scheme: str, frontend: bool) -> bool:
        """Whether a cell feeds the modelled metrics (the ipu cells)."""
        return scheme == "ipu"

    def build_inputs(self, seed: int, tmp: Path):
        from repro.experiments.runner import RunContext

        ctx = RunContext(scale=self.scale, seed=seed,
                         length_factor=self.length_factor)
        for trace in dict.fromkeys(t for t, _, _ in self.cells):
            ctx.trace_config(trace)
            ctx.trace(trace)
        return ctx

    def rep(self, ctx) -> "list[Op]":
        from repro import SCHEMES
        from repro.frontend import FrontendConfig
        from repro.frontend.simulate import FrontendSimulator
        from repro.sim.simulator import Simulator

        ops = []
        for trace, scheme, frontend in self.cells:
            start = time.perf_counter()
            ftl = SCHEMES[scheme](ctx.trace_config(trace))
            sim = (FrontendSimulator(ftl, FrontendConfig.from_qd(FRONTEND_QD))
                   if frontend else Simulator(ftl))
            result = sim.run(ctx.trace(trace))
            seconds = time.perf_counter() - start
            ops.append(Op(f"{trace}/{scheme}{'+frontend' if frontend else ''}",
                          seconds, result,
                          info={"chip_busy_frac": chip_busy_frac(sim.resources),
                                "modelled": self.modelled_cell(
                                    trace, scheme, frontend)}))
        return ops

    def requests(self, ops: "list[Op]") -> int:
        return sum(op.output.n_requests for op in ops)

    def exact_metrics(self, ops: "list[Op]") -> dict:
        chosen = [op for op in ops if op.info["modelled"]]
        return result_metrics([op.output for op in chosen],
                              [op.info["chip_busy_frac"] for op in chosen])


class WriteGc(ReplayWorkload):
    name = "write-gc"
    why = ("GC-heavy writes (ts0: 82% writes, 50% hot) under baseline, mga "
           "and ipu: the FTL write pipeline, IPU core and nand program/erase "
           "dominate")
    length_factor = 0.3
    cells = (("ts0", "baseline", False), ("ts0", "mga", False),
             ("ts0", "ipu", False))
    golden_cells = (("ts0", "baseline"), ("ts0", "mga"), ("ts0", "ipu"))

    def exact_metrics(self, ops: "list[Op]") -> dict:
        out = super().exact_metrics(ops)
        by_scheme = {op.name.split("/")[1]: op.output for op in ops}
        base = by_scheme["baseline"].avg_latency_ms
        out["sim.ipu_gain_pct"] = (
            100.0 * (1.0 - by_scheme["ipu"].avg_latency_ms / base)
            if base else 0.0)
        return out


class ReadHeavy(ReplayWorkload):
    name = "read-heavy"
    why = ("lun2 (19% writes) on the largest device: FTL reads, "
           "FlashArray.read_list and ECC pricing dominate, GC and IPU idle")
    scale = "medium"
    length_factor = 0.4
    cells = (("lun2", "ipu", False),)
    golden_cells = (("lun2", "ipu"),)


class Frontend(ReplayWorkload):
    name = "frontend"
    why = ("ts0 and lun2 replayed direct and through the write buffer and "
           "scheduler in the same rep; the only workload that enters the "
           "front-end")
    length_factor = 0.2
    cells = (("ts0", "ipu", False), ("ts0", "ipu", True),
             ("lun2", "ipu", False), ("lun2", "ipu", True))
    # The goldens hold direct cells only, so they anchor the direct half
    # of each pair.  The QD8 front-end cells have no committed values:
    # within a run their digests must repeat, and across commits
    # ``--compare`` checks their modelled metrics seed by seed.
    golden_cells = (("ts0", "ipu"), ("lun2", "ipu"))

    def modelled_cell(self, trace: str, scheme: str, frontend: bool) -> bool:
        return frontend

    def extra(self, reps: "list[list[Op]]") -> dict:
        """``frontend.tax_x``: front-end over direct seconds, per rep."""
        import statistics

        def tax(ops, traces):
            fe = sum(op.seconds for op in ops if op.name.endswith("+frontend")
                     and op.name.split("/")[0] in traces)
            direct = sum(op.seconds for op in ops
                         if not op.name.endswith("+frontend")
                         and op.name.split("/")[0] in traces)
            return fe / direct
        out = {"frontend.tax_x": statistics.median(
            tax(ops, ("ts0", "lun2")) for ops in reps)}
        for trace in ("ts0", "lun2"):
            out[f"frontend.tax_x.{trace}"] = statistics.median(
                tax(ops, (trace,)) for ops in reps)
        return out


class FleetCkpt(Workload):
    name = "fleet-ckpt"
    why = ("2-device faulty fleet over streamed, merged and sharded tenants "
           "with per-epoch checkpoints, plus a pause at epoch 2 and resume")
    golden_cells = (("ts0", "ipu"), ("lun2", "ipu"))
    epoch_requests = 4096

    def config(self, seed: int):
        from repro.fleet import FleetConfig, TenantSpec

        return FleetConfig(
            n_devices=2, tenants=(TenantSpec("ts0", 2.0), TenantSpec("lun2", 1.0)),
            scheme="ipu", scale="smoke", seed=seed, n_epochs=4,
            epoch_requests=self.epoch_requests, fault_rate=0.5).validate()

    def build_inputs(self, seed: int, tmp: Path):
        from repro.fleet.runner import device_config

        cfg = self.config(seed)
        device_config(cfg)  # the sizing pilot every device run repeats
        return cfg, tmp

    def rep(self, inputs) -> "list[Op]":
        import shutil
        import tempfile

        from repro.fleet import run_campaign
        from repro.fleet.campaign import campaign_json

        cfg, tmp = inputs
        ops = []
        straight = Path(tempfile.mkdtemp(prefix="ckpt-", dir=tmp))
        paused = Path(tempfile.mkdtemp(prefix="ckpt-", dir=tmp))
        try:
            start = time.perf_counter()
            campaign = run_campaign(cfg, jobs=1, checkpoint_dir=str(straight),
                                    checkpoint_every=1)
            seconds = time.perf_counter() - start
            ckpt_bytes = sum(p.stat().st_size for p in straight.rglob("*.ckpt"))
            ops.append(Op("campaign", seconds, campaign_json(campaign),
                          info={"campaign": campaign,
                                "ckpt_mb": ckpt_bytes / 2 ** 20}))
            start = time.perf_counter()
            stopped = run_campaign(cfg, jobs=1, checkpoint_dir=str(paused),
                                   checkpoint_every=1, stop_after_epoch=2)
            resumed = run_campaign(cfg, jobs=1, checkpoint_dir=str(paused),
                                   checkpoint_every=1)
            seconds = time.perf_counter() - start
            error = ""
            if stopped is not None:
                error = "pause at epoch 2 returned a result"
            elif campaign_json(resumed) != ops[0].output:
                error = "paused+resumed campaign differs from uninterrupted"
            ops.append(Op("pause+resume", seconds, campaign_json(resumed),
                          error=error))
        finally:
            shutil.rmtree(straight, ignore_errors=True)
            shutil.rmtree(paused, ignore_errors=True)
        return ops

    def digest(self, op: Op) -> str:
        return sha256(op.output)

    def requests(self, ops: "list[Op]") -> int:
        return 2 * ops[0].info["campaign"]["totals"]["n_requests"]

    def exact_metrics(self, ops: "list[Op]") -> dict:
        from repro.fleet.runner import quantile_from_histogram

        campaign = ops[0].info["campaign"]
        finals = [d["final"] for d in campaign["devices"]]
        epochs = campaign["epochs"]
        out = pooled_metrics(finals, reads=sum(e["reads"] for e in epochs))
        hist = [sum(col) for col in zip(*(e["lat_hist"] for e in epochs))]
        out["sim.lat_p99_ms"] = quantile_from_histogram(hist, 99.0)
        out["fleet.ckpt_mb"] = ops[0].info["ckpt_mb"]
        return out


# -- CLI workloads ------------------------------------------------------------

_CELLS_LINE = re.compile(
    r"^\[cells\] (\d+) simulated .*cache: (\d+) hits / (\d+) misses",
    re.MULTILINE)


def _without_cells_line(stdout: str) -> str:
    """Output minus the ``[cells]`` summary, which carries host seconds
    and the cache location."""
    return "\n".join(line for line in stdout.splitlines()
                     if not line.startswith("[cells]"))


class CliWorkload(Workload):
    """One ``python -m repro`` invocation per op, each in a fresh process;
    the traced run calls :func:`repro.cli.main` in-process instead."""

    warmup = False

    def cli_args(self, seed: int) -> "list[str]":
        raise NotImplementedError

    def check_output(self, seconds: float, code: int, stdout: str) -> Op:
        raise NotImplementedError

    def build_inputs(self, seed: int, tmp: Path):
        return seed

    def rep(self, seed: int) -> "list[Op]":
        run = run_cli(self.cli_args(seed))
        op = self.check_output(run.seconds, run.returncode, run.stdout)
        op.info["rss_mb"] = run.rss_mb
        return [op]

    def traced_rep(self, seed: int, tmp: Path):
        from repro.cli import main

        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = main(self.cli_args(seed))
        seconds = time.perf_counter() - start
        return [self.check_output(seconds, code, out.getvalue())], 0.0, 0

    def digest(self, op: Op) -> str:
        return sha256(op.output)


class Campaign(CliWorkload):
    name = "campaign"
    why = ("python -m repro run-all at smoke scale against a warm result "
           "cache: the experiments cache layer plus the cells it cannot serve")

    def __init__(self):
        self.cache_dir: "Path | None" = None

    def cli_args(self, seed: int) -> "list[str]":
        return ["run-all", "--scale", "smoke", "--jobs", "1",
                "--cache-dir", str(self.cache_dir), "--seed", str(seed)]

    def prepare(self, seed: int, tmp: Path) -> "list[Op]":
        """One cold ``run-all`` filling a fresh cache; its output is the
        reference for every warm run."""
        self.cache_dir = tmp / "cache"
        run = run_cli(self.cli_args(seed))
        match = _CELLS_LINE.search(run.stdout)
        error = ""
        if run.returncode != 0:
            error = f"cold run-all exited {run.returncode}"
        elif match is None or not int(match.group(1)):
            error = "cold run-all simulated no cells"
        return [Op("run-all", run.seconds, _without_cells_line(run.stdout),
                   error=error)]

    def setup_once(self, seed: int, tmp: Path) -> float:
        """CLI start-up against the warm cache: ``cache --cache-dir``
        imports the program and opens the cache every warm run reads.
        (The cold fill takes ten seconds, too long to repeat in a run.)"""
        run = run_cli(["cache", "--cache-dir", str(self.cache_dir)])
        if run.returncode != 0:
            raise RuntimeError(f"repro cache exited {run.returncode}")
        return run.seconds

    def check_output(self, seconds: float, code: int, stdout: str) -> Op:
        error = ""
        match = _CELLS_LINE.search(stdout)
        if code != 0:
            error = f"run-all exited {code}"
        elif match is None:
            error = "run-all printed no [cells] summary"
        elif int(match.group(3)):
            error = f"warm run-all reported {match.group(3)} cache misses"
        return Op("run-all", seconds, _without_cells_line(stdout), error=error)

    def traced_extra(self, tracer) -> dict:
        from repro.experiments.runner import execution_summary

        info = execution_summary()
        looked_up = info["cache_hits"] + info["cache_misses"]
        return {
            "experiments.cache_hit_frac": (info["cache_hits"] / looked_up
                                           if looked_up else 0.0),
            "experiments.uncached_replays": sum(
                "RunContext.run" not in cell["under"]
                for cell in tracer.cells),
        }


class Lint(CliWorkload):
    name = "lint"
    why = ("python -m repro lint over src/repro: pure static analysis, "
           "no simulation; simulator changes predict no change here")

    def cli_args(self, seed: int) -> "list[str]":
        return ["lint", "--format", "json"]

    def setup_once(self, seed: int, tmp: Path) -> float:
        """CLI start-up: ``lint --list-rules`` imports the program and
        every rule but analyses nothing."""
        run = run_cli(["lint", "--list-rules"])
        if run.returncode != 0:
            raise RuntimeError(f"lint --list-rules exited {run.returncode}")
        return run.seconds

    def check_output(self, seconds: float, code: int, stdout: str) -> Op:
        error = ""
        n_files = sum(1 for p in (SRC / "repro").rglob("*.py")
                      if "__pycache__" not in p.parts)
        try:
            report = json.loads(stdout)
        except ValueError:
            report = None
        if code != 0:
            error = f"lint exited {code}"
        elif report is None:
            error = "lint printed no JSON report"
        elif report["new"] or report["stale"] or not report["ok"]:
            error = (f"lint reported {report['new']} new, "
                     f"{report['stale']} stale findings")
        elif report["files_checked"] != n_files:
            error = (f"lint checked {report['files_checked']} files, "
                     f"src/repro has {n_files}")
        return Op("lint", seconds, stdout, error=error)


WORKLOADS: "dict[str, Workload]" = {
    w.name: w for w in (WriteGc(), ReadHeavy(), Frontend(), FleetCkpt(),
                        Campaign(), Lint())
}
