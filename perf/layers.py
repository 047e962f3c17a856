"""The layer map of the traced run.

Layers are the ``repro`` package names.  :data:`ENTRY_POINTS` lists the
public calls the tracer times for each layer; :data:`LAYER_METRICS`
lists every per-layer metric with its unit, its direction and the
end-to-end metrics (and workloads) a change to it should move — written
down before anything is measured, so a later change can be checked
against the prediction.  :func:`layer_metrics` derives the values from
one traced run.
"""

from __future__ import annotations

import importlib
from dataclasses import dataclass

from tracer import CELL, REQUEST, Target, Tracer

LAYERS = ("traces", "sim", "frontend", "ftl", "core", "nand", "error",
          "faults", "fleet", "experiments", "analysis")

#: ``(layer, module, "Class.attr" or "function", flags, tag)``.
ENTRY_POINTS = (
    ("traces", "repro.traces.synth", "SyntheticTraceGenerator.generate", 0,
     "gen"),
    ("traces", "repro.traces.synth", "SyntheticStream.chunks", 0, "gen"),
    ("traces", "repro.traces.stream", "MergedStream.chunks", 0, "gen"),
    ("traces", "repro.traces.stream", "InMemoryStream.chunks", 0, "gen"),
    ("sim", "repro.sim.simulator", "Simulator.__init__", 0, ""),
    ("sim", "repro.sim.simulator", "Simulator.run", CELL, ""),
    ("sim", "repro.sim.simulator", "Simulator.run_closed", CELL, ""),
    ("sim", "repro.sim.simulator", "OpenLoopReplay.feed", CELL, ""),
    ("sim", "repro.sim.simulator", "OpenLoopReplay.result", 0, ""),
    ("sim", "repro.sim.simulator", "ClosedLoopReplay.feed", CELL, ""),
    ("sim", "repro.sim.simulator", "ClosedLoopReplay.result", 0, ""),
    ("frontend", "repro.frontend.simulate", "FrontendSimulator.__init__", 0, ""),
    ("frontend", "repro.frontend.simulate", "FrontendSimulator.run", CELL, ""),
    ("frontend", "repro.frontend.simulate", "FrontendSimulator.feed", CELL, ""),
    ("frontend", "repro.frontend.simulate", "FrontendSimulator.finish", 0, ""),
    ("frontend", "repro.frontend.simulate", "FrontendSimulator.result", 0, ""),
    ("frontend", "repro.frontend.cache", "WriteBuffer.write", 0, "buffer"),
    ("frontend", "repro.frontend.cache", "WriteBuffer.split_read", 0, "buffer"),
    ("frontend", "repro.frontend.cache", "WriteBuffer.expire", 0, "buffer"),
    ("frontend", "repro.frontend.cache", "WriteBuffer.drain", 0, "buffer"),
    ("frontend", "repro.frontend.scheduler", "MultiQueueScheduler.submit",
     REQUEST, "sched"),
    ("frontend", "repro.frontend.scheduler", "MultiQueueScheduler.advance",
     0, "sched"),
    ("frontend", "repro.frontend.scheduler", "MultiQueueScheduler.drain",
     0, "sched"),
    ("ftl", "repro.ftl.base", "BaseFTL.__init__", 0, ""),
    ("ftl", "repro.ftl.base", "BaseFTL.handle_write", REQUEST, ""),
    ("ftl", "repro.ftl.base", "BaseFTL.handle_read", REQUEST, ""),
    ("ftl", "repro.ftl.base", "BaseFTL.idle_collect", 0, ""),
    ("ftl", "repro.ftl.baseline", "BaselineFTL.write", 0, ""),
    ("ftl", "repro.ftl.mga", "MGAFTL.write", 0, ""),
    ("ftl", "repro.ftl.delta", "DeltaFTL.write", 0, ""),
    ("ftl", "repro.ftl.delta", "DeltaFTL.handle_read", REQUEST, ""),
    ("ftl", "repro.ftl.gc", "GarbageCollector.maybe_collect", 0, "gc"),
    ("ftl", "repro.ftl.gc", "GarbageCollector.collect_emergency", 0, "gc"),
    ("core", "repro.core.ipu_ftl", "IPUFTL.write", 0, ""),
    ("nand", "repro.nand.flash", "FlashArray.__init__", 0, ""),
    ("nand", "repro.nand.flash", "FlashArray.read_list", 0, ""),
    ("nand", "repro.nand.flash", "FlashArray.read_span", 0, ""),
    ("nand", "repro.nand.block", "Block.program_disturb", 0, ""),
    ("nand", "repro.nand.block", "Block.invalidate_many", 0, ""),
    ("nand", "repro.nand.block", "Block.erase", 0, ""),
    ("error", "repro.error.ecc", "EccModel.decode_ms_list", 0, ""),
    ("error", "repro.error.ecc", "EccModel.decode_ms_many", 0, ""),
    ("error", "repro.error.ecc",
     "EccModel.uncorrectable_probability_for_subpages", 0, ""),
    ("error", "repro.error.rber", "RberModel.rber_many", 0, ""),
    ("faults", "repro.faults.plan", "FaultPlan.read_outcome", 0, ""),
    ("faults", "repro.faults.plan", "FaultPlan.program_fails", 0, ""),
    ("faults", "repro.faults.plan", "FaultPlan.power_loss", 0, ""),
    ("fleet", "repro.fleet.runner", "run_device", CELL, ""),
    ("fleet", "repro.fleet.checkpoint", "CheckpointStore.save", 0, ""),
    ("fleet", "repro.fleet.checkpoint", "CheckpointStore.load", 0, ""),
    ("fleet", "repro.fleet.shard", "OffsetStream.chunks", 0, ""),
    ("fleet", "repro.fleet.shard", "ShardedStream.chunks", 0, ""),
    ("experiments", "repro.experiments.cache", "ResultCache.get", 0, ""),
    ("experiments", "repro.experiments.cache", "ResultCache.put", 0, ""),
    ("experiments", "repro.experiments.runner", "RunContext.cell_key", 0, ""),
    ("experiments", "repro.experiments.runner", "RunContext.run", 0, ""),
    ("analysis", "repro.analysis.core", "SourceFile.load", 0, ""),
    ("analysis", "repro.analysis.callgraph", "ProjectIndex.build", 0, ""),
)

#: Lint rule families (first letter of the rule id).
RULE_FAMILIES = ("D", "S", "C", "U", "M", "N", "K", "P")


def build_targets() -> list[Target]:
    """Every traced entry point, including each lint rule's hooks.

    A rule hook is traced on the class that defines it (an intermediate
    base shared by one family, or the rule class itself) and tagged with
    the rule family.
    """
    targets = []
    for layer, module_name, qualname, flags, tag in ENTRY_POINTS:
        owner = importlib.import_module(module_name)
        parts = qualname.split(".")
        for part in parts[:-1]:
            owner = getattr(owner, part)
        targets.append(Target(layer, owner, parts[-1], flags, tag))

    from repro.analysis import ALL_RULES
    from repro.analysis.core import Rule
    seen = set()
    for rule in ALL_RULES:
        for attr in ("check_file", "check_project"):
            owner = next(cls for cls in type(rule).__mro__
                         if attr in cls.__dict__)
            if owner is Rule or (owner, attr) in seen:
                continue
            seen.add((owner, attr))
            targets.append(Target("analysis", owner, attr, 0, rule.id[0]))
    return targets


@dataclass(frozen=True)
class LayerMetric:
    """One per-layer metric and the end-to-end metrics it should move."""

    name: str
    unit: str
    better: str
    #: ``((e2e metric, (workload, ...)), ...)`` the prediction.
    moves: tuple
    #: Deterministic for a seed (modelled quantities, counts and sizes
    #: taken from the run's outputs, not from a clock): compared exactly.
    exact: bool = False


_REPLAY = ("write-gc", "read-heavy", "frontend", "fleet-ckpt")

LAYER_METRICS = (
    LayerMetric("traces.self_frac", "frac", "lower",
                (("setup_s", ("write-gc", "read-heavy", "frontend")),
                 ("wall_s", ("fleet-ckpt",)))),
    LayerMetric("traces.gen_s", "s", "lower",
                (("setup_s", ("write-gc", "read-heavy", "frontend")),
                 ("wall_s", ("fleet-ckpt",)))),
    LayerMetric("sim.self_frac", "frac", "lower",
                (("wall_s", _REPLAY + ("campaign",)),)),
    LayerMetric("sim.us_per_req", "us/req", "lower",
                (("wall_s", _REPLAY + ("campaign",)),)),
    LayerMetric("sim.chip_busy_frac", "frac", "lower",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("sim.write_lat_ms", "sim-ms", "lower",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("sim.lat_p99_ms", "sim-ms", "lower",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("sim.write_amp", "ratio", "lower",
                (("wall_s", ("write-gc", "fleet-ckpt")),), exact=True),
    LayerMetric("sim.read_error_rate", "err/bit", "lower",
                (("wall_s", ("fleet-ckpt",)),), exact=True),
    LayerMetric("sim.ipu_gain_pct", "%", "higher",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("frontend.self_frac", "frac", "lower",
                (("wall_s", ("frontend",)),)),
    LayerMetric("frontend.calls_per_req", "count", "lower",
                (("wall_s", ("frontend",)),)),
    LayerMetric("frontend.buffer_us", "us/call", "lower",
                (("wall_s", ("frontend",)),)),
    LayerMetric("frontend.sched_us", "us/call", "lower",
                (("wall_s", ("frontend",)),)),
    LayerMetric("frontend.tax_x", "ratio", "lower",
                (("wall_s", ("frontend",)),)),
    LayerMetric("frontend.read_hit_frac", "frac", "higher",
                (("wall_s", ("frontend",)),), exact=True),
    LayerMetric("frontend.coalesce_frac", "frac", "higher",
                (("wall_s", ("frontend",)),), exact=True),
    LayerMetric("frontend.flushes", "count", "lower",
                (("wall_s", ("frontend",)),), exact=True),
    LayerMetric("ftl.self_frac", "frac", "lower",
                (("wall_s", ("write-gc", "read-heavy")),)),
    LayerMetric("ftl.write_us", "us/call", "lower",
                (("wall_s", ("write-gc", "fleet-ckpt")),)),
    LayerMetric("ftl.read_us", "us/call", "lower",
                (("wall_s", ("read-heavy",)),)),
    LayerMetric("ftl.gc_frac", "frac", "lower",
                (("wall_s", ("write-gc",)),)),
    LayerMetric("ftl.gc_write_frac", "frac", "lower",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("ftl.slc_victim_util", "frac", "lower",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("ftl.mlc_spill_frac", "frac", "lower",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("core.self_frac", "frac", "lower",
                (("wall_s", ("write-gc",)),)),
    LayerMetric("core.write_us", "us/call", "lower",
                (("wall_s", ("write-gc", "fleet-ckpt")),)),
    LayerMetric("core.intra_page_frac", "frac", "higher",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("nand.self_frac", "frac", "lower",
                (("wall_s", ("write-gc", "read-heavy")),)),
    LayerMetric("nand.calls_per_req", "count", "lower",
                (("wall_s", ("write-gc", "read-heavy")),)),
    LayerMetric("nand.program_us", "us/call", "lower",
                (("wall_s", ("write-gc",)),)),
    LayerMetric("nand.read_us", "us/call", "lower",
                (("wall_s", ("read-heavy",)),)),
    LayerMetric("nand.partial_programs", "count", "lower",
                (("wall_s", ("write-gc",)),), exact=True),
    LayerMetric("nand.erases", "count", "lower",
                (("wall_s", ("write-gc",)),
                 ("peak_rss_mb", ("read-heavy",))), exact=True),
    LayerMetric("error.self_frac", "frac", "lower",
                (("wall_s", ("read-heavy",)),)),
    LayerMetric("error.decode_us", "us/call", "lower",
                (("wall_s", ("read-heavy",)),)),
    LayerMetric("faults.self_frac", "frac", "lower",
                (("wall_s", ("fleet-ckpt",)),)),
    LayerMetric("faults.retries_per_read", "count", "lower",
                (("wall_s", ("fleet-ckpt",)),), exact=True),
    LayerMetric("faults.program_failures", "count", "lower",
                (("wall_s", ("fleet-ckpt",)),), exact=True),
    LayerMetric("faults.power_losses", "count", "lower",
                (("wall_s", ("fleet-ckpt",)),), exact=True),
    LayerMetric("fleet.self_frac", "frac", "lower",
                (("wall_s", ("fleet-ckpt",)),)),
    LayerMetric("fleet.ckpt_save_ms", "ms/call", "lower",
                (("wall_s", ("fleet-ckpt",)),)),
    LayerMetric("fleet.ckpt_load_ms", "ms/call", "lower",
                (("wall_s", ("fleet-ckpt",)),)),
    LayerMetric("fleet.ckpt_mb", "MiB", "lower",
                (("wall_s", ("fleet-ckpt",)),
                 ("peak_rss_mb", ("fleet-ckpt",))), exact=True),
    LayerMetric("experiments.self_frac", "frac", "lower",
                (("wall_s", ("campaign",)),)),
    LayerMetric("experiments.cache_get_ms", "ms/call", "lower",
                (("wall_s", ("campaign",)),)),
    LayerMetric("experiments.cache_hit_frac", "frac", "higher",
                (("wall_s", ("campaign",)), ("setup_s", ("campaign",))),
                exact=True),
    LayerMetric("experiments.uncached_replays", "count", "lower",
                (("wall_s", ("campaign",)),), exact=True),
    LayerMetric("analysis.parse_s", "s", "lower",
                (("wall_s", ("lint",)),)),
    LayerMetric("analysis.index_s", "s", "lower",
                (("wall_s", ("lint",)),)),
) + tuple(
    LayerMetric(f"analysis.{family}_s", "s", "lower",
                (("wall_s", ("lint",)),))
    for family in RULE_FAMILIES
) + (
    LayerMetric("bench.trace_overhead_frac", "frac", "lower", ()),
    LayerMetric("bench.unattributed_frac", "frac", "lower", ()),
)


class TraceView:
    """Name-keyed access to one tracer's aggregates."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.rows = {row["name"]: row for row in tracer.by_function()}
        self.layers = tracer.by_layer()

    def _sum(self, names, field):
        return sum(self.rows[n][field] for n in names if n in self.rows)

    def calls(self, *names: str) -> int:
        return self._sum(names, "calls")

    def incl_s(self, *names: str) -> float:
        return self._sum(names, "incl_s")

    def mean_us(self, *names: str, own: bool = False) -> float:
        """Mean inclusive (or self) microseconds per call; 0 if uncalled."""
        calls = self.calls(*names)
        if not calls:
            return 0.0
        return self._sum(names, "self_s" if own else "incl_s") / calls * 1e6

    def layer_self_s(self, layer: str) -> float:
        return self.layers.get(layer, {}).get("self_s", 0.0)

    def layer_calls(self, layer: str) -> int:
        return self.layers.get(layer, {}).get("calls", 0)

    def tag_self_s(self, layer: str, tag: str) -> float:
        return sum(r["self_s"] for r in self.rows.values()
                   if r["layer"] == layer and r["tag"] == tag)

    def tag_names(self, layer: str, tag: str) -> list[str]:
        return [n for n, r in self.rows.items()
                if r["layer"] == layer and r["tag"] == tag]


def layer_metrics(view: TraceView, traced_wall_s: float, requests: int,
                  exact: dict, overhead_frac: float,
                  extra: dict) -> dict[str, float]:
    """Every per-layer metric of one traced run.

    ``requests`` is the number of simulated host requests the traced run
    replayed; ``exact`` holds the workload's deterministic metrics (the
    :data:`LAYER_METRICS` entries with ``exact=True``); ``extra``
    carries host measurements taken outside the tracer
    (``frontend.tax_x``).  A metric whose layer the workload does not
    exercise is 0.
    """
    wall = traced_wall_s if traced_wall_s > 0 else 1.0
    per_req = 1.0 / requests if requests else 0.0
    out: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "analysis":
            out[f"{layer}.self_frac"] = view.layer_self_s(layer) / wall
    out["sim.us_per_req"] = view.layer_self_s("sim") * 1e6 * per_req
    out["frontend.calls_per_req"] = view.layer_calls("frontend") * per_req
    out["frontend.buffer_us"] = view.mean_us(
        *view.tag_names("frontend", "buffer"), own=True)
    out["frontend.sched_us"] = view.mean_us(
        *view.tag_names("frontend", "sched"), own=True)
    out["ftl.write_us"] = view.mean_us("BaseFTL.handle_write")
    out["ftl.read_us"] = view.mean_us("BaseFTL.handle_read",
                                      "DeltaFTL.handle_read")
    out["ftl.gc_frac"] = view.tracer.tag_outer_s.get("gc", 0.0) / wall
    out["core.write_us"] = view.mean_us("IPUFTL.write")
    out["nand.calls_per_req"] = view.layer_calls("nand") * per_req
    out["nand.program_us"] = view.mean_us("Block.program_disturb")
    out["nand.read_us"] = view.mean_us("FlashArray.read_list",
                                       "FlashArray.read_span")
    out["error.decode_us"] = view.mean_us("EccModel.decode_ms_list",
                                          "EccModel.decode_ms_many")
    out["fleet.ckpt_save_ms"] = view.mean_us("CheckpointStore.save") / 1e3
    out["fleet.ckpt_load_ms"] = view.mean_us("CheckpointStore.load") / 1e3
    out["experiments.cache_get_ms"] = view.mean_us("ResultCache.get") / 1e3
    out["traces.gen_s"] = view.tracer.tag_outer_s.get("gen", 0.0)
    out["analysis.parse_s"] = view.incl_s("SourceFile.load")
    out["analysis.index_s"] = view.incl_s("ProjectIndex.build")
    for family in RULE_FAMILIES:
        out[f"analysis.{family}_s"] = view.tag_self_s("analysis", family)
    claimed = sum(view.layer_self_s(layer) for layer in LAYERS)
    out["bench.unattributed_frac"] = max(0.0, 1.0 - claimed / wall)
    out["bench.trace_overhead_frac"] = overhead_frac
    out["frontend.tax_x"] = extra.get("frontend.tax_x", 0.0)
    for metric in LAYER_METRICS:
        if metric.exact:
            out[metric.name] = float(exact.get(metric.name, 0.0))
    return {m.name: float(out[m.name]) for m in LAYER_METRICS}
