"""Experiment harnesses at smoke scale (shared memoised sweep)."""

import dataclasses
import hashlib
import json
import re

import pytest

from repro import SCHEMES
from repro.cli import main
from repro.config import TranslationConfig
from repro.errors import ExperimentError
from repro.experiments import EXPERIMENTS, get, run
from repro.experiments.artifact import Artifact
from repro.experiments.runner import (
    RunContext,
    default_context,
    pilot_footprints,
)
from repro.frontend.simulate import FrontendSimulator
from repro.sim import SimulationResult, Simulator
from repro.traces.synth import SyntheticTraceGenerator

SCALE = "smoke"
SEED = 3


@pytest.fixture(scope="module", autouse=True)
def warm_context():
    """One shared sweep for the whole module."""
    ctx = default_context(SCALE, SEED)
    ctx.run_matrix(traces=("ts0",))
    return ctx


class TestRegistry:
    def test_all_paper_artifacts_present(self):
        expected = {"table1", "table2", "table3", "fig2", "fig5", "fig6",
                    "fig7", "fig8", "fig9", "fig10", "fig10b", "fig11",
                    "fig12", "fig13", "fig14"}
        assert expected <= set(EXPERIMENTS)

    def test_get_unknown(self):
        with pytest.raises(ExperimentError):
            get("fig99")

    def test_run_unknown(self):
        with pytest.raises(ExperimentError):
            run("fig99")

    def test_builder_kwargs_rejected_when_unsupported(self):
        with pytest.raises(ExperimentError, match="does not accept"):
            run("fig7", scale=SCALE, seed=SEED, qds=(2,))


class TestQdStudy:
    def test_ext_qd_renders_closed_and_frontend_rows(self):
        art = run("ext-qd", scale=SCALE, seed=SEED, qds=(2,))
        assert {row["mode"] for row in art.rows} == {"closed", "frontend"}
        assert all(row["QD"] == 2 for row in art.rows)
        closed = [r for r in art.rows if r["mode"] == "closed"]
        fe = [r for r in art.rows if r["mode"] == "frontend"]
        assert len(closed) == len(fe) == 3
        # Closed rows carry the throughput view, frontend rows the
        # buffer counters and the latency tail.
        assert all(r["KIOPS"] != "-" and r["p99 ms"] == "-" for r in closed)
        assert all(r["KIOPS"] == "-" and r["p99 ms"] != "-" for r in fe)
        assert any(int(r["hits"]) > 0 for r in fe)
        assert any(int(r["flushes"]) > 0 for r in fe)


class TestRunContext:
    def test_unknown_scale(self):
        with pytest.raises(ExperimentError):
            RunContext(scale="galactic").spec

    def test_unknown_scheme(self):
        with pytest.raises(ExperimentError):
            default_context(SCALE, SEED).run("ts0", "nope")

    def test_results_memoised(self):
        ctx = default_context(SCALE, SEED)
        a = ctx.run("ts0", "ipu")
        b = ctx.run("ts0", "ipu")
        assert a is b

    def test_trace_config_sized_to_trace(self):
        ctx = default_context(SCALE, SEED)
        cfg = ctx.trace_config("ts0")
        assert cfg.slc_blocks >= 8
        assert cfg.mlc_blocks > cfg.slc_blocks

    def test_paper_scale_uses_table2(self):
        ctx = RunContext(scale="paper", seed=1)
        cfg = ctx.trace_config("ts0")
        assert cfg.geometry.total_blocks == 65536
        assert cfg.cache.slc_ratio == 0.05


class TestCheapArtifacts:
    def test_table2(self):
        art = run("table2", scale=SCALE, seed=SEED)
        assert isinstance(art, Artifact)
        assert any(r["Parameter"] == "Page size" for r in art.rows)
        assert "16KB" in str(art.render())

    def test_fig2(self):
        art = run("fig2", scale=SCALE, seed=SEED)
        assert len(art.rows) >= 6
        pe4000 = next(r for r in art.rows if r["P/E cycles"] == 4000)
        assert pe4000["conventional"] == "2.800e-04"
        assert pe4000["partial"] == "3.800e-04"

    def test_fig11(self):
        art = run("fig11", scale=SCALE, seed=SEED)
        paper_rows = [r for r in art.rows if r["Config"] == "paper"]
        norms = {r["Scheme"]: float(r["normalized"]) for r in paper_rows}
        assert norms["baseline"] == 1.0
        assert 1.15 < norms["mga"] < 1.30
        assert 1.0 < norms["ipu"] < 1.02


class TestTableArtifacts:
    def test_table1_measured_close_to_paper(self):
        art = run("table1", scale=SCALE, seed=SEED)
        assert len(art.rows) == 6
        for row in art.rows:
            paper = float(row["<=4K paper"].rstrip("%"))
            ours = float(row["<=4K ours"].rstrip("%"))
            assert abs(paper - ours) < 8.0

    def test_table3_write_ratio_exact(self):
        art = run("table3", scale=SCALE, seed=SEED)
        for row in art.rows:
            paper = float(row["WriteR paper"].rstrip("%"))
            ours = float(row["WriteR ours"].rstrip("%"))
            assert abs(paper - ours) < 1.0


class TestSimArtifacts:
    """Single-trace checks against the shared sweep (every full-matrix
    artifact build runs in the cold ``run-all`` of ``TestWarmRunAll``)."""

    def test_fig5_rows_render(self, warm_context):
        base = warm_context.run("ts0", "baseline")
        ipu = warm_context.run("ts0", "ipu")
        assert ipu.avg_latency_ms < base.avg_latency_ms

    def test_fig9_values(self, warm_context):
        mga = warm_context.run("ts0", "mga")
        assert mga.slc_page_utilization > 0.95

    def test_fig7_artifact_runs_on_full_matrix(self):
        # fig7 only needs the IPU column; cheap enough at smoke scale.
        art = run("fig7", scale=SCALE, seed=SEED)
        assert len(art.rows) == 6
        assert "Work" in art.rows[0]

    def test_artifact_render_contains_notes(self):
        art = run("fig7", scale=SCALE, seed=SEED)
        text = art.render()
        assert "[fig7]" in text
        assert "paper 62.7%" in text

    def test_ext_seed_shapes_hold(self):
        art = run("ext-seeds", scale=SCALE, seed=SEED)
        assert len(art.rows) == 3
        for row in art.rows:
            assert row["IPU vs Base lat"].startswith("-")
            mga = float(row["MGA err incr"].strip("+%"))
            ipu = float(row["IPU err incr"].strip("+%"))
            assert ipu < mga

    def test_summary_scoreboard(self):
        art = run("summary", scale=SCALE, seed=SEED)
        verdicts = art.column("Shape")
        assert verdicts.count("DEVIATES") <= 1
        mech = next(r for r in art.rows if r["Artefact"] == "mechanism")
        assert mech["Shape"] == "ok"

    def test_artifact_column_helper(self):
        art = run("table1", scale=SCALE, seed=SEED)
        assert art.column("Trace") == ["ts0", "wdev0", "lun1", "usr0",
                                       "lun2", "ads"]


class TestCmtCounters:
    """The cached-mapping-table counters travel in the result."""

    @pytest.fixture(scope="class")
    def ctx(self):
        return RunContext(scale=SCALE, seed=SEED, length_factor=0.25)

    @pytest.fixture(scope="class")
    def cmt_config(self, ctx):
        return dataclasses.replace(
            ctx.trace_config("ts0"),
            translation=TranslationConfig(enabled=True, entries_per_page=16,
                                          cache_pages=2))

    def test_counters_equal_a_direct_replay(self, ctx, cmt_config):
        ftl = SCHEMES["mga"](cmt_config)
        Simulator(ftl).run(ctx.trace("ts0"))
        stats = ftl.cmt.stats
        result = ctx.run("ts0", "mga", config=cmt_config)
        assert stats.misses > 0 and stats.writebacks > 0
        assert (result.cmt_lookups, result.cmt_hits, result.cmt_misses,
                result.cmt_writebacks) == (stats.lookups, stats.hits,
                                           stats.misses, stats.writebacks)
        assert result.cmt_hit_ratio == stats.hit_ratio

    def test_counters_round_trip(self, ctx, cmt_config):
        result = ctx.run("ts0", "mga", config=cmt_config)
        back = SimulationResult.from_dict(json.loads(json.dumps(result.to_dict())))
        assert back.deterministic_dict() == result.deterministic_dict()
        assert back.cmt_misses == result.cmt_misses > 0

    def test_counters_zero_without_cmt(self, ctx):
        result = ctx.run("ts0", "mga")
        assert (result.cmt_lookups, result.cmt_hits, result.cmt_misses,
                result.cmt_writebacks) == (0, 0, 0, 0)
        assert result.cmt_hit_ratio == 1.0


_CELLS = re.compile(r"^\[cells\] (\d+) simulated .*cache: (\d+) hits / "
                    r"(\d+) misses", re.MULTILINE)


def _without_cells_line(out: str) -> str:
    return "\n".join(line for line in out.splitlines()
                     if not line.startswith("[cells]"))


class TestWarmRunAll:
    def test_cold_run_all_renders_every_artifact(self, cold_run_all):
        # An artifact renders as its title line, a header, a rule and
        # one line per row; one with no rows prints "(no rows)" instead.
        lines = cold_run_all[1].splitlines()
        for eid in EXPERIMENTS:
            title = next(i for i, line in enumerate(lines)
                         if line.startswith(f"[{eid}] "))
            header, rule, first_row = lines[title + 1:title + 4]
            assert header != "(no rows)", eid
            assert rule.startswith("-") and set(rule) <= {"-", " "}, eid
            assert first_row.strip(), eid

    def test_warm_run_all_replays_nothing(self, cold_run_all, fresh_execution,
                                          monkeypatch, capsys):
        args, cold = cold_run_all
        simulated, hits, misses = map(int, _CELLS.search(cold).groups())
        assert simulated == misses > 0 and hits == 0

        # Drop the in-process memos: the warm run must be served by the
        # on-disk cache alone, with every replay entry point disabled.
        fresh_execution()
        pilot_footprints.cache_clear()

        def no_replay(*args, **kwargs):
            raise AssertionError("a warm run-all replayed a cell")

        def no_trace(*args, **kwargs):
            raise AssertionError("a warm run-all generated a trace")

        for cls, name in ((Simulator, "run"), (Simulator, "run_closed"),
                          (FrontendSimulator, "run")):
            monkeypatch.setattr(cls, name, no_replay)
        monkeypatch.setattr(SyntheticTraceGenerator, "generate", no_trace)
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert _CELLS.search(warm).groups() == ("0", str(misses), "0")
        assert _without_cells_line(warm) == _without_cells_line(cold)
        # The sizing pilots' footprints and the Table 1/3 statistics are
        # trace facts the cache holds, so no pilot runs either.
        assert pilot_footprints.cache_info().misses == 0
        facts = default_context("smoke", 1).cache.fact_stats
        assert facts.hits > 0 and (facts.misses, facts.stores) == (0, 0)

    def test_every_key_is_the_documented_payload_digest(
            self, cold_run_all, fresh_execution, monkeypatch, capsys):
        """``cell_key`` memoises the config's ``to_dict()``; each key a
        warm run-all looks up must still be the sha256 of the payload its
        docstring lists, built here from fresh ``to_dict()`` calls."""
        from repro.experiments import runner
        from repro.experiments.cache import CACHE_SCHEMA_VERSION

        def documented_key(config, profile, n_requests, interarrival_ms,
                           scheme, scale, seed, length_factor=1.0, pe=None,
                           faults=None, frontend=None, queue_depth=None):
            payload = {
                "schema": CACHE_SCHEMA_VERSION, "config": config.to_dict(),
                "profile": profile.to_dict(), "n_requests": int(n_requests),
                "interarrival_ms": interarrival_ms, "scheme": scheme,
                "scale": scale, "seed": int(seed),
                "length_factor": float(length_factor), "pe": pe,
                "faults": faults, "frontend": frontend,
                "queue_depth": queue_depth,
            }
            blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
            return hashlib.sha256(blob.encode("utf-8")).hexdigest()

        looked_up = {}
        memoised_key = runner._cache_cell_key

        def recording_key(*args, **kwargs):
            key = memoised_key(*args, **kwargs)
            looked_up[key] = documented_key(*args, **kwargs)
            return key

        monkeypatch.setattr(runner, "_cache_cell_key", recording_key)
        args, cold = cold_run_all
        assert main(args) == 0
        capsys.readouterr()
        assert len(looked_up) == int(_CELLS.search(cold).group(1))
        assert all(key == doc for key, doc in looked_up.items())
