"""CLI surface."""

import argparse
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import _parser, build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_version(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--version"])
        assert capsys.readouterr().out.strip()

    def test_unknown_experiment_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "fig99"])

    def test_per_command_parser_matches_complete_parser(self):
        """``main`` adds one command's arguments; each must read exactly
        as in the complete ``build_parser()``."""
        def subparsers(parser):
            (action,) = [a for a in parser._actions
                         if isinstance(a, argparse._SubParsersAction)]
            return action.choices

        complete = build_parser()
        for name, sub in subparsers(complete).items():
            lazy = _parser(name)
            assert lazy.format_help() == complete.format_help()
            assert subparsers(lazy)[name].format_help() == sub.format_help()
        bare = _parser("")
        assert bare.format_help() == complete.format_help()


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "fig5" in out
        assert "table1" in out

    def test_traces(self, capsys):
        assert main(["traces"]) == 0
        out = capsys.readouterr().out
        assert "ts0" in out
        assert "82.4%" in out

    def test_run_table2(self, capsys):
        assert main(["run", "table2", "--scale", "smoke", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "Erase time" in out

    def test_run_fig2(self, capsys):
        assert main(["run", "fig2", "--scale", "smoke", "--seed", "3"]) == 0
        assert "2.800e-04" in capsys.readouterr().out

    def test_simulate(self, capsys):
        assert main(["simulate", "--trace", "ts0", "--scheme", "ipu",
                     "--scale", "smoke", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "avg_latency_ms" in out

    def test_simulate_closed_loop(self, capsys):
        assert main(["simulate", "--trace", "ts0", "--scheme", "mga",
                     "--scale", "smoke", "--seed", "3", "--qd", "8"]) == 0
        out = capsys.readouterr().out
        assert "KIOPS" in out
        assert "closed loop" in out

    def test_simulate_closed_loop_is_cached(self, tmp_path, fresh_execution,
                                            monkeypatch, capsys):
        from repro.sim import Simulator

        args = ["simulate", "--trace", "ts0", "--scheme", "ipu", "--scale",
                "smoke", "--seed", "3", "--qd", "4", "--jobs", "1",
                "--cache-dir", str(tmp_path)]
        assert main(args) == 0
        cold = capsys.readouterr().out
        assert "[cells] 1 simulated" in cold and "0 hits / 1 misses" in cold
        fresh_execution()

        def no_replay(*args, **kwargs):
            raise AssertionError("a warm simulate --qd replayed its cell")

        monkeypatch.setattr(Simulator, "run_closed", no_replay)
        assert main(args) == 0
        warm = capsys.readouterr().out
        assert "[cells] 0 simulated" in warm and "1 hits / 0 misses" in warm
        assert warm.split("[cells]")[0] == cold.split("[cells]")[0]

    def test_fleet_stripe_kib_is_scaled_once(self, monkeypatch):
        import repro.fleet.campaign as campaign

        built = []

        def capture(cfg, **kwargs):
            built.append(cfg)
            return None  # a paused campaign: nothing is replayed

        monkeypatch.setattr(campaign, "run_campaign", capture)
        assert main(["fleet", "--stripe-kib", "8", "--no-cache"]) == 0
        (cfg,) = built
        assert cfg.stripe_bytes == 8192

    def test_simulate_delta_scheme(self, capsys):
        assert main(["simulate", "--trace", "ads", "--scheme", "delta",
                     "--scale", "smoke", "--seed", "3"]) == 0
        assert "delta" in capsys.readouterr().out


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("argv, message", [
    (["fleet", "--tenants", "ts0:abc"], "argument --tenants: 'abc' is not a number"),
    (["faults", "--rates", "0,x"], "argument --rates: 'x' is not a number"),
    (["fleet", "--tenants", "nosuch"],
     "repro-ssd: error: unknown tenant profile 'nosuch'"),
    (["simulate", "--qd", "-1"],
     "repro-ssd: error: queue_depth must be >= 1, got -1"),
], ids=["tenant-weight", "fault-rate", "tenant-profile", "negative-qd"])
def test_bad_argument_is_an_error_not_a_traceback(argv, message, tmp_path):
    env = {**os.environ, "PYTHONPATH": str(SRC),
           "REPRO_CACHE_DIR": str(tmp_path / "cache")}
    proc = subprocess.run([sys.executable, "-m", "repro", *argv],
                          cwd=tmp_path, env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2, proc.stderr
    assert message in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_run_qd_items_must_be_integers(capsys):
    with pytest.raises(SystemExit) as info:
        main(["run", "ext-qd", "--qd", "1,y"])
    assert info.value.code == 2
    assert "argument --qd: 'y' is not an integer" in capsys.readouterr().err


def test_comma_lists_parse_to_numbers():
    args = build_parser().parse_args(["faults", "--rates", "0,0.5"])
    assert args.rates == (0.0, 0.5)
    assert build_parser().parse_args(["faults"]).rates == (0.0, 0.5, 1.0)
    args = build_parser().parse_args(["run", "ext-qd", "--qd", "1,8"])
    assert args.qd == (1, 8)
    args = build_parser().parse_args(["fleet", "--tenants", "ts0, usr0:0.5,"])
    assert [(t.profile, t.weight) for t in args.tenants] == [
        ("ts0", 1.0), ("usr0", 0.5)]
