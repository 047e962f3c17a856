"""CLI surface."""

import pytest

from repro.cli import build_parser, main


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

    def test_simulate_delta_scheme(self, capsys):
        assert main(["simulate", "--trace", "ads", "--scheme", "delta",
                     "--scale", "smoke", "--seed", "3"]) == 0
        assert "delta" in capsys.readouterr().out


class TestBench:
    """The hot-path throughput harness (one tiny cell keeps it fast)."""

    CELL = ["bench", "--traces", "lun2", "--schemes", "baseline",
            "--repeats", "1", "--scale", "smoke"]

    def test_bench_reports_cells(self, capsys):
        assert main(self.CELL) == 0
        out = capsys.readouterr().out
        assert "lun2" in out
        assert "ops/sec" in out
        assert "(aggregate)" in out

    def test_bench_profile(self, capsys):
        assert main(self.CELL + ["--profile", "5"]) == 0
        out = capsys.readouterr().out
        assert "cProfile: lun2/baseline" in out
        assert "tottime" in out

    def test_bench_update_then_check(self, tmp_path, capsys):
        baseline = tmp_path / "bench.json"
        assert main(self.CELL + ["--update", "--baseline", str(baseline)]) == 0
        assert baseline.is_file()
        assert main(self.CELL + ["--check", "--baseline", str(baseline)]) == 0
        assert "within 30%" in capsys.readouterr().out

    def test_bench_check_detects_regression(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "bench.json"
        assert main(self.CELL + ["--update", "--baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        for cell in payload["cells"]:  # pretend the past was 100x faster
            cell["ops_per_sec"] *= 100.0
        baseline.write_text(json.dumps(payload))
        assert main(self.CELL + ["--check", "--baseline", str(baseline)]) == 1
        assert "regressed" in capsys.readouterr().out

    def test_bench_check_missing_baseline(self, tmp_path, capsys):
        missing = tmp_path / "nope.json"
        assert main(self.CELL + ["--check", "--baseline", str(missing)]) == 1
        assert "not found" in capsys.readouterr().out

    def test_bench_check_detects_aggregate_regression(self, tmp_path, capsys):
        import json

        baseline = tmp_path / "bench.json"
        assert main(self.CELL + ["--update", "--baseline", str(baseline)]) == 0
        payload = json.loads(baseline.read_text())
        # Cells stay honest; only the recorded aggregate was faster — a
        # broad small slowdown shows up exactly like this.
        payload["aggregate"]["ops_per_sec"] *= 100.0
        baseline.write_text(json.dumps(payload))
        assert main(self.CELL + ["--check", "--baseline", str(baseline)]) == 1
        out = capsys.readouterr().out
        assert "regressed" in out and "aggregate" in out

    def test_bench_payload_environment_and_frontend_cells(self):
        import platform

        from repro.bench import run_bench

        payload = run_bench(scale="smoke", seed=1, traces=("lun2",),
                            schemes=("ipu",), repeats=1)
        env = payload["environment"]
        assert env["python"] == platform.python_version()
        assert set(env) >= {"python", "numpy", "platform", "machine"}
        schemes = [c["scheme"] for c in payload["cells"]]
        assert schemes == ["ipu", "ipu+frontend"]
        # The aggregate covers direct cells only, so its trajectory is
        # comparable with pre-frontend baselines.
        direct = next(c for c in payload["cells"] if c["scheme"] == "ipu")
        assert payload["aggregate"]["n_requests"] == direct["n_requests"]
