"""``lint``, ``--help``, ``--version`` and ``cache`` run without numpy,
and a warm ``run-all`` without the replay stack.

Each numpy-free case runs ``python -m repro`` in a fresh interpreter
whose ``sys.meta_path`` refuses to import numpy, and checks three things:

* the exit code and stdout equal the same command run in-process here,
  where numpy imports normally;
* no numpy, simulator, FTL, nand or experiments module was loaded;
* every module the command loaded is from the standard library,
  ``repro``, ``repro.cli`` or ``repro.analysis``.

``cache`` passes the first check, and beyond the standard library it
loads exactly :data:`CACHE_MODULES`.

A warm smoke ``run-all`` reads every cell and every trace fact from the
result cache, so a fresh interpreter running it must load none of
:data:`REPLAY_MODULES`.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Child program: run ``python -m repro ARGS``, then write the
#: ``sys.modules`` names from before and after the run to the file named
#: by the first argument.
RECORD_MODULES = textwrap.dedent("""
    import json
    import runpy
    import sys

    modules_path = sys.argv.pop(1)
    sys.argv[0] = "repro"
    before = sorted(sys.modules)
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        with open(modules_path, "w", encoding="utf-8") as fh:
            json.dump({"before": before, "after": sorted(sys.modules)}, fh)
""")

#: The same, in an interpreter that cannot import numpy.
CHILD = textwrap.dedent("""
    import sys

    class NoNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ModuleNotFoundError(f"No module named {name!r}",
                                          name=name)
            return None

    sys.meta_path.insert(0, NoNumpy())
""") + RECORD_MODULES

FORBIDDEN = ("numpy", "repro.sim", "repro.ftl", "repro.nand",
             "repro.experiments")

#: Every module ``cache`` loads beyond the standard library.
CACHE_MODULES = ["repro", "repro.cli", "repro.errors", "repro.experiments",
                 "repro.experiments.cache", "repro.frame", "repro.metrics",
                 "repro.metrics.report"]

#: The replay stack: FTLs, the nand kernel, faults, the front-end, the
#: fleet and the timeline recorder (and their submodules), the process
#: pool a cell fan-out starts, and the trace generator and
#: characterisation, whose results a warm run reads as trace facts.
REPLAY_MODULES = ("repro.schemes", "repro.core", "repro.ftl.base",
                  "repro.ftl.gc", "repro.nand.flash", "repro.nand.block",
                  "repro.faults.plan", "repro.frontend.cache",
                  "repro.frontend.scheduler", "repro.frontend.simulate",
                  "repro.fleet", "repro.metrics.timeline",
                  "concurrent.futures.process", "repro.traces.synth",
                  "repro.traces.stats")

#: A rule fixture with one D003 finding (unordered set iteration).
FIXTURE = """
    def drain(ids):
        for i in set(ids):
            yield i
    """


def _fixture_root(tmp_path: Path) -> Path:
    root = tmp_path / "fixture"
    path = root / "ftl" / "drain.py"
    path.parent.mkdir(parents=True)
    path.write_text(textwrap.dedent(FIXTURE), encoding="utf-8")
    return root


def _in_process(argv: "list[str]", capsys) -> "tuple[int, str]":
    try:
        code = main(argv)
    except SystemExit as exc:  # --help / --version exit through argparse
        code = exc.code
    return code, capsys.readouterr().out


def _child(program: str, argv: "list[str]", tmp_path: Path,
           ) -> "tuple[subprocess.CompletedProcess, dict]":
    """Run ``program`` on ``argv`` in a fresh interpreter; returns the
    process and its ``{"before": [...], "after": [...]}`` module names."""
    modules_path = tmp_path / "modules.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-c", program, str(modules_path), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    return proc, json.loads(modules_path.read_text(encoding="utf-8"))


def _loaded(modules: dict, names: "tuple[str, ...]") -> "list[str]":
    """The loaded modules that are one of ``names`` or inside one."""
    return [m for m in modules["after"]
            if any(m == f or m.startswith(f + ".") for f in names)]


def _added_outside_stdlib(modules: dict) -> "list[str]":
    added = set(modules["after"]) - set(modules["before"])
    return sorted(m for m in added
                  if m.split(".")[0] not in sys.stdlib_module_names)


@pytest.mark.parametrize("argv, code", [
    (["--version"], 0),
    (["--help"], 0),
    (["lint", "--list-rules"], 0),
    (["lint", "--root", "{fixture}"], 1),
], ids=["version", "help", "lint-list-rules", "lint-root"])
def test_starts_without_numpy(argv, code, tmp_path, monkeypatch, capsys):
    fixture = _fixture_root(tmp_path)
    argv = [arg.format(fixture=fixture) for arg in argv]
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps help to this
    expected_code, expected_out = _in_process(argv, capsys)
    assert expected_code == code

    proc, modules = _child(CHILD, argv, tmp_path)

    assert "No module named 'numpy'" not in proc.stderr, proc.stderr
    assert (proc.returncode, proc.stdout) == (expected_code, expected_out)
    assert _loaded(modules, FORBIDDEN) == []
    outside = [m for m in _added_outside_stdlib(modules)
               if m not in ("repro", "repro.cli")
               and not m.startswith("repro.analysis")]
    assert outside == []


@pytest.mark.parametrize("clear", [False, True], ids=["cache", "cache-clear"])
def test_cache_starts_without_numpy(clear, tmp_path, capsys):
    from repro.experiments.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    argv = ["cache", *(["--clear"] if clear else []),
            "--cache-dir", str(cache.root)]
    # One entry before each run, so both runs see (or clear) the same.
    cache.put("ab" * 32, {"n": 1})
    expected = _in_process(argv, capsys)
    assert expected[0] == 0 and "1" in expected[1].split()
    cache.put("ab" * 32, {"n": 1})

    proc, modules = _child(CHILD, argv, tmp_path)

    assert "No module named 'numpy'" not in proc.stderr, proc.stderr
    assert (proc.returncode, proc.stdout) == expected
    assert _loaded(modules, ("numpy",)) == []
    assert _added_outside_stdlib(modules) == CACHE_MODULES


def test_warm_run_all_loads_no_replay_code(cold_run_all, tmp_path):
    argv, _ = cold_run_all

    proc, modules = _child(RECORD_MODULES, argv, tmp_path)

    assert proc.returncode == 0, proc.stderr
    assert re.search(r"^\[cells\] 0 simulated .* 0 misses", proc.stdout,
                     re.MULTILINE), proc.stdout
    assert _loaded(modules, REPLAY_MODULES) == []
