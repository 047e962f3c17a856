"""``lint``, ``--help`` and ``--version`` run without numpy.

Each case runs ``python -m repro`` in a fresh interpreter whose
``sys.meta_path`` refuses to import numpy, and checks three things:

* the exit code and stdout equal the same command run in-process here,
  where numpy imports normally;
* no numpy, simulator, FTL, nand or experiments module was loaded;
* every module the command loaded is from the standard library,
  ``repro``, ``repro.cli`` or ``repro.analysis``.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

#: Child program: block numpy, run ``python -m repro ARGS``, then write
#: the ``sys.modules`` names from before and after the run to the file
#: named by the first argument.
CHILD = textwrap.dedent("""
    import json
    import runpy
    import sys

    class NoNumpy:
        def find_spec(self, name, path=None, target=None):
            if name == "numpy" or name.startswith("numpy."):
                raise ModuleNotFoundError(f"No module named {name!r}",
                                          name=name)
            return None

    sys.meta_path.insert(0, NoNumpy())
    modules_path = sys.argv.pop(1)
    sys.argv[0] = "repro"
    before = sorted(sys.modules)
    try:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
    finally:
        with open(modules_path, "w", encoding="utf-8") as fh:
            json.dump({"before": before, "after": sorted(sys.modules)}, fh)
""")

FORBIDDEN = ("numpy", "repro.sim", "repro.ftl", "repro.nand",
             "repro.experiments")

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

    modules_path = tmp_path / "modules.json"
    env = {**os.environ, "PYTHONPATH": str(SRC), "COLUMNS": "80"}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(modules_path), *argv],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)

    assert "No module named 'numpy'" not in proc.stderr, proc.stderr
    assert (proc.returncode, proc.stdout) == (expected_code, expected_out)
    modules = json.loads(modules_path.read_text(encoding="utf-8"))
    loaded = [m for m in modules["after"]
              if any(m == f or m.startswith(f + ".") for f in FORBIDDEN)]
    assert loaded == []
    added = set(modules["after"]) - set(modules["before"])
    outside = sorted(
        m for m in added
        if m.split(".")[0] not in sys.stdlib_module_names
        and m not in ("repro", "repro.cli")
        and not m.startswith("repro.analysis"))
    assert outside == []

