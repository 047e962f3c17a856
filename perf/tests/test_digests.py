"""Tracing changes no output: traced digests equal untraced ones, and a
checkpoint written while traced resumes byte-identically untraced."""

import subprocess
import sys

import pytest

from layers import build_targets
from tracer import Tracer, tracing
from workloads import (ROOT, FleetCkpt, Frontend, ReadHeavy, WriteGc,
                       child_env)


def smoke(cls, **attrs):
    """A smoke-scale copy of a replay workload."""
    workload = cls()
    for name, value in attrs.items():
        setattr(workload, name, value)
    return workload


SMOKE_WORKLOADS = [
    smoke(WriteGc, scale="smoke", length_factor=0.3),
    smoke(ReadHeavy, scale="smoke", length_factor=0.3),
    smoke(Frontend, scale="smoke", length_factor=0.3),
    smoke(FleetCkpt, epoch_requests=512),
]


@pytest.mark.parametrize("workload", SMOKE_WORKLOADS, ids=lambda w: w.name)
def test_traced_digest_equals_untraced(workload, tmp_path):
    ops = workload.rep(workload.build_inputs(7, tmp_path))
    assert not [op.error for op in ops if op.error]
    tracer = Tracer()
    with tracing(tracer, build_targets()):
        traced, _, requests = workload.traced_rep(7, tmp_path)
    assert not [op.error for op in traced if op.error]
    assert [workload.digest(op) for op in traced] == \
        [workload.digest(op) for op in ops]
    assert requests > 0
    assert sum(tracer.calls) > 0


def test_traced_checkpoint_resumes_in_untraced_process(tmp_path):
    from repro.fleet import run_campaign
    from repro.fleet.campaign import campaign_json

    cfg = smoke(FleetCkpt, epoch_requests=512).config(5)
    ckpt = tmp_path / "ckpt"
    with tracing(Tracer(), build_targets()):
        assert run_campaign(cfg, jobs=1, checkpoint_dir=str(ckpt),
                            checkpoint_every=1, stop_after_epoch=2) is None
    assert list(ckpt.rglob("*.ckpt"))
    resume = (
        "import sys\n"
        "from repro.fleet import FleetConfig, run_campaign\n"
        "from repro.fleet.campaign import campaign_json\n"
        "cfg = FleetConfig.from_json(sys.argv[1])\n"
        "sys.stdout.write(campaign_json(run_campaign(\n"
        "    cfg, jobs=1, checkpoint_dir=sys.argv[2], checkpoint_every=1)))\n")
    proc = subprocess.run(
        [sys.executable, "-c", resume, cfg.to_json(), str(ckpt)],
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        check=True, timeout=120)
    assert proc.stdout == campaign_json(run_campaign(cfg, jobs=1))
