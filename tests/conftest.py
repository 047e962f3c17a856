"""Shared fixtures: small configurations, FTLs, and traces."""

from __future__ import annotations

import contextlib
import io

import numpy as np
import pytest

from repro import SCHEMES, BaselineFTL, IPUFTL, MGAFTL
from repro.config import (
    CacheConfig,
    GeometryConfig,
    SSDConfig,
    scaled_config,
)
from repro.traces import generate, profile


def tiny_config(seed: int = 0, **cache_kwargs) -> SSDConfig:
    """A deliberately small device: 2 channels x 1 chip x 1 plane,
    32 blocks, 25% SLC (8 blocks — enough for the three IPU level actives
    plus the GC reserve) — fast enough for exhaustive unit testing while
    still exercising GC."""
    geometry = GeometryConfig(
        channels=2, chips_per_channel=1, planes_per_chip=1, total_blocks=32)
    cache = CacheConfig(slc_ratio=0.25, **cache_kwargs)
    return SSDConfig(geometry=geometry, cache=cache, seed=seed).validate()


def programmed_matrix(block) -> np.ndarray:
    """A block's programmed slots as a ``(pages, spp)`` bool matrix, read
    off ``prog_mask`` (the kernel's only record of them)."""
    return np.array([[bool(m >> s & 1) for s in range(block.spp)]
                     for m in block.prog_mask], dtype=bool)


@pytest.fixture
def config():
    return tiny_config()


@pytest.fixture
def smoke_config():
    return scaled_config("smoke", seed=0)


@pytest.fixture(params=["baseline", "mga", "ipu"])
def scheme_name(request):
    return request.param


@pytest.fixture
def ftl(scheme_name, config):
    return SCHEMES[scheme_name](config)


@pytest.fixture
def baseline(config):
    return BaselineFTL(config)


@pytest.fixture
def mga(config):
    return MGAFTL(config)


@pytest.fixture
def ipu(config):
    return IPUFTL(config)


@contextlib.contextmanager
def _isolated_execution():
    """An empty memoised-context pool; the pool and the process-wide
    execution defaults are restored on exit.  Yields the pool's
    ``clear``."""
    from repro.experiments import runner

    saved = dict(runner._DEFAULT_CONTEXTS)
    defaults = dict(runner._EXEC_DEFAULTS)
    runner._DEFAULT_CONTEXTS.clear()
    try:
        yield runner._DEFAULT_CONTEXTS.clear
    finally:
        runner._DEFAULT_CONTEXTS.clear()
        runner._DEFAULT_CONTEXTS.update(saved)
        runner.configure_execution(**defaults)


@pytest.fixture
def fresh_execution():
    """Empty the memoised-context pool for one test, so an in-process
    CLI run starts cold; calling the fixture value empties it again (a
    second run must then read the result cache, not the memo).  The
    pool and the process-wide execution defaults are restored after."""
    with _isolated_execution() as clear:
        yield clear


@pytest.fixture(scope="session")
def cold_run_all(tmp_path_factory):
    """``(argv, stdout)`` of one cold in-process ``run-all --scale smoke
    --jobs 1`` into a fresh cache directory.

    The fill replays every cell (about ten seconds), so the tests that
    need a filled smoke cache share this one; none of them writes to it.
    """
    from repro.cli import main

    argv = ["run-all", "--scale", "smoke", "--jobs", "1", "--cache-dir",
            str(tmp_path_factory.mktemp("runall-cache"))]
    out = io.StringIO()
    with _isolated_execution(), contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return argv, out.getvalue()


@pytest.fixture
def short_trace():
    """~2000 requests of the ts0 profile, enough to trigger SLC GC on the
    tiny config."""
    return generate(profile("ts0"), n_requests=2000, seed=11,
                    mean_interarrival_ms=0.6)
