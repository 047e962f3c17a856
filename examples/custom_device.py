#!/usr/bin/env python3
"""Define, persist and simulate a custom device configuration.

Shows the adoption workflow: tweak Table 2 knobs (here: a TLC-class
device with slower programs, a bigger SLC cache and the translation
extension), save the configuration as JSON, reload it, and compare IPU
against MGA on it.

Run:  python examples/custom_device.py
"""

import tempfile
from pathlib import Path

from repro import MGAFTL, IPUFTL, Simulator
from repro.config import (
    CacheConfig,
    GeometryConfig,
    SSDConfig,
    TimingConfig,
    TranslationConfig,
)
from repro.configio import load_config, save_config
from repro.metrics.report import format_table
from repro.traces import generate, profile


def build_config() -> SSDConfig:
    return SSDConfig(
        geometry=GeometryConfig(
            channels=4, chips_per_channel=2, planes_per_chip=1,
            total_blocks=96),
        timing=TimingConfig(
            # TLC-class media: slower programs and reads than Table 2's MLC.
            mlc_read_ms=0.09, mlc_write_ms=2.0),
        cache=CacheConfig(slc_ratio=0.25),
        translation=TranslationConfig(
            enabled=True, entries_per_page=512, cache_pages=8),
        seed=42,
    ).validate()


def main() -> None:
    path = Path(tempfile.gettempdir()) / "repro_custom_device.json"
    save_config(build_config(), path)
    print(f"Configuration written to {path}")
    config = load_config(path)
    print(f"Reloaded: {config.geometry.total_blocks} blocks, "
          f"{config.slc_blocks} SLC-mode, "
          f"translation cache of {config.translation.cache_pages} pages\n")

    trace = generate(profile("wdev0"), n_requests=8_000, seed=42,
                     mean_interarrival_ms=1.0)
    rows = []
    for cls in (MGAFTL, IPUFTL):
        ftl = cls(config)
        result = Simulator(ftl).run(trace)
        rows.append({
            "scheme": ftl.scheme_name,
            "latency ms": f"{result.avg_latency_ms:.4f}",
            "error rate": f"{result.read_error_rate:.4e}",
            "CMT hit ratio": f"{ftl.cmt.stats.hit_ratio:.1%}",
            "SLC erases": result.erases_slc,
        })
    print(format_table(rows, title="MGA vs IPU on the custom TLC device"))
    print()
    print("IPU's page-level map keeps the translation cache fully hot and")
    print("its error rate near Baseline; shrink `cache_pages` to watch")
    print("MGA's second-level table start paying for foreground map reads.")


if __name__ == "__main__":
    main()
