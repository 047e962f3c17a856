"""Configuration files.

Writes and reads :class:`~repro.config.SSDConfig` as JSON files so
experiment setups can be versioned and shared::

    cfg = scaled_config("small")
    save_config(cfg, "device.json")
    cfg2 = load_config("device.json")
    assert cfg2 == cfg

The dict form is the :class:`~repro.record.Record` codec's: unknown
sections or fields raise :class:`~repro.errors.ConfigError` (catching
typos beats silently ignoring them), missing ones take their defaults,
and the loaded config is validated.  Any file that cannot be read as
such a config raises a :class:`~repro.errors.ConfigError` naming it.
"""

from __future__ import annotations

import json
from pathlib import Path

from .config import SSDConfig
from .errors import ConfigError


def save_config(config: SSDConfig, path: "str | Path") -> None:
    """Write a configuration as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(config.to_dict(), indent=2, sort_keys=True) + "\n")


def load_config(path: "str | Path") -> SSDConfig:
    """Read a configuration written by :func:`save_config`."""
    try:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
    except OSError as exc:
        raise ConfigError(f"{path}: cannot read ({exc.strerror})") from None
    except (ValueError, RecursionError) as exc:
        # JSONDecodeError and UnicodeDecodeError are ValueErrors.
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    try:
        return SSDConfig.from_dict(data)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None
