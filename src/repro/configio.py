"""Configuration (de)serialisation.

Round-trips :class:`~repro.config.SSDConfig` through plain dictionaries
and JSON files so experiment setups can be versioned and shared::

    cfg = scaled_config("small")
    save_config(cfg, "device.json")
    cfg2 = load_config("device.json")
    assert cfg2 == cfg
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

from .config import (
    CacheConfig,
    GeometryConfig,
    ReliabilityConfig,
    SSDConfig,
    TimingConfig,
    TranslationConfig,
)
from .errors import ConfigError

_SECTIONS = {
    "geometry": GeometryConfig,
    "timing": TimingConfig,
    "reliability": ReliabilityConfig,
    "cache": CacheConfig,
    "translation": TranslationConfig,
}


def config_to_dict(config: SSDConfig) -> dict:
    """Nested plain-dict form of a configuration."""
    out: dict = {
        name: dataclasses.asdict(getattr(config, name))
        for name in _SECTIONS
    }
    out["seed"] = config.seed
    return out


def config_from_dict(data: dict) -> SSDConfig:
    """Rebuild a validated configuration from :func:`config_to_dict` output.

    Unknown sections or fields raise :class:`ConfigError` (catching typos
    beats silently ignoring them); missing ones take their defaults.
    """
    if not isinstance(data, dict):
        raise ConfigError(f"expected a mapping, got {type(data).__name__}")
    unknown = set(data) - set(_SECTIONS) - {"seed"}
    if unknown:
        raise ConfigError(f"unknown config sections: {sorted(unknown)}")
    kwargs: dict = {}
    for name, cls in _SECTIONS.items():
        section = data.get(name, {})
        if not isinstance(section, dict):
            raise ConfigError(f"section {name!r} must be a mapping")
        valid_fields = {f.name for f in dataclasses.fields(cls)}
        bad = set(section) - valid_fields
        if bad:
            raise ConfigError(f"unknown fields in {name!r}: {sorted(bad)}")
        kwargs[name] = cls(**section)
    return SSDConfig(seed=data.get("seed"), **kwargs).validate()


def config_to_json(config: SSDConfig) -> str:
    """Canonical one-line JSON form (sorted keys, no whitespace)."""
    return json.dumps(config_to_dict(config), sort_keys=True,
                      separators=(",", ":"))


def config_from_json(text: str) -> SSDConfig:
    """Inverse of :func:`config_to_json`."""
    return config_from_dict(json.loads(text))


def save_config(config: SSDConfig, path: "str | Path") -> None:
    """Write a configuration as pretty-printed JSON."""
    Path(path).write_text(
        json.dumps(config_to_dict(config), indent=2, sort_keys=True) + "\n")


def load_config(path: "str | Path") -> SSDConfig:
    """Read a configuration written by :func:`save_config`."""
    try:
        data = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    return config_from_dict(data)
