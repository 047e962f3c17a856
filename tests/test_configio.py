"""Config and artifact serialisation."""

import json

import pytest

from repro.config import SSDConfig, scaled_config
from repro.configio import load_config, save_config
from repro.errors import ConfigError
from repro.experiments.artifact import Artifact

from conftest import tiny_config


class TestConfigRoundTrip:
    def test_dict_round_trip(self):
        cfg = tiny_config(gc_pages_per_trigger=3)
        assert SSDConfig.from_dict(cfg.to_dict()) == cfg

    def test_file_round_trip(self, tmp_path):
        cfg = scaled_config("smoke", seed=7)
        path = tmp_path / "device.json"
        save_config(cfg, path)
        assert load_config(path) == cfg

    def test_defaults_fill_missing_sections(self):
        cfg = SSDConfig.from_dict({"seed": 3})
        assert cfg == SSDConfig(seed=3)

    def test_partial_section(self):
        cfg = SSDConfig.from_dict({"timing": {"erase_ms": 5.0}})
        assert cfg.timing.erase_ms == 5.0
        assert cfg.timing.slc_read_ms == 0.025

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            SSDConfig.from_dict({"tuning": {}})

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SSDConfig.from_dict({"timing": {"warp_factor": 9}})

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            SSDConfig.from_dict({"cache": {"slc_ratio": 2.0}})

    def test_non_mapping_rejected(self):
        with pytest.raises(ConfigError):
            SSDConfig.from_dict([1, 2])
        with pytest.raises(ConfigError):
            SSDConfig.from_dict({"timing": 5})

    def test_bad_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{nope")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_json_is_pretty_and_stable(self, tmp_path):
        path = tmp_path / "a.json"
        save_config(tiny_config(), path)
        text = path.read_text()
        assert json.loads(text)  # valid
        assert text.endswith("\n")
        save_config(tiny_config(), tmp_path / "b.json")
        assert (tmp_path / "b.json").read_text() == text


class TestMalformedFiles:
    """Every file ``load_config`` cannot read as a config is a
    ConfigError naming the file."""

    @pytest.mark.parametrize("content, match", [
        (b'{"seed": 1}\xff', "invalid JSON"),
        (b"[" * 100_000 + b"]" * 100_000, "invalid JSON"),
        (b'{"timing": {"slc_read_ms": NaN}}', "'timing.slc_read_ms'"),
        (b'{"timing": {"mlc_read_ms": Infinity}}', "'timing.mlc_read_ms'"),
        (b'{"cache": {"slc_ratio": 2.0}}', "slc_ratio"),
    ], ids=["non-utf8", "nested-100k-deep", "nan", "infinity", "invalid"])
    def test_names_the_file(self, tmp_path, content, match):
        path = tmp_path / "device.json"
        path.write_bytes(content)
        with pytest.raises(ConfigError, match=match) as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ")

    @pytest.mark.parametrize("section, field, value", [
        ("timing", "pipelined_bus", True),
        ("reliability", "read_disturb_unit_ratio", 0.01),
        ("reliability", "retention_unit_per_ms", 1e-3),
    ])
    def test_retired_field_refused(self, tmp_path, section, field, value):
        """A saved config that still turns on a retired device model
        fails loudly instead of replaying without it."""
        data = tiny_config().to_dict()
        data[section][field] = value
        path = tmp_path / "device.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(ConfigError, match=f"'{section}.{field}'") as info:
            load_config(path)
        assert str(info.value).startswith(f"{path}: ")

    def test_missing_file(self, tmp_path):
        path = tmp_path / "absent.json"
        with pytest.raises(ConfigError, match="cannot read") as info:
            load_config(path)
        assert str(path) in str(info.value)


class TestArtifactJson:
    def test_to_dict(self):
        art = Artifact(id="x", title="T", rows=[{"a": 1}], notes="n",
                       scale="smoke", chart="ignored")
        d = art.to_dict()
        assert d["id"] == "x"
        assert d["rows"] == [{"a": 1}]
        assert "chart" not in d

    def test_save_json(self, tmp_path):
        art = Artifact(id="x", title="T", rows=[{"a": 1}])
        path = tmp_path / "art.json"
        art.save_json(path)
        loaded = json.loads(path.read_text())
        assert loaded["rows"] == [{"a": 1}]

    def test_cli_json_flag(self, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "fig2.json"
        assert main(["run", "fig2", "--scale", "smoke", "--seed", "3",
                     "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert data["id"] == "fig2"
        assert len(data["rows"]) >= 6
