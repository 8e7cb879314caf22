"""Configuration parsing, canonical serialization and signatures."""

import re
from dataclasses import dataclass, field
from pathlib import Path

import pytest

from uwbrelay import configfile
from uwbrelay.configfile import (
    ANNOTATED_DEFAULTS,
    ConfigError,
    OracleSettings,
    canonical_text,
    config_signature,
    default_config,
    load_config,
    parse_config_text,
)
from uwbrelay.svchannel import SVParameters


def test_empty_text_yields_defaults():
    config = parse_config_text("")
    assert config.experiment.block_size == 1024
    assert config.experiment.trials == 500
    assert config.experiment.rho_values == (0.0, 0.6, 0.9)
    assert len(config.experiment.d2_grid) == 10
    assert config.oracle == OracleSettings()
    assert config_signature(config) == config_signature(default_config())


def test_annotated_defaults_are_the_defaults():
    config = parse_config_text(ANNOTATED_DEFAULTS)
    assert config_signature(config) == config_signature(default_config())


def test_annotated_defaults_set_every_key_once():
    keys = [line.split("=", 1)[0].strip() for line in ANNOTATED_DEFAULTS.splitlines()
            if line.split("#", 1)[0].strip()]
    assert sorted(keys) == sorted(configfile._KEYS)


def test_shipped_default_file_matches_defaults():
    path = Path(__file__).resolve().parents[1] / "configs" / "default.cfg"
    assert path.is_file()
    assert path.read_bytes() == ANNOTATED_DEFAULTS.encode()
    assert config_signature(load_config(path)) == config_signature(default_config())


@dataclass(frozen=True)
class _TextSettings:
    label: str = "x"


@dataclass(frozen=True)
class _UnlistedHolder:
    sv: SVParameters = field(default_factory=SVParameters)


@pytest.mark.parametrize("cls, name", [(_TextSettings, "label"), (_UnlistedHolder, "sv")])
def test_registry_rejects_fields_that_are_not_keys(monkeypatch, cls, name):
    # neither an int/float/tuple nor a nested section listed in the table:
    # the field must not silently drop out of the key set
    monkeypatch.setitem(configfile._SECTIONS, "extra", (cls, "extra"))
    with pytest.raises(TypeError, match=rf"{cls.__name__}\.{name}"):
        configfile._registry()


@pytest.mark.parametrize("key", ["experiment.bogus", "optimizer.lambda_tolerance",
                                 "optimizer.max_lambda_iters"])
def test_unknown_key_names_key_and_line(key):
    text = f"experiment.trials = 5\n{key} = 1\n"
    with pytest.raises(ConfigError, match=rf"<config>:2.*{re.escape(key)}"):
        parse_config_text(text)


def test_bad_value_names_key():
    with pytest.raises(ConfigError, match=r"experiment\.trials.*banana"):
        parse_config_text("experiment.trials = banana")
    with pytest.raises(ConfigError, match=r"sv\.ray_decay"):
        parse_config_text("sv.ray_decay = 1..2")


def test_repeated_key_names_key_and_both_lines():
    text = "experiment.trials = 5\n# again\nexperiment.trials = 7\n"
    with pytest.raises(ConfigError, match=r"<config>:3: repeated key 'experiment\.trials' "
                                          r"\(first set on line 1\)"):
        parse_config_text(text)


def test_missing_assignment_reported_with_line():
    with pytest.raises(ConfigError, match=r"myfile:1"):
        parse_config_text("experiment.trials 5", source="myfile")


def test_comments_blank_lines_and_inline_comments():
    text = """
# full-line comment
experiment.trials = 7   # inline comment

optimizer.refine_steps = 1
"""
    config = parse_config_text(text)
    assert config.experiment.trials == 7
    assert config.experiment.optimizer.refine_steps == 1


def test_section_routing():
    text = "\n".join([
        "experiment.block_size = 64",
        "sv.cluster_arrival_rate = 0.2",
        "pathloss.exponent = 3.0",
        "optimizer.tone_grid_points = 41",
        "oracle.seed = 99",
    ])
    config = parse_config_text(text)
    assert config.experiment.block_size == 64
    assert config.experiment.sv.cluster_arrival_rate == 0.2
    assert config.experiment.pl.exponent == 3.0
    assert config.experiment.optimizer.tone_grid_points == 41
    assert config.oracle.seed == 99


def test_float_lists():
    config = parse_config_text("experiment.rho_values = 0, 0.5\n"
                               "experiment.d2_grid = 0.5, 1.5, 2.5")
    assert config.experiment.rho_values == (0.0, 0.5)
    assert config.experiment.d2_grid == (0.5, 1.5, 2.5)
    with pytest.raises(ConfigError, match=r"experiment\.rho_values"):
        parse_config_text("experiment.rho_values = ")


def test_semantic_validation_becomes_config_error():
    with pytest.raises(ConfigError, match="trials"):
        parse_config_text("experiment.trials = 0")
    with pytest.raises(ConfigError):
        parse_config_text("experiment.d2_grid = 9.0")  # beyond d1 = 3


def test_canonical_text_is_a_fixpoint():
    config = parse_config_text("experiment.trials = 9\noracle.seed = 3")
    text = canonical_text(config)
    assert text == canonical_text(parse_config_text(text))
    assert config_signature(config) == config_signature(parse_config_text(text))
    assert "experiment.trials = 9" in text
    assert "oracle.seed = 3" in text


def test_default_signature_is_pinned():
    # Manifests identify a run by this hash: any change to key names,
    # order or value formatting in canonical_text breaks it.
    assert config_signature(default_config()) == (
        "01c0f0a85b10276c1baf049a4a2a10e766231d1119b86c43b9aa6eecd3ccd522")


def test_signature_tracks_content():
    base = config_signature(default_config())
    changed = config_signature(parse_config_text("experiment.trials = 9"))
    assert base != changed
    assert len(base) == 64  # sha256 hex


def test_load_config(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("experiment.master_seed = 123\n")
    config = load_config(path)
    assert config.experiment.master_seed == 123
    with pytest.raises(ConfigError, match=r"run\.bad\.cfg:1"):
        bad = tmp_path / "run.bad.cfg"
        bad.write_text("nope = 1\n")
        load_config(bad)


def test_oracle_settings_validation():
    with pytest.raises(ValueError):
        OracleSettings(k1_instances=-1)
    with pytest.raises(ValueError):
        OracleSettings(resolution=0.0)
    for resolution in (1e-3, 1e-2, 0.05, 1 / 3, 0.5):
        OracleSettings(resolution=resolution)
    with pytest.raises(ValueError):
        OracleSettings(tolerance_bits=0.0)
    with pytest.raises(ValueError):
        OracleSettings(seed=-1)
