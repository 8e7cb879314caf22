"""Flat key-value configuration files.

The format is one `section.key = value` assignment per line, `#` comments
and blank lines ignored.  Every key has a default, so an empty file is a
valid configuration.  Lists are comma separated.  Unknown keys and bad
values fail fast, naming the offending key.

The canonical dump (canonical_text) writes every key in a fixed order
with full-precision values; its hash identifies a configuration in sweep
manifests.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

from .experiments import ExperimentConfig
from .optimizer import OptimizerSettings, _grid_steps
from .svchannel import PathlossParameters, SVParameters


class ConfigError(ValueError):
    """Malformed configuration text; message names the offending key."""


@dataclass(frozen=True)
class OracleSettings:
    """Controls for the oracle-check command: how many random instances
    per block size, the oracle grid resolution and the acceptance gap."""

    k1_instances: int = 12
    k2_instances: int = 4
    resolution: float = 1e-3
    tolerance_bits: float = 2e-3
    seed: int = 7

    def __post_init__(self) -> None:
        if self.k1_instances < 0 or self.k2_instances < 0:
            raise ValueError("instance counts must be >= 0")
        _grid_steps(self.resolution, "oracle.resolution")
        if not (math.isfinite(self.tolerance_bits) and self.tolerance_bits > 0):
            raise ValueError("tolerance_bits must be > 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class AppConfig:
    experiment: ExperimentConfig
    oracle: OracleSettings


# key -> (value kind, target section, field)
_KEYS = {
    "experiment.psd_tx_dbm_per_mhz": ("float", "experiment", "psd_tx_dbm_per_mhz"),
    "experiment.psd_noise_dbm_per_mhz": ("float", "experiment", "psd_noise_dbm_per_mhz"),
    "experiment.bandwidth_mhz": ("float", "experiment", "bandwidth_mhz"),
    "experiment.block_size": ("int", "experiment", "block_size"),
    "experiment.trials": ("int", "experiment", "trials"),
    "experiment.master_seed": ("int", "experiment", "master_seed"),
    "experiment.rho_values": ("float_list", "experiment", "rho_values"),
    "experiment.d2_grid": ("float_list", "experiment", "d2_grid"),
    "experiment.d1": ("float", "experiment", "d1"),
    "sv.cluster_arrival_rate": ("float", "sv", "cluster_arrival_rate"),
    "sv.ray_arrival_rate": ("float", "sv", "ray_arrival_rate"),
    "sv.cluster_decay": ("float", "sv", "cluster_decay"),
    "sv.ray_decay": ("float", "sv", "ray_decay"),
    "sv.mean_cluster_count": ("float", "sv", "mean_cluster_count"),
    "sv.max_delay": ("float", "sv", "max_delay"),
    "pathloss.ref_loss_db": ("float", "pathloss", "ref_loss_db"),
    "pathloss.ref_distance": ("float", "pathloss", "ref_distance"),
    "pathloss.exponent": ("float", "pathloss", "exponent"),
    "pathloss.shadowing_sigma_db": ("float", "pathloss", "shadowing_sigma_db"),
    "optimizer.tone_grid_points": ("int", "optimizer", "tone_grid_points"),
    "optimizer.lambda_tolerance": ("float", "optimizer", "lambda_tolerance"),
    "optimizer.max_lambda_iters": ("int", "optimizer", "max_lambda_iters"),
    "optimizer.refine_steps": ("int", "optimizer", "refine_steps"),
    "oracle.k1_instances": ("int", "oracle", "k1_instances"),
    "oracle.k2_instances": ("int", "oracle", "k2_instances"),
    "oracle.resolution": ("float", "oracle", "resolution"),
    "oracle.tolerance_bits": ("float", "oracle", "tolerance_bits"),
    "oracle.seed": ("int", "oracle", "seed"),
}


def _convert(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "float_list":
            items = [part.strip() for part in raw.split(",")]
            if items == [""]:
                raise ValueError("empty list")
            return tuple(float(part) for part in items)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None
    raise ConfigError(f"{key}: unsupported kind {kind!r}")


def parse_config_text(text: str, source: str = "<config>") -> AppConfig:
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected 'section.key = value', "
                              f"got {stripped!r}")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        kind, _, _ = _KEYS[key]
        values[key] = _convert(key, kind, raw)

    sections: dict[str, dict] = {"experiment": {}, "sv": {}, "pathloss": {},
                                 "optimizer": {}, "oracle": {}}
    for key, value in values.items():
        _, section, fieldname = _KEYS[key]
        sections[section][fieldname] = value
    try:
        sv = SVParameters(**sections["sv"])
        pl = PathlossParameters(**sections["pathloss"])
        opt = OptimizerSettings(**sections["optimizer"])
        experiment = ExperimentConfig(sv=sv, pl=pl, optimizer=opt,
                                      **sections["experiment"])
        oracle = OracleSettings(**sections["oracle"])
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return AppConfig(experiment=experiment, oracle=oracle)


def load_config(path) -> AppConfig:
    with open(path) as fh:
        return parse_config_text(fh.read(), source=str(path))


def default_config() -> AppConfig:
    return parse_config_text("", source="<defaults>")


def canonical_text(config: AppConfig) -> str:
    """Every key in registry order with full-precision values."""
    exp, orc = config.experiment, config.oracle
    holders = {"experiment": exp, "sv": exp.sv, "pathloss": exp.pl,
               "optimizer": exp.optimizer, "oracle": orc}
    lines = []
    for key, (kind, section, fieldname) in _KEYS.items():
        value = getattr(holders[section], fieldname)
        if kind == "float_list":
            rendered = ", ".join(repr(float(v)) for v in value)
        elif kind == "float":
            rendered = repr(float(value))
        else:
            rendered = str(int(value))
        lines.append(f"{key} = {rendered}")
    return "\n".join(lines) + "\n"


def config_signature(config: AppConfig) -> str:
    return hashlib.sha256(canonical_text(config).encode()).hexdigest()


ANNOTATED_DEFAULTS = """\
# uwbrelay configuration: flat `section.key = value` lines.
# Every key is optional; the values below are the built-in defaults.

# --- experiment: power levels, band, block and Monte Carlo shape ---
experiment.psd_tx_dbm_per_mhz = -41.3     # per-node transmit PSD (UWB indoor cap)
experiment.psd_noise_dbm_per_mhz = -114.0 # receiver noise PSD
experiment.bandwidth_mhz = 500.0          # signal bandwidth; sample period = 1/bandwidth
experiment.block_size = 1024              # tones per transmission block
experiment.trials = 500                   # channel draws per sweep point
experiment.master_seed = 20260814         # root of every random stream
experiment.rho_values = 0.0, 0.6, 0.9     # noise correlations for the rho sweep
experiment.d2_grid = 0.3, 0.5666666667, 0.8333333333, 1.1, 1.3666666667, 1.6333333333, 1.9, 2.1666666667, 2.4333333333, 2.7
experiment.d1 = 3.0                       # source-destination distance, m (relay collinear)

# --- sv: clustered multipath profile (residential NLOS flavor) ---
sv.cluster_arrival_rate = 0.12            # clusters per ns
sv.ray_arrival_rate = 0.25                # rays per ns inside a cluster
sv.cluster_decay = 26.27                  # ns
sv.ray_decay = 17.5                       # ns
sv.mean_cluster_count = 3.5
sv.max_delay = 200.0                      # ns, paths beyond are dropped

# --- pathloss: log-distance law with log-normal shadowing ---
pathloss.ref_loss_db = 48.7
pathloss.ref_distance = 1.0               # m
pathloss.exponent = 4.58
pathloss.shadowing_sigma_db = 3.51

# --- optimizer: root-search controls of the exact split solve ---
optimizer.tone_grid_points = 101          # unused (no grid is searched)
optimizer.lambda_tolerance = 1e-9         # bracket width on the weight
optimizer.max_lambda_iters = 60
optimizer.refine_steps = 3                # unused (no grid is searched)

# --- oracle: oracle-check command ---
oracle.k1_instances = 12                  # single-tone random instances
oracle.k2_instances = 4                   # two-tone random instances
oracle.resolution = 1e-3                  # oracle grid step
oracle.tolerance_bits = 2e-3              # max allowed |optimizer - oracle|
oracle.seed = 7
"""
