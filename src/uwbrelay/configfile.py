"""Flat key-value configuration files.

The format is one `section.key = value` assignment per line, `#` comments
and blank lines ignored.  The keys are the settings dataclasses' fields,
so every key has a default and an empty file is a valid configuration.
Lists are comma separated.  Unknown or repeated keys and bad values fail
fast, naming the offending key.

The canonical dump (canonical_text) writes every key in a fixed order
with full-precision values; its hash identifies a configuration in sweep
manifests.
"""

from __future__ import annotations

import hashlib
import math
from collections import defaultdict
from dataclasses import dataclass, fields
from operator import attrgetter

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


# section -> (settings dataclass, attribute path of its instance in an AppConfig)
_SECTIONS = {
    "experiment": (ExperimentConfig, "experiment"),
    "sv": (SVParameters, "experiment.sv"),
    "pathloss": (PathlossParameters, "experiment.pl"),
    "optimizer": (OptimizerSettings, "experiment.optimizer"),
    "oracle": (OracleSettings, "oracle"),
}
_KINDS = {"int": "int", "float": "float", "tuple": "float_list"}


def _registry() -> dict[str, tuple[str, str, str]]:
    """key -> (value kind, holder path, field), in declaration order."""
    paths = {path for _, path in _SECTIONS.values()}
    keys = {}
    for section, (cls, path) in _SECTIONS.items():
        for f in fields(cls):
            if f"{path}.{f.name}" in paths:
                continue
            if f.type not in _KINDS:
                raise TypeError(f"{cls.__name__}.{f.name}: annotation {f.type!r} "
                                f"is not one of {sorted(_KINDS)}")
            keys[f"{section}.{f.name}"] = (_KINDS[f.type], path, f.name)
    return keys


_KEYS = _registry()


def _convert(key: str, kind: str, raw: str):
    try:
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        items = [part.strip() for part in raw.split(",")]
        if items == [""]:
            raise ValueError("empty list")
        return tuple(float(part) for part in items)
    except ValueError:
        raise ConfigError(f"{key}: cannot parse {raw!r} as {kind}") from None


def parse_config_text(text: str, source: str = "<config>") -> AppConfig:
    # holder path -> constructor arguments; "" is the AppConfig itself
    kwargs: dict[str, dict] = defaultdict(dict)
    first_line: dict[str, int] = {}
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
        if key in first_line:
            raise ConfigError(f"{source}:{lineno}: repeated key {key!r} "
                              f"(first set on line {first_line[key]})")
        first_line[key] = lineno
        kind, path, fieldname = _KEYS[key]
        kwargs[path][fieldname] = _convert(key, kind, raw)
    try:
        # nested sections first, so each holder receives built instances
        for cls, path in sorted(_SECTIONS.values(), key=lambda e: -e[1].count(".")):
            holder, _, attr = path.rpartition(".")
            kwargs[holder][attr] = cls(**kwargs[path])
    except ValueError as exc:
        raise ConfigError(f"{source}: {exc}") from exc
    return AppConfig(**kwargs[""])


def load_config(path) -> AppConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            return parse_config_text(fh.read(), source=str(path))
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc


def default_config() -> AppConfig:
    return parse_config_text("", source="<defaults>")


def canonical_text(config: AppConfig) -> str:
    """Every key in registry order with full-precision values."""
    lines = []
    for key, (kind, path, fieldname) in _KEYS.items():
        value = attrgetter(f"{path}.{fieldname}")(config)
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
