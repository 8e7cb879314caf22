"""Capacity bounds for wideband multipath relay channels.

The package is organized bottom-up:

* svchannel: clustered-multipath impulse responses, tap discretization,
  distance pathloss and per-block frequency responses;
* rates: closed-form per-tone SNR expressions and the rate bounds they
  imply (achievable partial decode-and-forward, cut-set upper bound,
  degraded-channel capacities, direct transmission);
* optimizer: exact max-min solve over the per-tone split parameters,
  plus an exhaustive-grid oracle for small blocks;
* experiments: seeded Monte Carlo sweeps over geometry and noise
  correlation;
* configfile / svgplot / cli: configuration parsing, deterministic SVG
  charts and the command line front end.
"""

__version__ = "0.1.0"

from .svchannel import (
    SVParameters, PathlossParameters, ContinuousImpulse, ChannelTaps,
    DegenerateChannelError, TruncatedChannelWarning,
    sample_impulse_response, discretize_taps, draw_shadowing_db,
    scale_pathloss, apply_pathloss, dft_response,
)
from .rates import (
    InvalidParameterError, PowerBudget, RelayChannelInstance, SplitParams,
    RateReport, MutualInformationTerms, cap, mac_cut_snr, decode_cut_snr,
    broadcast_cut_snr, mac_excess_snr, mutual_information_terms,
    joint_covariance_determinants, degraded_noise_correlation,
    reversely_degraded_noise_correlation, pdf_rate, cutset_rate,
    degraded_capacity_rate, reversely_degraded_capacity, direct_rate,
)
from .optimizer import (
    OptimizerSettings, OptimizationResult, OracleComparison, align_phases,
    aligned_split, optimize_pdf, optimize_cutset, optimize_degraded,
    brute_force_oracle, random_instance, oracle_suite,
)
from .experiments import (
    Geometry, ExperimentConfig, SweepResult, TrialFading, powers_from_config,
    link_rng, draw_fading, draw_links, build_instance, run_trial,
    sweep_distance, sweep_rho,
)
from .configfile import (
    AppConfig, ConfigError, OracleSettings, parse_config_text, load_config,
    default_config, canonical_text, config_signature,
)

__all__ = [
    "__version__",
    # svchannel
    "SVParameters", "PathlossParameters", "ContinuousImpulse", "ChannelTaps",
    "DegenerateChannelError", "TruncatedChannelWarning",
    "sample_impulse_response", "discretize_taps", "draw_shadowing_db",
    "scale_pathloss", "apply_pathloss", "dft_response",
    # rates
    "InvalidParameterError", "PowerBudget", "RelayChannelInstance",
    "SplitParams", "RateReport", "MutualInformationTerms", "cap",
    "mac_cut_snr", "decode_cut_snr", "broadcast_cut_snr", "mac_excess_snr",
    "mutual_information_terms", "joint_covariance_determinants",
    "degraded_noise_correlation", "reversely_degraded_noise_correlation",
    "pdf_rate", "cutset_rate", "degraded_capacity_rate",
    "reversely_degraded_capacity", "direct_rate",
    # optimizer
    "OptimizerSettings", "OptimizationResult", "OracleComparison",
    "align_phases", "aligned_split", "optimize_pdf", "optimize_cutset",
    "optimize_degraded", "brute_force_oracle", "random_instance",
    "oracle_suite",
    # experiments
    "Geometry", "ExperimentConfig", "SweepResult", "TrialFading",
    "powers_from_config", "link_rng", "draw_fading", "draw_links",
    "build_instance", "run_trial",
    "sweep_distance", "sweep_rho",
    # configfile
    "AppConfig", "ConfigError", "OracleSettings", "parse_config_text",
    "load_config", "default_config", "canonical_text", "config_signature",
]
