"""Monte Carlo experiments over the UWB relay geometry.

A trial draws the three links of a source / relay / destination triangle
from the clustered-multipath model, applies distance pathloss, moves to
the frequency domain and evaluates every bound.  Trials are paired across
sweep points: the fading seed depends only on (master_seed, trial_index,
link), so moving the relay or changing the noise correlation reuses the
same small-scale realizations, which keeps sweep curves smooth and makes
the achievable rate exactly correlation-invariant across rho sweeps.

A link draw has two parts.  Its fading (the multipath profile, its taps
and the shadowing draw, in that stream order; draw_fading) depends only on
that key; its placement (the pathloss at the link's distance, then the
DFT) depends on the geometry.  The sweeps draw each trial's fading once
and place it at every relay position, so they draw 3 * trials links
rather than 3 * points * trials, with the same instances either way.  A
link that drops path energy beyond the block is reported once per draw,
when its fading is drawn, not once per placement.

Transmit and noise levels follow the UWB regulatory convention: a flat
power spectral density in dBm/MHz integrated over the signal bandwidth.
Rates are bits per complex sample.

Nothing here writes files.  SweepResult.write_csv renders a sweep's
table (svgplot.parse_sweep_csv reads it back); cli renders every other
artifact.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from . import optimizer, rates
from .optimizer import (OptimizerSettings, optimize_cutset, optimize_degraded,
                        optimize_pdf)
from .rates import PowerBudget, RateReport, RelayChannelInstance
from .svchannel import (PathlossParameters, SVParameters, TruncatedChannelWarning,
                        dft_response, discretize_taps, draw_shadowing_db,
                        sample_impulse_response, scale_pathloss)

LINK_SOURCE_DEST = 1
LINK_SOURCE_RELAY = 2
LINK_RELAY_DEST = 3


@dataclass(frozen=True)
class Geometry:
    """Node placement: the relay sits on the source-destination segment,
    d2 from the source, so the relay-destination distance is d1 - d2."""

    d1: float
    d2: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.d1) and self.d1 > 0):
            raise ValueError(f"d1 must be > 0, got {self.d1!r}")
        if not (math.isfinite(self.d2) and self.d2 > 0):
            raise ValueError(f"d2 must be > 0, got {self.d2!r}")
        if not self.d2 < self.d1:
            raise ValueError("collinear placement needs d2 < d1")

    @property
    def relay_dest_distance(self) -> float:
        return self.d1 - self.d2


def _cutset_label(rho: float) -> str:
    """Name of the sweep-rho cut-set series at noise correlation rho."""
    return f"cutset[rho={rho:g}]"


def _default_d2_grid() -> tuple:
    return tuple(np.round(np.linspace(0.3, 2.7, 10), 10))


@dataclass
class ExperimentConfig:
    """Full experiment description; every field has a physically motivated
    default (UWB indoor emission limit, thermal-ish noise floor, 500 MHz
    band, residential NLOS multipath)."""

    psd_tx_dbm_per_mhz: float = -41.3
    psd_noise_dbm_per_mhz: float = -114.0
    bandwidth_mhz: float = 500.0
    block_size: int = 1024
    trials: int = 500
    master_seed: int = 20260814
    rho_values: tuple = (0.0, 0.6, 0.9)
    d2_grid: tuple = field(default_factory=_default_d2_grid)
    d1: float = 3.0
    sv: SVParameters = field(default_factory=SVParameters)
    pl: PathlossParameters = field(default_factory=PathlossParameters)
    optimizer: OptimizerSettings = field(default_factory=OptimizerSettings)

    def __post_init__(self) -> None:
        if not (math.isfinite(self.bandwidth_mhz) and self.bandwidth_mhz > 0):
            raise ValueError(f"bandwidth_mhz must be > 0, got {self.bandwidth_mhz!r}")
        for name in ("psd_tx_dbm_per_mhz", "psd_noise_dbm_per_mhz"):
            level = getattr(self, name)
            try:
                watts = _psd_to_watts(level, self.bandwidth_mhz)
            except OverflowError:
                watts = math.inf
            if not 0.0 < watts < math.inf:  # also false for nan
                raise ValueError(f"{name} must be finite and integrate to a finite "
                                 f"power > 0 over the band, got {level!r}")
        if self.block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {self.block_size!r}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials!r}")
        if not (isinstance(self.master_seed, int) and self.master_seed >= 0):
            raise ValueError(f"master_seed must be a nonnegative int, got {self.master_seed!r}")
        self.rho_values = tuple(float(r) for r in self.rho_values)
        if not self.rho_values:
            raise ValueError("rho_values must not be empty")
        labels = {}
        for rho in self.rho_values:
            if not (0.0 <= rho < rates.NOISE_CORR_LIMIT):
                raise ValueError(f"rho values must lie in "
                                 f"[0, {rates.NOISE_CORR_LIMIT!r}), got {rho!r}")
            label = _cutset_label(rho)
            if label in labels:
                raise ValueError(f"rho values {labels[label]!r} and {rho!r} share "
                                 f"the sweep-rho series label {label!r}")
            labels[label] = rho
        self.d2_grid = tuple(float(d) for d in self.d2_grid)
        if not self.d2_grid:
            raise ValueError("d2_grid must not be empty")
        if not (math.isfinite(self.d1) and self.d1 > 0):
            raise ValueError(f"d1 must be > 0, got {self.d1!r}")
        for d2 in self.d2_grid:
            Geometry(self.d1, d2)  # validates 0 < d2 < d1

    @property
    def sample_period_ns(self) -> float:
        """Baseband sample period implied by the bandwidth."""
        return 1e3 / self.bandwidth_mhz


def _psd_to_watts(psd_dbm_per_mhz: float, bandwidth_mhz: float) -> float:
    return 10.0 ** ((psd_dbm_per_mhz + 10.0 * math.log10(bandwidth_mhz) - 30.0) / 10.0)


def powers_from_config(config: ExperimentConfig):
    """Integrate the PSD levels over the band.

    Returns (PowerBudget, n_dest, n_relay).  Source and relay transmit at
    the same PSD cap; both receivers see the same integrated noise power.
    """
    p_tx = _psd_to_watts(config.psd_tx_dbm_per_mhz, config.bandwidth_mhz)
    noise = _psd_to_watts(config.psd_noise_dbm_per_mhz, config.bandwidth_mhz)
    return PowerBudget(p_src=p_tx, p_rel=p_tx), noise, noise


def link_rng(master_seed: int, trial_index: int, link_id: int) -> np.random.Generator:
    """Independent, reproducible stream for one link of one trial.  The
    key leaves out geometry and correlation on purpose (paired trials)."""
    if trial_index < 0:
        raise ValueError(f"trial_index must be >= 0, got {trial_index!r}")
    return np.random.default_rng(
        np.random.SeedSequence((master_seed, trial_index, link_id)))


@dataclass(frozen=True)
class TrialFading:
    """The distance-free part of one trial's three link draws: per link
    its name, the unit-energy taps and the shadowing in dB, in source-
    destination, source-relay, relay-destination order.  Tagged with the
    (master_seed, trial_index, block_size) it was drawn for, so a record
    cannot be placed into another trial."""

    master_seed: int
    trial_index: int
    block_size: int
    links: tuple


def _draw_link_fading(config: ExperimentConfig, rng: np.random.Generator):
    """(unit-energy taps, shadowing_db) of one link, in stream order."""
    impulse = sample_impulse_response(config.sv, rng)
    taps = discretize_taps(impulse, config.sample_period_ns, config.block_size)
    return taps, draw_shadowing_db(config.pl, rng)


def _place_link(config: ExperimentConfig, taps, shadowing_db: float,
                distance: float):
    """(taps, response) of a link's fading placed at distance."""
    taps = scale_pathloss(taps, distance, config.pl, shadowing_db)
    return taps, dft_response(taps, config.block_size)


def draw_fading(config: ExperimentConfig, trial_index: int) -> TrialFading:
    """The small-scale fading and shadowing of all three links of a
    trial, before any distance is applied.  It depends only on
    (master_seed, trial_index, link), so one record serves every relay
    position and noise correlation of the trial; build_instance(...,
    fading=record) places it.  A record holds about 2 KB of taps per
    link.  Each link whose paths reach beyond block_size taps issues one
    TruncatedChannelWarning naming it and its dropped energy share;
    placing the record warns nothing."""
    seed = config.master_seed
    links = tuple((name, *_draw_link_fading(config, link_rng(seed, trial_index, link)))
                  for name, link in (("sd", LINK_SOURCE_DEST),
                                     ("sr", LINK_SOURCE_RELAY),
                                     ("rd", LINK_RELAY_DEST)))
    for name, taps, _ in links:
        if taps.dropped_share > 0.0:
            warnings.warn(TruncatedChannelWarning(name, taps.dropped_share,
                                                  config.block_size), stacklevel=2)
    return TrialFading(seed, trial_index, config.block_size, links)


def _place_links(config: ExperimentConfig, geometry: Geometry,
                 fading: TrialFading):
    """{name: (taps, response)} of a trial's fading placed at geometry."""
    distances = {"sd": geometry.d1, "sr": geometry.d2,
                 "rd": geometry.relay_dest_distance}
    return {name: _place_link(config, taps, shadowing_db, distances[name])
            for name, taps, shadowing_db in fading.links}


def draw_links(config: ExperimentConfig, geometry: Geometry, trial_index: int):
    """All three links of a trial as {name: (taps, response)}, keyed-seeded
    so changing one link's stream leaves the others bit-identical.  The
    draw warns as draw_fading does."""
    return _place_links(config, geometry, draw_fading(config, trial_index))


def build_instance(config: ExperimentConfig, geometry: Geometry, rho: float,
                   trial_index: int, *, fading: TrialFading | None = None
                   ) -> RelayChannelInstance:
    """One frozen channel draw with a constant noise correlation.

    fading, when given, is draw_fading(config, trial_index) drawn once and
    reused: the instance is the same as without it, only the draw and its
    truncation warnings are not repeated.  A record drawn for another
    master seed, trial or block size raises ValueError."""
    if fading is None:
        fading = draw_fading(config, trial_index)
    elif ((fading.master_seed, fading.trial_index, fading.block_size)
          != (config.master_seed, trial_index, config.block_size)):
        raise ValueError(
            f"fading drawn for (master_seed, trial, block_size) = "
            f"{(fading.master_seed, fading.trial_index, fading.block_size)!r}, "
            f"not {(config.master_seed, trial_index, config.block_size)!r}")
    links = _place_links(config, geometry, fading)
    _, n_dest, n_relay = powers_from_config(config)
    return RelayChannelInstance(
        g_sd=links["sd"][1], g_sr=links["sr"][1], g_rd=links["rd"][1],
        n_dest=n_dest, n_relay=n_relay,
        noise_corr=np.full(config.block_size, complex(rho)))


def _solve_trial(config: ExperimentConfig, geometry: Geometry,
                 trial_index: int, rho_values, fading: TrialFading | None = None):
    """The work every trial shares: the correlation-independent bounds
    once, the cut-set bound once per correlation value.  The direct
    baseline spends the whole power budget at the source (twice the
    per-node power), since without a relay only one node transmits.
    fading is passed on to build_instance.  Later correlation values come
    from config.rho_values, which ExperimentConfig bounds, so their
    instances are the validated one with only noise_corr swapped.

    The optimizers' per-tone scalars do not read the noise correlation,
    so they are computed once, checked finite (ValueError) and shared by
    every solve.  Where the relay hears the source at least as well as
    the destination on every tone (sr >= sd), the df problem is the pdf
    one, and df_res is the pdf solve relabelled.

    Returns (instance, powers, pdf_res, df_res, cuts, direct_rate); the
    instance carries rho_values[0] and cuts holds one optimize_cutset
    result per correlation value."""
    instance = build_instance(config, geometry, rho_values[0], trial_index,
                              fading=fading)
    powers, n_dest, _ = powers_from_config(config)
    with np.errstate(over="ignore", invalid="ignore"):
        tones = optimizer._tones(instance, powers)
    if not all(np.isfinite(x).all() for x in tones):
        raise ValueError(f"trial {trial_index} with the relay at {geometry.d2:g} m: "
                         "a per-tone SNR overflows")
    pdf_res = optimize_pdf(instance, powers, tones=tones)
    if np.all(tones.sr >= tones.sd):
        df_res = optimizer._degraded_from_pdf(pdf_res)
    else:
        df_res = optimize_degraded(instance, powers, tones=tones)
    per_rho = [instance] + [rates._unchecked(RelayChannelInstance, **{
        **vars(instance), "noise_corr": np.full(config.block_size, complex(rho))})
        for rho in rho_values[1:]]
    cuts = [optimize_cutset(inst, powers, tones=tones) for inst in per_rho]
    direct_value = rates.direct_rate(instance.g_sd, 2.0 * powers.p_src, n_dest)
    return instance, powers, pdf_res, df_res, cuts, direct_value


def run_trial(config: ExperimentConfig, geometry: Geometry, rho: float,
              trial_index: int) -> RateReport:
    """Evaluate every bound on one seeded channel draw."""
    instance, powers, pdf_res, df_res, (cut_res,), direct_value = _solve_trial(
        config, geometry, trial_index, [rho])

    degraded_value = rates.degraded_capacity_rate(
        instance, powers, df_res.split.relay_mag, df_res.split.phase)
    revdeg_value = rates.reversely_degraded_capacity(instance, powers.p_src)

    mi = rates.mutual_information_terms(
        instance.g_sd, instance.g_sr, instance.g_rd, powers.p_src, powers.p_rel,
        instance.n_dest, instance.n_relay, pdf_res.split)
    per_tone = {
        "mac_cut_snr": rates.mac_cut_snr(
            instance.g_sd, instance.g_rd, powers.p_src, powers.p_rel,
            instance.n_dest, pdf_res.split.relay_corr, pdf_res.split.aux_corr),
        "decode_cut_snr": rates.decode_cut_snr(
            instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
            instance.n_relay, pdf_res.split.relay_mag, pdf_res.split.aux_mag),
        "broadcast_cut_snr": rates.broadcast_cut_snr(
            instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
            instance.n_relay, cut_res.split.relay_mag, cut_res.split.aux_mag,
            instance.noise_corr),
        "cooperative_at_dest": mi.cooperative_at_dest,
        "auxiliary_at_relay": mi.auxiliary_at_relay,
        "auxiliary_at_dest": mi.auxiliary_at_dest,
        "fresh_at_dest": mi.fresh_at_dest,
    }
    flags = {
        "pdf_converged": pdf_res.converged,
        "df_converged": df_res.converged,
        "cutset_converged": cut_res.converged,
        "pdf_binding": pdf_res.binding_term,
        "cutset_binding": cut_res.binding_term,
        # always False: bench/tracing.py reads it until ROADMAP item 1
        "cutset_product_candidate_used": False,
    }
    return RateReport(
        pdf_rate=pdf_res.rate, df_rate=df_res.rate, cutset_rate=cut_res.rate,
        degraded_capacity=degraded_value, revdeg_capacity=revdeg_value,
        direct_rate=direct_value, per_tone=per_tone, flags=flags)


@dataclass
class SweepResult:
    """Aggregated sweep: per bound, the mean and standard error of the
    rate at every axis value.  means and stderrs share their keys and hold
    one value per axis value; standard errors are finite and >= 0.
    samples keeps the raw (points, trials) values behind the aggregates;
    the sweeps always fill it."""

    axis_name: str
    axis_values: np.ndarray
    means: dict
    stderrs: dict
    trials: int
    samples: dict | None = None

    def __post_init__(self) -> None:
        self.axis_values = np.asarray(self.axis_values, dtype=float)
        n = self.axis_values.size
        for name, arr in list(self.means.items()):
            self.means[name] = np.asarray(arr, dtype=float)
            if self.means[name].shape != (n,):
                raise ValueError(f"means[{name!r}] must have shape ({n},)")
        if set(self.stderrs) != set(self.means):
            raise ValueError(f"stderrs must have the keys of means, "
                             f"{sorted(self.means)!r}, got {sorted(self.stderrs)!r}")
        for name, arr in list(self.stderrs.items()):
            self.stderrs[name] = np.asarray(arr, dtype=float)
            if self.stderrs[name].shape != (n,):
                raise ValueError(f"stderrs[{name!r}] must have shape ({n},)")
            if not np.all(np.isfinite(self.stderrs[name]) & (self.stderrs[name] >= 0)):
                raise ValueError(f"stderrs[{name!r}] must be finite and >= 0")

    def write_csv(self, rate_unit: str = "bits_per_sample",
                  scale: float = 1.0) -> str:
        """Render as axis_value,bound,mean,stderr,trials rows."""
        lines = [f"{self.axis_name},bound,mean_{rate_unit},stderr,trials"]
        for i, x in enumerate(self.axis_values):
            for name in self.means:
                lines.append(
                    f"{float(x)!r},{name},{float(self.means[name][i] * scale)!r},"
                    f"{float(self.stderrs[name][i] * scale)!r},{self.trials}")
        return "\n".join(lines) + "\n"


def _aggregate(samples: np.ndarray):
    """samples: (points, trials) -> mean, stderr per point."""
    mean = samples.mean(axis=1)
    if samples.shape[1] > 1:
        stderr = samples.std(axis=1, ddof=1) / math.sqrt(samples.shape[1])
    else:
        stderr = np.zeros(samples.shape[0])
    return mean, stderr


def _sweep(config: ExperimentConfig, rho_values, cut_names, progress) -> SweepResult:
    """Distance sweep with one cut-set series per correlation value (named
    by cut_names) plus the correlation-independent pdf, df and direct
    series.  Each trial's fading is drawn once and placed at every relay
    position."""
    names = list(cut_names) + ["pdf", "df", "direct"]
    samples = {n: np.empty((len(config.d2_grid), config.trials)) for n in names}
    fadings = [draw_fading(config, trial) for trial in range(config.trials)]
    for i, d2 in enumerate(config.d2_grid):
        geometry = Geometry(config.d1, d2)
        for trial, fading in enumerate(fadings):
            _, _, pdf_res, df_res, cuts, direct_value = _solve_trial(
                config, geometry, trial, rho_values, fading)
            for name, cut_res in zip(cut_names, cuts):
                samples[name][i, trial] = cut_res.rate
            samples["pdf"][i, trial] = pdf_res.rate
            samples["df"][i, trial] = df_res.rate
            samples["direct"][i, trial] = direct_value
        if progress is not None:
            progress(i + 1, len(config.d2_grid))
    means, stderrs = {}, {}
    for n in names:
        means[n], stderrs[n] = _aggregate(samples[n])
    return SweepResult("source_relay_distance_m", np.asarray(config.d2_grid),
                       means, stderrs, config.trials, samples)


def sweep_distance(config: ExperimentConfig, progress=None) -> SweepResult:
    """Move the relay along the source-destination segment and average
    each bound over the trials.  The upper bound uses uncorrelated noises
    here; correlation effects are sweep_rho's job."""
    return _sweep(config, [0.0], ["cutset"], progress)


def sweep_rho(config: ExperimentConfig, progress=None) -> SweepResult:
    """Distance sweep with one cut-set curve per noise-correlation value.
    The achievable curves do not depend on the correlation and are
    computed once."""
    rho_list = list(config.rho_values)
    return _sweep(config, rho_list, [_cutset_label(rho) for rho in rho_list],
                  progress)
