"""Clustered-multipath UWB channel generation.

The model is a simplified Saleh-Valenzuela generator in the 802.15.4a
style: cluster arrivals form a Poisson process, rays inside each cluster
form another Poisson process, and mean path power decays exponentially in
both the cluster delay and the ray delay.  Path gains are complex with
Rayleigh magnitude and uniform phase, and every realization is scaled to
unit total energy before pathloss is applied.

The continuous profile is then binned into baseband taps on a uniform
sample grid, scaled by a log-distance pathloss law with optional
log-normal shadowing, and transformed with an unnormalized forward DFT
into the array of per-tone complex gains that the rate expressions read.
The shadowing draw (draw_shadowing_db) and the distance scaling
(scale_pathloss) are separate steps, so one small-scale draw can be
placed at several distances; apply_pathloss does both.

The module only computes draws; the `channel` command (cli) renders a
draw's taps and tones as CSV.

All delays are in nanoseconds, all distances in meters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


class DegenerateChannelError(ValueError):
    """Raised for an impulse response without paths or without energy."""


class TruncatedChannelWarning(UserWarning):
    """A link draw dropped path energy beyond the last tap of the block."""

    def __init__(self, link: str, share: float, max_taps: int):
        super().__init__(f"link {link} dropped {100.0 * share:.3g}% of its path "
                         f"energy beyond {max_taps} taps")
        self.link = link
        self.share = share


@dataclass(frozen=True)
class SVParameters:
    """Cluster/ray arrival and decay parameters.

    cluster_arrival_rate and ray_arrival_rate are in 1/ns, the decay
    constants in ns.  mean_cluster_count is the mean of the Poisson draw
    for the number of clusters (at least one cluster is always kept).
    Paths beyond max_delay are discarded.

    Defaults approximate a residential non-line-of-sight environment.
    """

    cluster_arrival_rate: float = 0.12
    ray_arrival_rate: float = 0.25
    cluster_decay: float = 26.27
    ray_decay: float = 17.5
    mean_cluster_count: float = 3.5
    max_delay: float = 200.0

    def __post_init__(self) -> None:
        for name in ("cluster_arrival_rate", "ray_arrival_rate",
                     "cluster_decay", "ray_decay", "max_delay"):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and math.isfinite(value) and value > 0):
                raise ValueError(f"SVParameters.{name} must be finite and > 0, got {value!r}")
        if not (math.isfinite(self.mean_cluster_count) and self.mean_cluster_count >= 1):
            raise ValueError(
                f"SVParameters.mean_cluster_count must be >= 1, got {self.mean_cluster_count!r}")


@dataclass(frozen=True)
class PathlossParameters:
    """Log-distance pathloss: ref_loss_db at ref_distance, slope
    10*exponent dB per decade, plus Normal(0, shadowing_sigma_db^2) dB of
    shadowing per realization."""

    ref_loss_db: float = 48.7
    ref_distance: float = 1.0
    exponent: float = 4.58
    shadowing_sigma_db: float = 3.51

    def __post_init__(self) -> None:
        if not (math.isfinite(self.ref_distance) and self.ref_distance > 0):
            raise ValueError(f"ref_distance must be > 0, got {self.ref_distance!r}")
        if not (math.isfinite(self.exponent) and self.exponent > 0):
            raise ValueError(f"exponent must be > 0, got {self.exponent!r}")
        if not (math.isfinite(self.shadowing_sigma_db) and self.shadowing_sigma_db >= 0):
            raise ValueError(
                f"shadowing_sigma_db must be >= 0, got {self.shadowing_sigma_db!r}")
        if not math.isfinite(self.ref_loss_db):
            raise ValueError(f"ref_loss_db must be finite, got {self.ref_loss_db!r}")


@dataclass
class ContinuousImpulse:
    """Continuous-delay path list: parallel arrays of delay (ns) and
    complex gain, sorted by delay, unit total energy at generation."""

    delays: np.ndarray
    gains: np.ndarray

    def __post_init__(self) -> None:
        self.delays = np.asarray(self.delays, dtype=float)
        self.gains = np.asarray(self.gains, dtype=complex)
        if self.delays.ndim != 1 or self.delays.shape != self.gains.shape:
            raise ValueError("delays and gains must be 1-D arrays of equal length")
        if self.delays.size == 0:
            raise DegenerateChannelError("impulse response has no paths")
        if not np.all(np.isfinite(self.delays)) or np.any(self.delays < 0):
            raise ValueError("path delays must be finite and >= 0")
        if not np.all(np.isfinite(self.gains)):
            raise ValueError("path gains must be finite")

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.gains) ** 2))


@dataclass
class ChannelTaps:
    """Uniformly sampled baseband taps; length is the occupied span, i.e.
    one past the last nonzero bin (at least 1).  dropped_share is the share
    of the path energy that fell beyond the last allowed tap."""

    taps: np.ndarray
    dropped_share: float = 0.0

    def __post_init__(self) -> None:
        self.taps = np.asarray(self.taps, dtype=complex)
        if self.taps.ndim != 1 or self.taps.size < 1:
            raise ValueError("taps must be a nonempty 1-D array")
        if not np.all(np.isfinite(self.taps)):
            raise ValueError("taps must be finite")

    @property
    def energy(self) -> float:
        return float(np.sum(np.abs(self.taps) ** 2))


def sample_impulse_response(params: SVParameters, rng: np.random.Generator) -> ContinuousImpulse:
    """Draw one continuous multipath profile.

    The first cluster arrives at delay 0 and the number of clusters is
    Poisson(mean_cluster_count) resampled until at least 1.  Inter-cluster
    gaps are Exponential(1/cluster_arrival_rate).  Each cluster carries a
    deterministic first ray at relative delay 0 plus a Poisson process of
    extra rays realized over the remaining window.  Mean path power decays
    as exp(-T/cluster_decay) * exp(-tau/ray_decay); magnitudes are Rayleigh
    around those means and phases uniform on [0, 2pi).  The realization is
    scaled to unit total energy.

    Deterministic for a fixed rng state.
    """
    n_clusters = 0
    while n_clusters == 0:
        n_clusters = int(rng.poisson(params.mean_cluster_count))
    # a size-0 draw leaves the generator's state as it was, so one path
    # covers single clusters and clusters without extra rays
    gaps = rng.exponential(1.0 / params.cluster_arrival_rate, size=n_clusters - 1)
    cluster_times = np.concatenate(([0.0], np.cumsum(gaps)))
    cluster_times = cluster_times[cluster_times <= params.max_delay]

    delays = []
    mean_powers = []
    for t_cluster in cluster_times:
        window = params.max_delay - t_cluster
        n_extra = int(rng.poisson(params.ray_arrival_rate * window))
        extra = np.sort(rng.uniform(0.0, window, size=n_extra))
        ray_delays = np.concatenate(([0.0], extra))
        delays.append(t_cluster + ray_delays)
        mean_powers.append(
            math.exp(-t_cluster / params.cluster_decay)
            * np.exp(-ray_delays / params.ray_decay))

    delays = np.concatenate(delays)
    mean_powers = np.concatenate(mean_powers)

    magnitudes = rng.rayleigh(scale=np.sqrt(mean_powers / 2.0))
    phases = rng.uniform(0.0, 2.0 * math.pi, size=delays.size)
    gains = magnitudes * np.exp(1j * phases)

    total = np.sum(magnitudes ** 2)
    if total <= 0.0:
        raise DegenerateChannelError("all path gains vanished; cannot normalize")
    gains = gains / math.sqrt(total)

    order = np.argsort(delays, kind="stable")
    return ContinuousImpulse(delays[order], gains[order])


def discretize_taps(impulse: ContinuousImpulse, sample_period: float,
                    max_taps: int) -> ChannelTaps:
    """Bin path gains into uniform taps: every path adds its gain to bin
    floor(delay / sample_period); paths landing at or beyond max_taps are
    dropped and their share of the path energy is recorded.  The result is
    trimmed one past the last nonzero bin."""
    if not (math.isfinite(sample_period) and sample_period > 0):
        raise ValueError(f"sample_period must be > 0, got {sample_period!r}")
    if max_taps < 1:
        raise ValueError(f"max_taps must be >= 1, got {max_taps!r}")
    bins = np.floor(impulse.delays / sample_period).astype(int)
    keep = bins < max_taps
    taps = np.zeros(max_taps, dtype=complex)
    np.add.at(taps, bins[keep], impulse.gains[keep])
    nonzero = np.nonzero(taps)[0]
    span = int(nonzero[-1]) + 1 if nonzero.size else 1
    total = impulse.energy
    dropped = float(np.sum(np.abs(impulse.gains[~keep]) ** 2))
    dropped = dropped / total if total > 0 else 0.0
    # a copy, so a held draw does not keep all max_taps bins alive
    return ChannelTaps(taps[:span].copy(), dropped)


def draw_shadowing_db(params: PathlossParameters, rng: np.random.Generator) -> float:
    """One Normal(0, shadowing_sigma_db^2) shadowing draw in dB.  It is
    drawn even at sigma 0, so toggling shadowing leaves later draws of
    the stream aligned."""
    return float(rng.normal(0.0, params.shadowing_sigma_db))


def scale_pathloss(taps: ChannelTaps, distance: float, params: PathlossParameters,
                   shadowing_db: float) -> ChannelTaps:
    """Scale taps by the amplitude of the log-distance loss at distance
    plus shadowing_db of shadowing; returns a new ChannelTaps.  A loss whose
    amplitude overflows or is not finite raises ValueError."""
    if not (math.isfinite(distance) and distance > 0):
        raise ValueError(f"distance must be > 0, got {distance!r}")
    loss_db = (params.ref_loss_db
               + 10.0 * params.exponent * math.log10(distance / params.ref_distance)
               + shadowing_db)
    try:
        scale = 10.0 ** (-loss_db / 20.0)
    except OverflowError:
        scale = math.inf
    if not math.isfinite(scale):
        raise ValueError(f"pathloss of {loss_db} dB at {distance} m "
                         "overflows the tap amplitude")
    return ChannelTaps(taps.taps * scale, taps.dropped_share)


def apply_pathloss(taps: ChannelTaps, distance: float, params: PathlossParameters,
                   rng: np.random.Generator) -> ChannelTaps:
    """Scale taps by the amplitude of the log-distance loss with one
    shadowing draw; returns a new ChannelTaps."""
    return scale_pathloss(taps, distance, params, draw_shadowing_db(params, rng))


def dft_response(taps: ChannelTaps, block_size: int) -> np.ndarray:
    """Per-tone complex gains of the link: the unnormalized forward DFT of
    the taps over block_size tones, G_i = sum_k g_k exp(-j 2 pi i k / block_size).

    block_size must cover the occupied tap span so the block sees the
    whole response (no circular truncation).
    """
    span = taps.taps.size
    if block_size < span:
        raise ValueError(
            f"block_size ({block_size}) must be >= occupied tap span ({span})")
    return np.fft.fft(taps.taps, n=block_size)

