"""Closed-form rate expressions for the three-node relay channel.

Everything here is deterministic algebra on per-tone complex link gains.
The channel has a source-to-destination link (g_sd), a source-to-relay
link (g_sr) and a relay-to-destination link (g_rd), with destination and
relay noise powers n_dest / n_relay and a per-tone complex correlation
noise_corr between the two noises.

A coding split is a pair of per-tone complex correlation coefficients
inside the unit disc: relay_corr ties the auxiliary (cooperative) stream
to the relay's transmission, aux_corr ties the source's fresh stream to
the auxiliary one.  The fraction 1 - |relay_corr| (resp. 1 - |aux_corr|)
is the innovation left at each stage.  SplitParams holds a split in the
polar form the rates depend on: the magnitudes and one per-tone phase.
The decode and broadcast cuts get the exact magnitudes; the
multiple-access cut and the cooperative mutual information read only the
cross coefficient sqrt(relay_mag * aux_mag) * exp(j*phase)
(SplitParams.coefficient), which equals sqrt(relay_corr) * sqrt(aux_corr).

Rates are in bits per complex sample (log base 2); multiply by the system
bandwidth for bit/s.  Per-tone SNR helpers return raw values and never
clamp.

Validation happens once, at the boundary.  The public constructors
(RelayChannelInstance, SplitParams, PowerBudget) and the public SNR
helpers check every input; physically impossible ones raise
InvalidParameterError or ValueError.  What the program derives from
objects it already validated is not checked again: the split scorers
(pdf_rate, cutset_rate, degraded_capacity_rate) read the SNRs from the
unchecked cores behind the helpers, and an instance at another noise
correlation or an optimizer's result split is built by _unchecked.  Only
the broadcast cut's noise-correlation limit, which RelayChannelInstance
does not enforce, is checked again where the cut is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

LN2 = math.log(2.0)

# correlation magnitudes this close to 1 make the joint noise covariance
# numerically singular and are rejected by broadcast_cut_snr
NOISE_CORR_LIMIT = 1.0 - 1e-9

# slack allowed when validating unit-disc magnitudes that callers pass
# in before they are renormalized onto the disc
_UNIT_DISC_TOL = 1e-9


class InvalidParameterError(ValueError):
    """A parameter combination outside the physically meaningful domain."""


def _as_complex(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=complex))


def _as_float(x) -> np.ndarray:
    return np.atleast_1d(np.asarray(x, dtype=float))


def _check_disc(name: str, values: np.ndarray) -> np.ndarray:
    """Validate |values| <= 1 (with rounding slack) and pull any slightly
    overshooting magnitude back onto the disc boundary."""
    mags = np.abs(values)
    if np.any(mags > 1.0 + _UNIT_DISC_TOL):
        raise InvalidParameterError(
            f"{name} magnitude exceeds 1 (max {float(mags.max())!r})")
    over = mags > 1.0
    if np.any(over):
        values = values.copy()
        values[over] /= mags[over]
    return values


def _check_positive(**values) -> None:
    """Raise ValueError naming the first of the keyword values that is not
    finite and > 0 (nan, +-inf, 0 or negative)."""
    for name, value in values.items():
        if not (math.isfinite(value) and value > 0):
            raise ValueError(f"{name} must be finite and > 0, got {value!r}")


def cap(snr):
    """Gaussian capacity function log2(1 + snr); snr must be >= 0, not nan."""
    arr = _as_float(snr)
    if not np.all(arr >= 0):
        raise ValueError(f"cap() requires snr >= 0, got min {float(arr.min())!r}")
    out = np.log1p(arr) / LN2
    return float(out[0]) if np.isscalar(snr) or np.ndim(snr) == 0 else out


def _mac_snr(g_sd, g_rd, p_src, p_rel, n_dest, coeff) -> np.ndarray:
    """Multiple-access SNR at the cross coefficient coeff; no checks."""
    cross = 2.0 * math.sqrt(p_src * p_rel) * np.real(coeff * g_sd * np.conj(g_rd))
    return (np.abs(g_sd) ** 2 * p_src + np.abs(g_rd) ** 2 * p_rel + cross) / n_dest


def mac_cut_snr(g_sd, g_rd, p_src, p_rel, n_dest, relay_corr, aux_corr) -> np.ndarray:
    """Per-tone SNR across the multiple-access cut (source and relay
    transmitting coherently toward the destination) at the cross
    coefficient sqrt(relay_corr) * sqrt(aux_corr).

    Returns the raw value: the cross term carries the sign induced by the
    split phases, and no clamping is ever applied.  Values below -1 would
    make the capacity undefined and raise InvalidParameterError; they are
    unreachable for splits inside the unit disc.
    """
    _check_positive(p_src=p_src, p_rel=p_rel, n_dest=n_dest)
    relay_corr = _check_disc("relay_corr", _as_complex(relay_corr))
    aux_corr = _check_disc("aux_corr", _as_complex(aux_corr))
    snr = _mac_snr(_as_complex(g_sd), _as_complex(g_rd), p_src, p_rel, n_dest,
                   np.sqrt(relay_corr) * np.sqrt(aux_corr))
    if np.any(snr < -1.0):
        raise InvalidParameterError(
            f"multiple-access SNR below -1 (min {float(snr.min())!r}); "
            "split parameters are outside the valid domain")
    return snr


def _decode_snr(g_sd, g_sr, p_src, n_dest, n_relay, relay_mag, aux_mag) -> np.ndarray:
    """Decode-cut SNR at the split magnitudes; no checks."""
    relay_inno = 1.0 - relay_mag
    aux_inno = 1.0 - aux_mag
    sr_pow = np.abs(g_sr) ** 2 * p_src
    relay_term = 1.0 + sr_pow * relay_inno * aux_mag / (sr_pow * aux_inno + n_relay)
    dest_term = 1.0 + np.abs(g_sd) ** 2 * aux_inno * p_src / n_dest
    return relay_term * dest_term - 1.0


def decode_cut_snr(g_sd, g_sr, p_src, n_dest, n_relay, relay_corr, aux_corr) -> np.ndarray:
    """Per-tone effective SNR of the decode constraint of partial
    decode-and-forward: the relay decodes the auxiliary stream, the
    destination decodes the fresh remainder."""
    g_sd = _as_complex(g_sd)
    g_sr = _as_complex(g_sr)
    _check_positive(p_src=p_src, n_dest=n_dest, n_relay=n_relay)
    relay_mag = np.abs(_check_disc("relay_corr", _as_complex(relay_corr)))
    aux_mag = np.abs(_check_disc("aux_corr", _as_complex(aux_corr)))
    return _decode_snr(g_sd, g_sr, p_src, n_dest, n_relay, relay_mag, aux_mag)


def _check_noise_corr(noise_corr: np.ndarray) -> None:
    """Reject |noise_corr| >= NOISE_CORR_LIMIT, which makes the joint
    noise covariance of the broadcast cut singular."""
    rho_mag = np.abs(noise_corr)
    if np.any(rho_mag >= NOISE_CORR_LIMIT):
        raise InvalidParameterError(
            f"|noise_corr| must stay below {NOISE_CORR_LIMIT!r} "
            f"(max {float(rho_mag.max())!r})")


def _broadcast_snr(g_sd, g_sr, p_src, n_dest, n_relay, product, rho) -> np.ndarray:
    """Broadcast-cut SNR at the magnitude product relay_mag * aux_mag and
    noise correlation rho; no checks."""
    rho_mag = np.abs(rho)
    u = g_sd / math.sqrt(n_dest)
    v = g_sr / math.sqrt(n_relay)
    one_minus_sq = 1.0 - rho_mag ** 2
    # |u - conj(rho) v|^2 + (1 - |rho|^2)|v|^2 equals the textbook form
    # |u|^2 + |v|^2 - 2 Re{u conj(v) rho} but is nonnegative term by term,
    # so rounding can never push the SNR below zero
    quad = np.abs(u - np.conj(rho) * v) ** 2 + one_minus_sq * np.abs(v) ** 2
    return p_src * (1.0 - product) * quad / one_minus_sq


def broadcast_cut_snr(g_sd, g_sr, p_src, n_dest, n_relay, relay_corr, aux_corr,
                      noise_corr) -> np.ndarray:
    """Per-tone SNR across the broadcast cut (destination and relay
    jointly observing the source) under correlated receiver noises.

    |noise_corr| at or beyond 1 - 1e-9 makes the joint noise covariance
    singular and is rejected.
    """
    g_sd = _as_complex(g_sd)
    g_sr = _as_complex(g_sr)
    _check_positive(p_src=p_src, n_dest=n_dest, n_relay=n_relay)
    rho = _as_complex(noise_corr)
    _check_noise_corr(rho)
    relay_mag = np.abs(_check_disc("relay_corr", _as_complex(relay_corr)))
    aux_mag = np.abs(_check_disc("aux_corr", _as_complex(aux_corr)))
    return _broadcast_snr(g_sd, g_sr, p_src, n_dest, n_relay, relay_mag * aux_mag, rho)


def mac_excess_snr(g_sd, g_rd, p_src, p_rel, n_dest, aux_corr) -> np.ndarray:
    """Per-tone excess of the multiple-access cut over the broadcast cut
    under the reversely degraded noise correlation, expressed as an
    equivalent SNR.  Nonnegative for any aux_corr in the unit disc, which
    is what makes the reversely degraded capacity a pure direct-link rate.
    """
    g_sd = _as_complex(g_sd)
    g_rd = _as_complex(g_rd)
    _check_positive(p_src=p_src, p_rel=p_rel, n_dest=n_dest)
    aux = _check_disc("aux_corr", _as_complex(aux_corr))
    aux_mag = np.abs(aux)
    # the numerator |g_sd|^2 |aux| p_src + |g_rd|^2 p_rel + cross term is a
    # completed square; computing it as one guarantees it never rounds
    # below zero however sharply the two transmissions cancel
    num = np.abs(math.sqrt(p_src) * np.sqrt(aux) * g_sd
                 + math.sqrt(p_rel) * g_rd) ** 2
    den = n_dest + np.abs(g_sd) ** 2 * (1.0 - aux_mag) * p_src
    return num / den


@dataclass
class MutualInformationTerms:
    """Per-tone diagnostics of the four coding-stage mutual informations,
    in bits per sample."""

    cooperative_at_dest: np.ndarray   # relay codeword seen at the destination
    auxiliary_at_relay: np.ndarray    # auxiliary stream decoded at the relay
    auxiliary_at_dest: np.ndarray     # auxiliary stream seen directly at the destination
    fresh_at_dest: np.ndarray         # fresh remainder decoded at the destination


def mutual_information_terms(g_sd, g_sr, g_rd, p_src, p_rel, n_dest, n_relay,
                             split: SplitParams) -> MutualInformationTerms:
    """Evaluate the four per-tone mutual informations behind the partial
    decode-and-forward rate at a split; only the cooperative term reads
    its phase."""
    g_sd = _as_complex(g_sd)
    g_sr = _as_complex(g_sr)
    g_rd = _as_complex(g_rd)
    _check_positive(p_src=p_src, p_rel=p_rel, n_dest=n_dest, n_relay=n_relay)
    aux_mag = split.aux_mag
    relay_inno = 1.0 - split.relay_mag
    aux_inno = 1.0 - aux_mag

    coherent = np.abs(g_sd * split.coefficient * math.sqrt(p_src)
                      + g_rd * math.sqrt(p_rel)) ** 2
    self_noise = np.abs(g_sd) ** 2 * p_src * (relay_inno * aux_mag + aux_inno)
    cooperative = np.log1p(coherent / (self_noise + n_dest)) / LN2

    sr_pow = np.abs(g_sr) ** 2 * p_src
    aux_relay = np.log1p(sr_pow * relay_inno * aux_mag / (sr_pow * aux_inno + n_relay)) / LN2
    sd_pow = np.abs(g_sd) ** 2 * p_src
    aux_dest = np.log1p(sd_pow * relay_inno * aux_mag / (sd_pow * aux_inno + n_dest)) / LN2
    fresh = np.log1p(sd_pow * aux_inno / n_dest) / LN2
    return MutualInformationTerms(cooperative, aux_relay, aux_dest, fresh)


def joint_covariance_determinants(g_sd, g_sr, p_src, n_dest, n_relay,
                                  relay_corr, aux_corr, noise_corr):
    """Determinants of the joint received covariance (destination + relay
    observations given the relay codeword) and of the bare noise
    covariance.  Their log-ratio equals cap(broadcast_cut_snr)."""
    g_sd = _as_complex(g_sd)
    g_sr = _as_complex(g_sr)
    _check_positive(p_src=p_src, n_dest=n_dest, n_relay=n_relay)
    rho = _as_complex(noise_corr)
    rho_mag = np.abs(rho)
    if np.any(rho_mag > 1.0 + _UNIT_DISC_TOL):
        raise InvalidParameterError("|noise_corr| must be <= 1")
    relay_mag = np.abs(_check_disc("relay_corr", _as_complex(relay_corr)))
    aux_mag = np.abs(_check_disc("aux_corr", _as_complex(aux_corr)))
    product = relay_mag * aux_mag
    noise_det = n_dest * n_relay * (1.0 - rho_mag ** 2)
    quad = (np.abs(g_sd) ** 2 / n_dest + np.abs(g_sr) ** 2 / n_relay
            - 2.0 * np.real(g_sd * np.conj(g_sr) * rho) / math.sqrt(n_dest * n_relay))
    received_det = noise_det + p_src * n_dest * n_relay * (1.0 - product) * quad
    return received_det, noise_det


def degraded_noise_correlation(g_sd, g_sr, n_dest, n_relay):
    """Noise correlation that makes the destination a degraded version of
    the relay: conj(g_sd / g_sr) * sqrt(n_relay / n_dest).

    Returns (correlation, valid) where valid marks tones with magnitude
    <= 1; the caller must check it before using the value.  Any zero g_sr
    is rejected (the construction divides by it).
    """
    g_sd = _as_complex(g_sd)
    g_sr = _as_complex(g_sr)
    _check_positive(n_dest=n_dest, n_relay=n_relay)
    if np.any(g_sr == 0):
        raise ValueError("g_sr has a zero tone; degraded correlation undefined")
    rho = np.conj(g_sd / g_sr) * math.sqrt(n_relay / n_dest)
    return rho, np.abs(rho) <= 1.0


def reversely_degraded_noise_correlation(g_sd, g_sr, n_dest, n_relay):
    """Noise correlation that makes the relay a degraded version of the
    destination: (g_sr / g_sd) * sqrt(n_dest / n_relay).  Returns
    (correlation, valid) like degraded_noise_correlation; zero g_sd is
    rejected."""
    g_sd = _as_complex(g_sd)
    g_sr = _as_complex(g_sr)
    _check_positive(n_dest=n_dest, n_relay=n_relay)
    if np.any(g_sd == 0):
        raise ValueError("g_sd has a zero tone; reversely degraded correlation undefined")
    rho = (g_sr / g_sd) * math.sqrt(n_dest / n_relay)
    return rho, np.abs(rho) <= 1.0


@dataclass
class PowerBudget:
    """Average transmit powers in watts."""

    p_src: float
    p_rel: float

    def __post_init__(self) -> None:
        _check_positive(p_src=self.p_src, p_rel=self.p_rel)


@dataclass
class RelayChannelInstance:
    """One frozen fading draw: per-tone gains of the three links, the two
    receiver noise powers and the per-tone noise correlation."""

    g_sd: np.ndarray
    g_sr: np.ndarray
    g_rd: np.ndarray
    n_dest: float
    n_relay: float
    noise_corr: np.ndarray

    def __post_init__(self) -> None:
        self.g_sd = _as_complex(self.g_sd)
        self.g_sr = _as_complex(self.g_sr)
        self.g_rd = _as_complex(self.g_rd)
        self.noise_corr = _as_complex(self.noise_corr)
        k = self.g_sd.size
        for name in ("g_sr", "g_rd", "noise_corr"):
            if getattr(self, name).size != k:
                raise ValueError(f"{name} must have {k} tones like g_sd")
        for name in ("g_sd", "g_sr", "g_rd", "noise_corr"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        _check_positive(n_dest=self.n_dest, n_relay=self.n_relay)
        if np.any(np.abs(self.noise_corr) > 1.0 + _UNIT_DISC_TOL):
            raise ValueError("|noise_corr| must be <= 1 on every tone")

    @property
    def block_size(self) -> int:
        return int(self.g_sd.size)


@dataclass
class SplitParams:
    """Per-tone coding split in polar form: magnitudes relay_mag, aux_mag
    in [0, 1] and the cross-coefficient phase (see module docstring).
    Scoring reads coefficient; relay_corr, aux_corr are read-only views."""

    relay_mag: np.ndarray
    aux_mag: np.ndarray
    phase: np.ndarray

    def __post_init__(self) -> None:
        for name in ("relay_mag", "aux_mag", "phase"):
            value = getattr(self, name)
            # numpy would drop a complex value's imaginary part with a warning
            if np.iscomplexobj(value) or not np.all(np.isfinite(value)):
                raise InvalidParameterError(f"{name} must be real and finite")
            setattr(self, name, np.atleast_1d(np.array(value, dtype=float)))
        for name in ("relay_mag", "aux_mag"):
            mags = getattr(self, name)
            if not np.all((mags >= 0.0) & (mags <= 1.0 + _UNIT_DISC_TOL)):
                raise InvalidParameterError(f"{name} must lie in [0, 1]")
            setattr(self, name, np.minimum(mags, 1.0))
        if not self.relay_mag.size == self.aux_mag.size == self.phase.size:
            raise ValueError("relay_mag, aux_mag and phase must have equal length")

    @property
    def coefficient(self) -> np.ndarray:
        """Cross coefficient sqrt(relay_mag * aux_mag) * exp(j*phase)."""
        return np.sqrt(self.relay_mag * self.aux_mag) * np.exp(1j * self.phase)

    @property
    def relay_corr(self) -> np.ndarray:
        """relay_mag * exp(j*phase)."""
        return self.relay_mag * np.exp(1j * self.phase)

    @property
    def aux_corr(self) -> np.ndarray:
        """aux_mag * exp(j*phase)."""
        return self.aux_mag * np.exp(1j * self.phase)


def _unchecked(cls, **values):
    """A RelayChannelInstance or SplitParams holding values, built without
    its checks.  Only for objects derived from already validated ones:
    values must already have the form the checks would give them (arrays
    of the block length, complex gains and noise correlation, float64
    magnitudes in [0, 1] and phase)."""
    obj = object.__new__(cls)
    vars(obj).update(values)
    return obj


@dataclass
class RateReport:
    """Scalar bound values for one channel instance, in bits per sample,
    plus optional per-tone diagnostics."""

    pdf_rate: float
    df_rate: float
    cutset_rate: float
    degraded_capacity: float
    revdeg_capacity: float
    direct_rate: float
    per_tone: dict = field(default_factory=dict)
    flags: dict = field(default_factory=dict)

    _FIELDS = ("pdf_rate", "df_rate", "cutset_rate", "degraded_capacity",
               "revdeg_capacity", "direct_rate")

    def __post_init__(self) -> None:
        for name in self._FIELDS:
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"RateReport.{name} must be finite and >= 0, got {value!r}")
        if self.pdf_rate > self.cutset_rate + 1e-9:
            raise ValueError(
                f"achievable rate {self.pdf_rate!r} exceeds the upper bound "
                f"{self.cutset_rate!r}; the instance or splits are inconsistent")

    def rows(self):
        return [(name, getattr(self, name)) for name in self._FIELDS]


def _mean_bits(snr: np.ndarray) -> float:
    """Tone mean of log2(1 + snr): np.mean(cap(snr)) bit for bit, without
    cap's check; np.add.reduce(x) / x.size is what np.mean computes, here
    divided as a Python float."""
    bits = np.log1p(snr) / LN2
    return float(np.add.reduce(bits)) / bits.size


def _min_of_means(instance: RelayChannelInstance, powers: PowerBudget,
                  split: SplitParams, second_cut_snr) -> float:
    """The worse of the tone-averaged multiple-access term and the term of
    the per-tone SNR second_cut_snr() returns."""
    if split.relay_mag.size != instance.block_size:
        raise ValueError("split length must match the instance block size")
    mac = _mac_snr(instance.g_sd, instance.g_rd, powers.p_src, powers.p_rel,
                   instance.n_dest, split.coefficient)
    return float(min(_mean_bits(mac), _mean_bits(second_cut_snr())))


def pdf_rate(instance: RelayChannelInstance, powers: PowerBudget,
             split: SplitParams) -> float:
    """Partial decode-and-forward rate at a fixed split: the worse of the
    tone-averaged multiple-access and decode terms."""
    return _min_of_means(instance, powers, split, lambda: _decode_snr(
        instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
        instance.n_relay, split.relay_mag, split.aux_mag))


def cutset_rate(instance: RelayChannelInstance, powers: PowerBudget,
                split: SplitParams) -> float:
    """Max-flow min-cut upper bound at a fixed split: the worse of the
    tone-averaged multiple-access and broadcast terms.  The instance's
    |noise_corr| must stay below NOISE_CORR_LIMIT."""
    _check_noise_corr(instance.noise_corr)
    return _min_of_means(instance, powers, split, lambda: _broadcast_snr(
        instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
        instance.n_relay, split.relay_mag * split.aux_mag, instance.noise_corr))


def degraded_capacity_rate(instance: RelayChannelInstance, powers: PowerBudget,
                           relay_mag, phase) -> float:
    """Capacity expression of the degraded channel at a cooperative
    coefficient (relay_mag, phase as in SplitParams) with full decode at
    the relay (aux_mag 1): the decode term is the source-relay innovation."""
    split = SplitParams(relay_mag, np.ones(np.size(relay_mag)), phase)
    return _min_of_means(instance, powers, split, lambda: (
        np.abs(instance.g_sr) ** 2 * (1.0 - split.relay_mag)
        * powers.p_src / instance.n_relay))


def reversely_degraded_capacity(instance: RelayChannelInstance, p_src: float) -> float:
    """Capacity of the reversely degraded channel: the relay is useless and
    the rate is the plain direct-link average."""
    return direct_rate(instance.g_sd, p_src, instance.n_dest)


def direct_rate(g_sd, p_src: float, n_dest: float) -> float:
    """Tone-averaged rate of the direct link alone."""
    _check_positive(p_src=p_src, n_dest=n_dest)
    return float(np.mean(np.log1p(np.abs(_as_complex(g_sd)) ** 2 * p_src / n_dest) / LN2))
