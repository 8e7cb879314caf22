"""Rate algebra: frozen hand values, exact identities, domain guards."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_instance
from uwbrelay import rates
from uwbrelay.optimizer import optimize_cutset
from uwbrelay.rates import (
    NOISE_CORR_LIMIT,
    InvalidParameterError,
    PowerBudget,
    RateReport,
    RelayChannelInstance,
    SplitParams,
    broadcast_cut_snr,
    cap,
    cutset_rate,
    decode_cut_snr,
    degraded_capacity_rate,
    degraded_noise_correlation,
    direct_rate,
    joint_covariance_determinants,
    mac_cut_snr,
    mac_excess_snr,
    mutual_information_terms,
    pdf_rate,
    reversely_degraded_capacity,
    reversely_degraded_noise_correlation,
)


def test_cap_values():
    assert cap(3.0) == 2.0
    assert cap(0.0) == 0.0
    assert cap(1.0) == 1.0
    out = cap(np.array([0.0, 3.0]))
    assert np.array_equal(out, np.array([0.0, 2.0]))
    with pytest.raises(ValueError):
        cap(-0.1)
    for snr in (math.nan, np.array([0.0, math.nan])):
        with pytest.raises(ValueError):
            cap(snr)


def test_decode_cut_snr_hand_value():
    # relay term 1 + 0.25/1.5 = 7/6, fresh term 3/2, product - 1 = 3/4
    snr = decode_cut_snr(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5)
    assert snr[0] == pytest.approx(0.75, rel=1e-14)


def test_broadcast_cut_snr_hand_value():
    # product 1/4, uncorrelated noises: (1 - 1/4) * (1 + 1) = 3/2
    snr = broadcast_cut_snr(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.0)
    assert snr[0] == pytest.approx(1.5, rel=1e-14)


def test_mac_cut_snr_hand_value():
    snr = mac_cut_snr(1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert snr[0] == pytest.approx(4.0, rel=1e-14)
    assert cap(snr)[0] == pytest.approx(math.log2(5.0), rel=1e-14)


def test_mac_cross_term_keeps_split_phase():
    # both coefficients at phase 2pi/3 put the cross coefficient there
    # too, so the coherent term turns destructive: 1 + 1 - 2cos(pi/3)
    coeff = np.exp(2j * math.pi / 3)
    snr = mac_cut_snr(1.0, 1.0, 1.0, 1.0, 1.0, coeff, coeff)
    assert snr[0] == pytest.approx(1.0, rel=1e-12)


def test_mac_excess_snr_hand_value():
    zeta = mac_excess_snr(1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
    assert zeta[0] == pytest.approx(4.0, rel=1e-14)


def _random_tuples(rng, n):
    g_sd, g_sr = (rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n)))
    relay_corr = rng.uniform(0, 1, n) * np.exp(2j * math.pi * rng.uniform(size=n))
    aux_corr = rng.uniform(0, 1, n) * np.exp(2j * math.pi * rng.uniform(size=n))
    noise_corr = rng.uniform(0, 0.9, n) * np.exp(2j * math.pi * rng.uniform(size=n))
    p_src = float(10.0 ** rng.uniform(-1, 1))
    n_dest, n_relay = 10.0 ** rng.uniform(-0.5, 0.5, size=2)
    return g_sd, g_sr, relay_corr, aux_corr, noise_corr, p_src, float(n_dest), float(n_relay)


def test_identity_decode_equals_mi_sum():
    rng = np.random.default_rng(21)
    worst = 0.0
    for _ in range(20):
        g_sd, g_sr, rc, ac, _, p, n, n1 = _random_tuples(rng, 100)
        lhs = cap(decode_cut_snr(g_sd, g_sr, p, n, n1, rc, ac))
        split = SplitParams(np.abs(rc), np.abs(ac),
                            np.angle(np.sqrt(rc) * np.sqrt(ac)))
        mi = mutual_information_terms(g_sd, g_sr, g_sd, p, p, n, n1, split)
        rhs = mi.auxiliary_at_relay + mi.fresh_at_dest
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12


def test_identity_broadcast_equals_det_ratio():
    rng = np.random.default_rng(22)
    worst = 0.0
    for _ in range(20):
        g_sd, g_sr, rc, ac, rho, p, n, n1 = _random_tuples(rng, 100)
        lhs = cap(broadcast_cut_snr(g_sd, g_sr, p, n, n1, rc, ac, rho))
        recv, noise = joint_covariance_determinants(g_sd, g_sr, p, n, n1, rc, ac, rho)
        rhs = np.log2(recv / noise)
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst <= 1e-12


def test_broadcast_rejects_near_singular_noise_corr():
    with pytest.raises(InvalidParameterError):
        broadcast_cut_snr(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 1.0 - 1e-10)
    snr = broadcast_cut_snr(1.0, 1.0, 1.0, 1.0, 1.0, 0.5, 0.5, 0.999999)
    assert np.all(snr >= 0.0)


def test_unit_disc_overshoot_is_renormalized_or_rejected():
    split = SplitParams([1.0 + 5e-10], [0.5], [0.3])
    assert split.relay_mag[0] == 1.0
    assert abs(split.relay_corr[0]) == pytest.approx(1.0, rel=0, abs=1e-15)
    with pytest.raises(InvalidParameterError):
        SplitParams([1.0 + 1e-8], [0.5], [0.3])
    with pytest.raises(InvalidParameterError):
        SplitParams([0.5], [-1e-12], [0.3])
    # numpy would drop the imaginary part of a complex magnitude or phase
    with pytest.raises(InvalidParameterError):
        SplitParams(np.array([0.5 + 0.5j]), [0.5], [0.3])
    with pytest.raises(InvalidParameterError):
        SplitParams([0.5], [0.5], [0.3j])


def test_degraded_noise_correlation_value_and_flags():
    rho, valid = degraded_noise_correlation(1.0, 2.0, 1.0, 1.0)
    assert rho[0] == 0.5
    assert bool(valid[0])
    rho, valid = degraded_noise_correlation(2.0, 1.0, 1.0, 1.0)
    assert abs(rho[0]) == 2.0
    assert not bool(valid[0])


def test_degraded_correlation_defining_residual():
    # conj(rho) sqrt(n n1) must reproduce (g_sd / g_sr) n1 exactly: that is
    # the linear filter-and-add-noise relation behind the construction
    rng = np.random.default_rng(23)
    g_sd, g_sr = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
    n, n1 = 1.7, 0.4
    rho, _ = degraded_noise_correlation(g_sd, g_sr, n, n1)
    residual = np.conj(rho) * math.sqrt(n * n1) - (g_sd / g_sr) * n1
    assert float(np.max(np.abs(residual))) <= 1e-13


def test_reversely_degraded_correlation_defining_residual():
    rng = np.random.default_rng(24)
    g_sd, g_sr = rng.standard_normal((2, 50)) + 1j * rng.standard_normal((2, 50))
    n, n1 = 1.7, 0.4
    rho, _ = reversely_degraded_noise_correlation(g_sd, g_sr, n, n1)
    residual = rho * math.sqrt(n * n1) - (g_sr / g_sd) * n
    assert float(np.max(np.abs(residual))) <= 1e-13


def test_correlation_constructions_reject_zero_gains():
    with pytest.raises(ValueError):
        degraded_noise_correlation([1.0, 0.5], [1.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        reversely_degraded_noise_correlation([0.0, 0.5], [1.0, 1.0], 1.0, 1.0)


def test_degraded_capacity_hand_value():
    instance = make_instance(1.0, 2.0, 1.0)
    powers = PowerBudget(p_src=1.0, p_rel=1.0)
    value = degraded_capacity_rate(instance, powers, [0.0], [0.0])
    assert value == pytest.approx(math.log2(3.0), rel=1e-14)


def test_degraded_capacity_equals_pdf_at_full_decode():
    rng = np.random.default_rng(25)
    k = 8
    for _ in range(100):
        g = rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))
        instance = make_instance(g[0], g[1], g[2],
                                 n_dest=float(10.0 ** rng.uniform(-0.5, 0.5)),
                                 n_relay=float(10.0 ** rng.uniform(-0.5, 0.5)))
        powers = PowerBudget(p_src=float(10.0 ** rng.uniform(-0.5, 1.0)),
                             p_rel=float(10.0 ** rng.uniform(-0.5, 1.0)))
        mag = rng.uniform(0, 1, k)
        phase = 2.0 * math.pi * rng.uniform(size=k) - math.pi
        via_closed_form = degraded_capacity_rate(instance, powers, mag, phase)
        via_split = pdf_rate(instance, powers, SplitParams(mag, np.ones(k), phase))
        assert via_split == pytest.approx(via_closed_form, abs=1e-12)


def _scaled_correlated_instance(rng, k, construction):
    """Random instance whose n_relay is rescaled so the chosen noise
    correlation construction peaks at magnitude 0.95."""
    g = (rng.standard_normal((3, k)) + 1j * rng.standard_normal((3, k))) / math.sqrt(2)
    n_dest = float(10.0 ** rng.uniform(-0.5, 0.5))
    n_relay = float(10.0 ** rng.uniform(-0.5, 0.5))
    raw, _ = construction(g[0], g[1], n_dest, n_relay)
    peak = float(np.max(np.abs(raw)))
    if construction is degraded_noise_correlation:
        n_relay *= (0.95 / peak) ** 2  # correlation grows with sqrt(n_relay)
    else:
        n_relay *= (peak / 0.95) ** 2  # correlation shrinks with sqrt(n_relay)
    rho, valid = construction(g[0], g[1], n_dest, n_relay)
    assert bool(np.all(valid))
    return make_instance(g[0], g[1], g[2], n_dest=n_dest, n_relay=n_relay,
                         noise_corr=rho)


def test_broadcast_at_degraded_rho_is_relay_link_innovation():
    rng = np.random.default_rng(26)
    for _ in range(20):
        inst = _scaled_correlated_instance(rng, 6, degraded_noise_correlation)
        t = rng.uniform(0, 1, 6)
        snr = broadcast_cut_snr(inst.g_sd, inst.g_sr, 2.0, inst.n_dest,
                                inst.n_relay, t, np.ones(6), inst.noise_corr)
        expected = (1.0 - t) * np.abs(inst.g_sr) ** 2 * 2.0 / inst.n_relay
        assert np.allclose(snr, expected, rtol=1e-9, atol=1e-12)


def test_broadcast_at_reversely_degraded_rho_is_direct_link():
    rng = np.random.default_rng(27)
    for _ in range(20):
        inst = _scaled_correlated_instance(rng, 6,
                                           reversely_degraded_noise_correlation)
        t = rng.uniform(0, 1, 6)
        snr = broadcast_cut_snr(inst.g_sd, inst.g_sr, 2.0, inst.n_dest,
                                inst.n_relay, t, np.ones(6), inst.noise_corr)
        expected = (1.0 - t) * np.abs(inst.g_sd) ** 2 * 2.0 / inst.n_dest
        assert np.allclose(snr, expected, rtol=1e-9, atol=1e-12)


def test_decode_never_exceeds_broadcast_pointwise():
    # the joint observation across the broadcast cut dominates what the
    # decode constraint extracts, for any split and noise correlation
    rng = np.random.default_rng(28)
    worst = -np.inf
    for _ in range(50):
        g_sd, g_sr, rc, ac, rho, p, n, n1 = _random_tuples(rng, 100)
        dec = cap(decode_cut_snr(g_sd, g_sr, p, n, n1, rc, ac))
        bc = cap(broadcast_cut_snr(g_sd, g_sr, p, n, n1, rc, ac, rho))
        worst = max(worst, float(np.max(dec - bc)))
    assert worst <= 1e-9


@settings(max_examples=200, deadline=None)
@given(
    sd_re=st.floats(-10, 10), sd_im=st.floats(-10, 10),
    rd_re=st.floats(-10, 10), rd_im=st.floats(-10, 10),
    p_src=st.floats(1e-3, 1e3), p_rel=st.floats(1e-3, 1e3),
    n_dest=st.floats(1e-3, 1e3),
    aux_mag=st.floats(0.0, 1.0), aux_phase=st.floats(0.0, 2.0 * math.pi),
)
def test_mac_excess_snr_never_negative(sd_re, sd_im, rd_re, rd_im, p_src,
                                       p_rel, n_dest, aux_mag, aux_phase):
    aux = aux_mag * complex(math.cos(aux_phase), math.sin(aux_phase))
    zeta = mac_excess_snr(complex(sd_re, sd_im), complex(rd_re, rd_im),
                          p_src, p_rel, n_dest, aux)
    assert zeta[0] >= 0.0


# every public helper that takes powers or noise powers, called with
# valid defaults; each keyword is one of them
POSITIVE_ARG_HELPERS = {
    "mac_cut_snr": lambda p_src=1.0, p_rel=1.0, n_dest=1.0: mac_cut_snr(
        1.0, 1.0, p_src, p_rel, n_dest, 0.5, 0.5),
    "decode_cut_snr": lambda p_src=1.0, n_dest=1.0, n_relay=1.0: decode_cut_snr(
        1.0, 1.0, p_src, n_dest, n_relay, 0.5, 0.5),
    "broadcast_cut_snr": lambda p_src=1.0, n_dest=1.0, n_relay=1.0: broadcast_cut_snr(
        1.0, 1.0, p_src, n_dest, n_relay, 0.5, 0.5, 0.3),
    "mac_excess_snr": lambda p_src=1.0, p_rel=1.0, n_dest=1.0: mac_excess_snr(
        1.0, 1.0, p_src, p_rel, n_dest, 0.5),
    "mutual_information_terms":
        lambda p_src=1.0, p_rel=1.0, n_dest=1.0, n_relay=1.0: mutual_information_terms(
            1.0, 1.0, 1.0, p_src, p_rel, n_dest, n_relay,
            SplitParams([0.5], [0.5], [0.0])),
    "joint_covariance_determinants":
        lambda p_src=1.0, n_dest=1.0, n_relay=1.0: joint_covariance_determinants(
            1.0, 1.0, p_src, n_dest, n_relay, 0.5, 0.5, 0.3),
    "degraded_noise_correlation": lambda n_dest=1.0, n_relay=1.0:
        degraded_noise_correlation(1.0, 1.0, n_dest, n_relay),
    "reversely_degraded_noise_correlation": lambda n_dest=1.0, n_relay=1.0:
        reversely_degraded_noise_correlation(1.0, 1.0, n_dest, n_relay),
    "direct_rate": lambda p_src=1.0, n_dest=1.0: direct_rate(1.0, p_src, n_dest),
}


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, -1.0])
@pytest.mark.parametrize("name", sorted(POSITIVE_ARG_HELPERS))
def test_helpers_reject_powers_that_are_not_finite_and_positive(name, bad):
    helper = POSITIVE_ARG_HELPERS[name]
    helper()
    for param in inspect.signature(helper).parameters:
        with pytest.raises(ValueError, match=f"{param} must be finite and > 0"):
            helper(**{param: bad})


def test_power_budget_defaults_and_validation():
    with pytest.raises(ValueError):
        PowerBudget(p_src=0.0, p_rel=1.0)
    with pytest.raises(ValueError):
        PowerBudget(p_src=1.0, p_rel=-1.0)


def test_rate_report_orders_and_validates():
    report = RateReport(pdf_rate=1.0, df_rate=0.9, cutset_rate=1.2,
                        degraded_capacity=0.9, revdeg_capacity=0.5,
                        direct_rate=0.4)
    assert [name for name, _ in report.rows()] == [
        "pdf_rate", "df_rate", "cutset_rate", "degraded_capacity",
        "revdeg_capacity", "direct_rate"]
    with pytest.raises(ValueError):
        RateReport(pdf_rate=1.3, df_rate=0.9, cutset_rate=1.2,
                   degraded_capacity=0.9, revdeg_capacity=0.5, direct_rate=0.4)
    with pytest.raises(ValueError):
        RateReport(pdf_rate=-0.1, df_rate=0.9, cutset_rate=1.2,
                   degraded_capacity=0.9, revdeg_capacity=0.5, direct_rate=0.4)


def test_instance_validation():
    with pytest.raises(ValueError):
        make_instance([1.0, 2.0], [1.0], [1.0, 2.0])
    with pytest.raises(ValueError):
        make_instance(1.0, 1.0, 1.0, n_dest=0.0)
    with pytest.raises(ValueError):
        RelayChannelInstance(g_sd=[1.0], g_sr=[1.0], g_rd=[1.0],
                             n_dest=1.0, n_relay=1.0, noise_corr=[1.5])
    assert make_instance([1.0, 2.0], [1.0, 1.0], [1.0, 2.0]).block_size == 2


def _edge_split(rng, n):
    """Random polar split whose magnitudes include exactly 0 and 1 and
    whose phases span [-3pi, 3pi], the branch cut at +-pi included."""
    edges = [0.0, 1.0, 0.0, 1.0]
    relay_mag = rng.permutation(np.r_[edges, rng.uniform(0, 1, n - 4)])
    aux_mag = rng.permutation(np.r_[edges, rng.uniform(0, 1, n - 4)])
    phase = rng.permutation(np.r_[-3, -1, 1, 3, rng.uniform(-3, 3, n - 4)] * math.pi)
    return SplitParams(relay_mag, aux_mag, phase)


def test_polar_scoring_matches_the_complex_split():
    rng = np.random.default_rng(31)
    p_src, p_rel, n_dest, n_relay = 1.3, 0.7, 0.8, 1.2
    powers = PowerBudget(p_src=p_src, p_rel=p_rel)
    for _ in range(20):
        g_sd, g_sr, g_rd = rng.standard_normal((3, 32)) + 1j * rng.standard_normal((3, 32))
        rho = rng.uniform(0, 0.9, 32) * np.exp(2j * math.pi * rng.uniform(size=32))
        instance = make_instance(g_sd, g_sr, g_rd, n_dest, n_relay, rho)
        split = _edge_split(rng, 32)
        rc, ac = split.relay_corr, split.aux_corr
        assert split.coefficient == pytest.approx(np.sqrt(rc) * np.sqrt(ac), rel=1e-12)
        mac = np.mean(cap(mac_cut_snr(g_sd, g_rd, p_src, p_rel, n_dest, rc, ac)))
        dec = np.mean(cap(decode_cut_snr(g_sd, g_sr, p_src, n_dest, n_relay, rc, ac)))
        bc = np.mean(cap(broadcast_cut_snr(g_sd, g_sr, p_src, n_dest, n_relay,
                                           rc, ac, rho)))
        assert pdf_rate(instance, powers, split) == pytest.approx(min(mac, dec), rel=1e-12)
        assert cutset_rate(instance, powers, split) == pytest.approx(min(mac, bc),
                                                                     rel=1e-12)


def test_rates_reject_split_length_mismatch():
    instance = make_instance([1.0, 2.0], [1.0, 1.0], [1.0, 2.0])
    powers = PowerBudget(p_src=1.0, p_rel=1.0)
    for n in (1, 3):
        split = SplitParams(np.full(n, 0.5), np.full(n, 0.5), np.zeros(n))
        with pytest.raises(ValueError, match="split length"):
            pdf_rate(instance, powers, split)
        with pytest.raises(ValueError, match="split length"):
            cutset_rate(instance, powers, split)
        with pytest.raises(ValueError, match="split length"):
            degraded_capacity_rate(instance, powers, np.full(n, 0.5), np.zeros(n))


def test_cutset_scoring_rejects_noise_corr_at_the_limit():
    # RelayChannelInstance admits |noise_corr| <= 1, the broadcast cut
    # only below NOISE_CORR_LIMIT: scoring must check it again
    powers = PowerBudget(p_src=1.0, p_rel=1.0)
    split = SplitParams([0.5, 0.5], [0.5, 0.5], [0.0, 0.0])
    for rho in (NOISE_CORR_LIMIT, -NOISE_CORR_LIMIT, 1j * NOISE_CORR_LIMIT, 1.0):
        instance = make_instance([1.0, 2.0], [1.0, 1.0], [1.0, 2.0],
                                 noise_corr=[0.0, rho])
        with pytest.raises(InvalidParameterError, match="noise_corr"):
            cutset_rate(instance, powers, split)
        with pytest.raises(InvalidParameterError, match="noise_corr"):
            optimize_cutset(instance, powers)
        # the decode-and-forward bounds do not read the correlation
        assert math.isfinite(pdf_rate(instance, powers, split))
    below = make_instance([1.0, 2.0], [1.0, 1.0], [1.0, 2.0],
                          noise_corr=[0.0, 0.999999])
    assert math.isfinite(cutset_rate(below, powers, split))


def _scoring_case(seed, tones):
    """Random instance, powers and split with exact 0 and 1 magnitudes."""
    rng = np.random.default_rng(seed)
    g_sd, g_sr, g_rd = (rng.standard_normal((3, tones))
                        + 1j * rng.standard_normal((3, tones)))
    rho = rng.uniform(0, 0.99, tones) * np.exp(2j * math.pi * rng.uniform(size=tones))
    n_dest, n_relay, p_src, p_rel = 10.0 ** rng.uniform(-1, 1, size=4)
    instance = make_instance(g_sd, g_sr, g_rd, n_dest, n_relay, rho)
    mags = rng.choice([0.0, 1.0, 0.5], size=(2, tones)) * rng.uniform(0.5, 1, (2, tones))
    mags[rng.uniform(size=(2, tones)) < 0.3] = 1.0
    split = SplitParams(mags[0], mags[1], rng.uniform(-math.pi, math.pi, tones))
    return instance, PowerBudget(p_src=float(p_src), p_rel=float(p_rel)), split


SCORING = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@SCORING
@given(seed=st.integers(0, 2**32 - 1), tones=st.integers(1, 40))
def test_scoring_cores_equal_their_checked_wrappers(seed, tones):
    instance, powers, split = _scoring_case(seed, tones)
    args = (instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
            instance.n_relay)
    assert np.array_equal(
        rates._decode_snr(*args, split.relay_mag, split.aux_mag),
        decode_cut_snr(*args, split.relay_mag, split.aux_mag))
    assert np.array_equal(
        rates._broadcast_snr(*args, split.relay_mag * split.aux_mag,
                             instance.noise_corr),
        broadcast_cut_snr(*args, split.relay_mag, split.aux_mag,
                          instance.noise_corr))
    # the scorers equal the checked composition np.mean(cap(...)) bit for bit
    mac = np.mean(cap(rates._mac_snr(instance.g_sd, instance.g_rd, powers.p_src,
                                     powers.p_rel, instance.n_dest,
                                     split.coefficient)))
    dec = np.mean(cap(decode_cut_snr(*args, split.relay_mag, split.aux_mag)))
    bc = np.mean(cap(broadcast_cut_snr(*args, split.relay_mag, split.aux_mag,
                                       instance.noise_corr)))
    assert pdf_rate(instance, powers, split) == float(min(mac, dec))
    assert cutset_rate(instance, powers, split) == float(min(mac, bc))


def test_reversely_degraded_capacity_is_direct_rate():
    instance = make_instance([1.0, 0.5j, 2.0], [0.1, 0.2, 0.1], [1.0, 1.0, 1.0],
                             n_dest=0.7)
    assert reversely_degraded_capacity(instance, 2.0) == direct_rate(
        instance.g_sd, 2.0, 0.7)
    # K = 1 sanity: unit gain and power at unit noise gives exactly 1 bit
    one = make_instance(1.0, 0.1, 1.0)
    assert reversely_degraded_capacity(one, 1.0) == 1.0


def test_mutual_information_terms_shapes():
    mi = mutual_information_terms(np.ones(4), np.ones(4), np.ones(4),
                                  1.0, 1.0, 1.0, 1.0,
                                  SplitParams(np.full(4, 0.5), np.full(4, 0.5),
                                              np.zeros(4)))
    for arr in (mi.cooperative_at_dest, mi.auxiliary_at_relay,
                mi.auxiliary_at_dest, mi.fresh_at_dest):
        assert arr.shape == (4,)
        assert np.all(arr >= 0.0)
