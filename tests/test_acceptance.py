"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

The printed lines summarize the measured quantity against its tolerance;
run pytest with -rA (project default) to see them for passing tests too.
The Monte Carlo criteria share one 500-trial sweep fixture, so this module
takes several minutes; everything is seeded and deterministic.
"""

import math
import time

import numpy as np
import pytest

from conftest import model_draw_slices
from uwbrelay.cli import _channel_tables
from uwbrelay.experiments import (
    ExperimentConfig,
    Geometry,
    _place_link,
    build_instance,
    draw_fading,
    draw_links,
    powers_from_config,
    sweep_distance,
    sweep_rho,
)
from uwbrelay.optimizer import (
    OptimizerSettings,
    brute_force_oracle,
    optimize_cutset,
    optimize_degraded,
    optimize_pdf,
    oracle_suite,
    random_instance,
)
from uwbrelay.rates import (
    RelayChannelInstance,
    SplitParams,
    broadcast_cut_snr,
    cap,
    decode_cut_snr,
    degraded_capacity_rate,
    degraded_noise_correlation,
    joint_covariance_determinants,
    mac_excess_snr,
    mutual_information_terms,
    reversely_degraded_capacity,
    reversely_degraded_noise_correlation,
)
from uwbrelay.svchannel import (
    SVParameters,
    dft_response,
    discretize_taps,
    sample_impulse_response,
)


def _verdict(label: str, ok: bool, detail: str) -> None:
    print(f"{label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{label}: {detail}"


# sweep shared by the ordering / trend criteria: full trial count, smaller
# block and coarser split grid than the defaults (the criteria pin trials,
# grid points and tolerances; orderings and trends are grid-independent)
SWEEP_CONFIG = ExperimentConfig(
    block_size=128, trials=500,
    optimizer=OptimizerSettings(tone_grid_points=41))


@pytest.fixture(scope="module")
def rho_sweep():
    return sweep_rho(SWEEP_CONFIG)


def test_criterion_1_algebraic_identities():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    draws, batch = 100_000, 2_000
    worst_mi = worst_det = 0.0
    for _ in range(draws // batch):
        g_sd, g_sr = (rng.standard_normal((2, batch))
                      + 1j * rng.standard_normal((2, batch)))
        rc = rng.uniform(0, 1, batch) * np.exp(2j * math.pi * rng.uniform(size=batch))
        ac = rng.uniform(0, 1, batch) * np.exp(2j * math.pi * rng.uniform(size=batch))
        rho = rng.uniform(0, 0.9, batch) * np.exp(2j * math.pi * rng.uniform(size=batch))
        p = float(10.0 ** rng.uniform(-1, 1))
        n, n1 = (float(v) for v in 10.0 ** rng.uniform(-0.5, 0.5, size=2))

        dec = cap(decode_cut_snr(g_sd, g_sr, p, n, n1, rc, ac))
        split = SplitParams(np.abs(rc), np.abs(ac),
                            np.angle(np.sqrt(rc) * np.sqrt(ac)))
        mi = mutual_information_terms(g_sd, g_sr, g_sd, p, p, n, n1, split)
        worst_mi = max(worst_mi, float(np.max(np.abs(
            dec - (mi.auxiliary_at_relay + mi.fresh_at_dest)))))

        bc = cap(broadcast_cut_snr(g_sd, g_sr, p, n, n1, rc, ac, rho))
        recv, noise = joint_covariance_determinants(g_sd, g_sr, p, n, n1,
                                                    rc, ac, rho)
        worst_det = max(worst_det, float(np.max(np.abs(bc - np.log2(recv / noise)))))
    elapsed = time.perf_counter() - start
    ok = worst_mi <= 1e-10 and worst_det <= 1e-10 and elapsed < 10.0
    _verdict("criterion 1 (algebraic identities)", ok,
             f"decode-vs-MI-sum max |err| {worst_mi:.2e}, "
             f"broadcast-vs-det-ratio max |err| {worst_det:.2e} bits "
             f"on {draws} draws, tol 1e-10, {elapsed:.1f} s < 10 s")


def _degraded_instance(rng, block_size):
    """Random instance rescaled so the degrading noise correlation peaks
    at magnitude 0.95, then installed as the instance correlation."""
    inst, powers = random_instance(block_size, rng)
    raw, _ = degraded_noise_correlation(inst.g_sd, inst.g_sr,
                                        inst.n_dest, inst.n_relay)
    n_relay = inst.n_relay * (0.95 / float(np.max(np.abs(raw)))) ** 2
    rho, valid = degraded_noise_correlation(inst.g_sd, inst.g_sr,
                                            inst.n_dest, n_relay)
    assert bool(np.all(valid))
    return RelayChannelInstance(g_sd=inst.g_sd, g_sr=inst.g_sr, g_rd=inst.g_rd,
                                n_dest=inst.n_dest, n_relay=n_relay,
                                noise_corr=rho), powers


def _reversely_degraded_instance(rng, block_size):
    inst, powers = random_instance(block_size, rng)
    raw, _ = reversely_degraded_noise_correlation(inst.g_sd, inst.g_sr,
                                                  inst.n_dest, inst.n_relay)
    n_relay = inst.n_relay * (float(np.max(np.abs(raw))) / 0.95) ** 2
    rho, valid = reversely_degraded_noise_correlation(inst.g_sd, inst.g_sr,
                                                      inst.n_dest, n_relay)
    assert bool(np.all(valid))
    return RelayChannelInstance(g_sd=inst.g_sd, g_sr=inst.g_sr, g_rd=inst.g_rd,
                                n_dest=inst.n_dest, n_relay=n_relay,
                                noise_corr=rho), powers


def _model_degraded_coincidence():
    """On seeded block-128 draws of the model at four relay positions, the
    draws whose degraded noise correlation is valid on every tone, each
    installed at that correlation: (draws checked, worst relative gap of
    the cut-set to optimize_degraded and to degraded_capacity_rate)."""
    config = ExperimentConfig(block_size=128, trials=30, master_seed=9)
    powers, _, _ = powers_from_config(config)
    checked, worst = 0, 0.0
    for trial in range(config.trials):
        fading = draw_fading(config, trial)
        for d2 in (0.3, 0.8333333333, 1.1, 1.9):
            drawn = build_instance(config, Geometry(config.d1, d2), 0.0, trial,
                                   fading=fading)
            rho, valid = degraded_noise_correlation(drawn.g_sd, drawn.g_sr,
                                                    drawn.n_dest, drawn.n_relay)
            if not np.all(valid):
                continue
            instance = RelayChannelInstance(
                g_sd=drawn.g_sd, g_sr=drawn.g_sr, g_rd=drawn.g_rd,
                n_dest=drawn.n_dest, n_relay=drawn.n_relay, noise_corr=rho)
            upper = optimize_cutset(instance, powers).rate
            df = optimize_degraded(instance, powers)
            closed = degraded_capacity_rate(instance, powers, df.split.relay_mag,
                                            df.split.phase)
            worst = max(worst, abs(upper - df.rate) / df.rate,
                        abs(upper - closed) / closed)
            checked += 1
    return checked, worst


def _model_reversely_degraded_coincidence():
    """On seeded block-128 draws of the model with the relay 3, 6 and 12 m
    beyond the destination (source-relay link at d2, relay-destination link
    at d2 - d1), the draws whose reversely degraded noise correlation is
    valid on every tone, each installed at that correlation: (draws
    checked, worst relative gap of the cut-set and of pdf to
    reversely_degraded_capacity)."""
    config = ExperimentConfig(block_size=128, trials=30, master_seed=9)
    powers, n_dest, n_relay = powers_from_config(config)
    checked, worst = 0, 0.0
    for trial in range(config.trials):
        fading = draw_fading(config, trial)
        for beyond in (3.0, 6.0, 12.0):
            d2 = config.d1 + beyond
            distances = {"sd": config.d1, "sr": d2, "rd": d2 - config.d1}
            gains = {name: _place_link(config, taps, shadowing_db,
                                       distances[name])[1]
                     for name, taps, shadowing_db in fading.links}
            rho, valid = reversely_degraded_noise_correlation(
                gains["sd"], gains["sr"], n_dest, n_relay)
            if not np.all(valid):
                continue
            instance = RelayChannelInstance(
                g_sd=gains["sd"], g_sr=gains["sr"], g_rd=gains["rd"],
                n_dest=n_dest, n_relay=n_relay, noise_corr=rho)
            closed = reversely_degraded_capacity(instance, powers.p_src)
            for bound in (optimize_cutset, optimize_pdf):
                worst = max(worst, abs(bound(instance, powers).rate - closed) / closed)
            checked += 1
    return checked, worst


def test_criterion_2_degraded_capacity_coincidence():
    start = time.perf_counter()
    rng = np.random.default_rng(2002)
    worst = 0.0
    for _ in range(50):
        instance, powers = _degraded_instance(rng, 64)
        upper = optimize_cutset(instance, powers).rate
        lower = optimize_degraded(instance, powers).rate
        worst = max(worst, abs(upper - lower))
    model_checked, model_worst = _model_degraded_coincidence()
    elapsed = time.perf_counter() - start
    ok = (worst <= 2e-3 and model_checked >= 60 and model_worst <= 1e-12
          and elapsed < 300.0)
    _verdict("criterion 2 (degraded capacity coincidence)", ok,
             f"max |cutset - full-decode| {worst:.2e} bits over 50 instances "
             f"at 64 tones, tol 2e-3; {model_checked} of 120 block-128 model "
             f"draws degradable (need >= 60), on them max relative "
             f"|cutset - full-decode, degraded capacity| {model_worst:.1e}, "
             f"tol 1e-12; {elapsed:.1f} s < 300 s")


def test_criterion_3_reversely_degraded_capacity():
    rng = np.random.default_rng(3003)
    worst_gap = 0.0
    worst_aux = 0.0
    for _ in range(50):
        instance, powers = _reversely_degraded_instance(rng, 64)
        upper = optimize_cutset(instance, powers).rate
        closed_form = reversely_degraded_capacity(instance, powers.p_src)
        worst_gap = max(worst_gap, abs(upper - closed_form))
        pdf = optimize_pdf(instance, powers)
        worst_aux = max(worst_aux, float(np.max(pdf.split.aux_mag)))

    draws, batch = 1_000_000, 10_000
    violations = 0
    zeta_min = np.inf
    for _ in range(draws // batch):
        g_sd, g_rd = (rng.standard_normal((2, batch))
                      + 1j * rng.standard_normal((2, batch)))
        aux = rng.uniform(0, 1, batch) * np.exp(2j * math.pi * rng.uniform(size=batch))
        p1, p2 = (float(v) for v in 10.0 ** rng.uniform(-0.5, 1.0, size=2))
        n = float(10.0 ** rng.uniform(-0.5, 0.5))
        zeta = mac_excess_snr(g_sd, g_rd, p1, p2, n, aux)
        violations += int(np.count_nonzero(zeta < 0.0))
        zeta_min = min(zeta_min, float(zeta.min()))
    # sd > sr on every tone at the reversely degraded correlation, so the
    # pdf gain M is sd and F2(0) = mean log2(1 + sd) never exceeds
    # F1(0) = mean log2(1 + B): the lam = 0 solve, s = 0, is optimal and
    # maps to aux magnitude exactly 0
    model_checked, model_worst = _model_reversely_degraded_coincidence()
    ok = (worst_gap <= 2e-3 and worst_aux == 0.0 and violations == 0
          and model_checked >= 40 and model_worst <= 1e-12)
    _verdict("criterion 3 (reversely degraded capacity)", ok,
             f"max |cutset - direct closed form| {worst_gap:.2e} bits (tol 2e-3), "
             f"max optimal |aux| {worst_aux!r} (must be 0), "
             f"excess-SNR violations {violations}/{draws} (min {zeta_min:.2e}); "
             f"{model_checked} of 90 block-128 model draws with the relay "
             f"beyond the destination reversely degraded (need >= 40), on them "
             f"max relative |cutset, pdf - direct closed form| "
             f"{model_worst:.1e}, tol 1e-12")


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    rows = oracle_suite(k1_instances=50, k2_instances=20, resolution=1e-3,
                        seed=904)
    worst = max(rows, key=lambda r: r.deviation)
    elapsed = time.perf_counter() - start
    ok = worst.deviation <= 2e-3 and elapsed < 600.0
    _verdict("criterion 4 (optimizer matches exhaustive search)", ok,
             f"{len(rows)} comparisons, worst |optimizer - oracle| "
             f"{worst.deviation:.2e} bits ({worst.objective}, "
             f"{worst.block_size} tones), tol 2e-3, {elapsed:.1f} s < 600 s")


def test_criterion_4_on_model_draw_slices():
    # the sweeps' regime, sr/sd up to 10^6 near the source: one-tone slices
    # of block-128 draws at every default relay position, rho = 0.6
    optimizers = {"pdf": optimize_pdf, "cutset": optimize_cutset}
    deviations = {objective: [] for objective in optimizers}
    for instance, powers in model_draw_slices(rho=0.6):
        for objective, optimize in optimizers.items():
            deviations[objective].append(
                optimize(instance, powers).rate
                - brute_force_oracle(instance, powers, objective, 1e-3))
    worst = max(abs(d) for values in deviations.values() for d in values)
    _verdict("criterion 4 on model-draw slices", worst <= 2e-3,
             f"{len(model_draw_slices(rho=0.6))} one-tone slices, optimizer - "
             f"oracle in [{min(deviations['pdf']):.1e}, "
             f"{max(deviations['pdf']):.1e}] bits (pdf) and "
             f"[{min(deviations['cutset']):.1e}, "
             f"{max(deviations['cutset']):.1e}] bits (cutset), tol 2e-3")


def test_criterion_5_bound_ordering_every_trial(rho_sweep):
    worst_excess = -np.inf
    violations = 0
    total = 0
    for rho in SWEEP_CONFIG.rho_values:
        excess = rho_sweep.samples["pdf"] - rho_sweep.samples[f"cutset[rho={rho:g}]"]
        worst_excess = max(worst_excess, float(excess.max()))
        violations += int(np.count_nonzero(excess > 1e-9))
        total += excess.size
    ok = violations == 0
    _verdict("criterion 5 (achievable never exceeds upper bound)", ok,
             f"{violations}/{total} violations beyond 1e-9 over "
             f"{rho_sweep.trials} trials x {rho_sweep.axis_values.size} points "
             f"x {len(SWEEP_CONFIG.rho_values)} correlations, "
             f"worst excess {worst_excess:.2e} bits")


def test_criterion_6_partial_decode_gain_grows_toward_destination(rho_sweep):
    gap = rho_sweep.means["pdf"] - rho_sweep.means["df"]
    third = gap.size // 3
    first_third = float(gap[:third].mean())
    last_third = float(gap[-third:].mean())
    ok = (rho_sweep.trials >= 200 and gap.size == 10
          and bool(np.all(gap >= -1e-12)) and last_third > first_third)
    _verdict("criterion 6 (partial decode beats full decode, more so near "
             "the destination)", ok,
             f"min gap {float(gap.min()):.2e} bits, first-third mean "
             f"{first_third:.3f} vs last-third mean {last_third:.3f} "
             f"over {rho_sweep.trials} trials per point")


def test_criterion_7_noise_correlation_raises_upper_bound_only(rho_sweep):
    gap = rho_sweep.means["cutset[rho=0.9]"] - rho_sweep.means["cutset[rho=0]"]
    peak = int(np.argmax(gap))
    peak_gap = float(gap[peak])

    # the achievable side must not see the correlation at all: same fading
    # draw, different correlation, identical rate
    powers, _, _ = powers_from_config(SWEEP_CONFIG)
    spread = 0.0
    for trial in range(3):
        per_rho = [
            optimize_pdf(build_instance(SWEEP_CONFIG, Geometry(3.0, 1.9), rho,
                                        trial),
                         powers).rate
            for rho in SWEEP_CONFIG.rho_values]
        spread = max(spread, max(per_rho) - min(per_rho))
    ok = peak_gap > 0.0 and spread <= 1e-12
    _verdict("criterion 7 (correlation raises the upper bound, not the "
             "achievable rate)", ok,
             f"cutset rho=0.9 minus rho=0 peaks at {peak_gap:.3f} bits "
             f"(grid point {peak}), achievable-rate spread across rho "
             f"{spread:.2e} <= 1e-12")


def _seeded_artifacts():
    config = ExperimentConfig(block_size=32, trials=2, d2_grid=(1.0, 2.0),
                              rho_values=(0.0,), master_seed=55,
                              optimizer=OptimizerSettings(tone_grid_points=21,
                                                          refine_steps=2))
    links = draw_links(config, Geometry(config.d1, 1.0), 0)
    return (*_channel_tables(config, links).values(),
            sweep_distance(config).write_csv())


def test_criterion_8_channel_model_statistics():
    rng = np.random.default_rng(808)
    params = SVParameters()
    realizations = 10_000
    energies = np.empty(realizations)
    worst_parseval = 0.0
    for i in range(realizations):
        impulse = sample_impulse_response(params, rng)
        taps = discretize_taps(impulse, sample_period=2.0, max_taps=128)
        gains = dft_response(taps, 128)
        tone_mean = float(np.mean(np.abs(gains) ** 2))
        worst_parseval = max(worst_parseval,
                             abs(tone_mean - taps.energy) / taps.energy)
        energies[i] = taps.energy
    mean_energy = float(energies.mean())
    identical = _seeded_artifacts() == _seeded_artifacts()
    ok = (worst_parseval <= 1e-12 and abs(mean_energy - 1.0) <= 0.02
          and identical)
    _verdict("criterion 8 (channel model statistics)", ok,
             f"worst Parseval error {worst_parseval:.2e} (tol 1e-12), "
             f"ensemble tap energy {mean_energy:.4f} in 1 +/- 0.02 over "
             f"{realizations} draws, repeated seeded runs byte-identical: "
             f"{identical}")
