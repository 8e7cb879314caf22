"""Split optimizers against frozen values and exhaustive search."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import make_instance, model_draw_slices
from uwbrelay import optimizer, rates
from uwbrelay.experiments import (ExperimentConfig, Geometry, build_instance,
                                  powers_from_config, run_trial)
from uwbrelay.optimizer import (
    OptimizerSettings,
    OracleComparison,
    align_phases,
    aligned_split,
    brute_force_oracle,
    optimize_cutset,
    optimize_degraded,
    optimize_pdf,
    oracle_suite,
    random_instance,
)
from uwbrelay.rates import PowerBudget, RelayChannelInstance

# frozen reference solutions; oracle values are grid-exhaustive at
# resolution 1e-3, optimizer values come from the exact solve
K1_INSTANCE = dict(g_sd=[1.0], g_sr=[2.0], g_rd=[1.5],
                   n_dest=1.0, n_relay=1.0, noise_corr=[0.4 + 0.3j])
K1_POWERS = PowerBudget(p_src=2.0, p_rel=1.0)
K1_PDF_RATE = 2.8559864987851236
K1_PDF_ORACLE = 2.8559846905528374
K1_CUTSET_ORACLE = 2.907467174187037
K1_CUTSET_RATE = 2.9078709167796437

K2_SEED = 314
K2_PDF_ORACLE = 1.0270013733815198
K2_PDF_RATE = 1.0270013733815198
K2_CUTSET_RATE = 1.1341674705271545


def k2_instance():
    rng = np.random.default_rng(K2_SEED)
    g = (rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))) / math.sqrt(2)
    instance = make_instance(g[0], g[1], g[2], n_dest=0.8, n_relay=1.1,
                             noise_corr=[0.2 + 0.1j, -0.5 + 0.2j])
    return instance, PowerBudget(p_src=3.0, p_rel=2.0)


def test_align_phases_maximizes_coherent_term():
    rng = np.random.default_rng(31)
    for _ in range(20):
        instance, powers = random_instance(5, rng)
        snr = rates.mac_cut_snr(instance.g_sd, instance.g_rd, powers.p_src,
                                powers.p_rel, instance.n_dest,
                                *_split_arrays(instance, 1.0, 1.0))
        envelope = (np.abs(instance.g_sd) * math.sqrt(powers.p_src)
                    + np.abs(instance.g_rd) * math.sqrt(powers.p_rel)) ** 2
        assert np.allclose(snr, envelope / instance.n_dest, rtol=1e-12)


def _split_arrays(instance, relay_mag, aux_mag):
    split = aligned_split(instance, relay_mag, aux_mag)
    return split.relay_corr, split.aux_corr


def test_aligned_split_shapes_and_guards():
    instance = make_instance([1.0, 2.0], [1.0, 1.0], [1.0, 1.0j])
    split = aligned_split(instance, 0.25, [0.5, 1.0])
    assert split.relay_corr.shape == (2,)
    # the polar split keeps the magnitudes and the aligned phase exactly
    assert np.all(split.relay_mag == 0.25)
    assert np.array_equal(split.aux_mag, [0.5, 1.0])
    assert np.array_equal(split.phase, align_phases(instance))
    # the derived coefficients are mag * exp(j*theta) to an ulp
    rotor = np.exp(1j * align_phases(instance))
    ulp = np.finfo(float).eps
    assert np.all(np.abs(split.relay_corr - 0.25 * rotor) <= 0.25 * ulp)
    assert np.all(np.abs(split.aux_corr - [0.5, 1.0] * rotor) <= ulp)
    with pytest.raises(ValueError):
        aligned_split(instance, -0.1, 0.5)
    # numpy would keep only the real part of a complex magnitude
    with pytest.raises(ValueError):
        aligned_split(instance, 0.5 + 0.1j, 0.5)


def test_single_tone_golden_values():
    instance = make_instance(**K1_INSTANCE)
    pdf = optimize_pdf(instance, K1_POWERS)
    cut = optimize_cutset(instance, K1_POWERS)
    assert pdf.rate == pytest.approx(K1_PDF_RATE, abs=1e-9)
    assert cut.rate == pytest.approx(K1_CUTSET_RATE, abs=1e-9)
    assert brute_force_oracle(instance, K1_POWERS, "pdf") == pytest.approx(
        K1_PDF_ORACLE, abs=1e-9)
    assert brute_force_oracle(instance, K1_POWERS, "cutset") == pytest.approx(
        K1_CUTSET_ORACLE, abs=1e-9)
    assert abs(cut.rate - K1_CUTSET_ORACLE) <= 2e-3
    assert pdf.converged and cut.converged
    assert pdf.binding_term == "both"
    assert pdf.iterations > 0
    assert len(pdf.lambda_trace) >= 2
    # the reported rate is the rates-module evaluation of the reported split
    assert rates.pdf_rate(instance, K1_POWERS, pdf.split) == pdf.rate
    assert rates.cutset_rate(instance, K1_POWERS, cut.split) == cut.rate


def test_two_tone_golden_values():
    instance, powers = k2_instance()
    pdf = optimize_pdf(instance, powers)
    cut = optimize_cutset(instance, powers)
    assert pdf.rate == pytest.approx(K2_PDF_RATE, abs=1e-9)
    assert cut.rate == pytest.approx(K2_CUTSET_RATE, abs=1e-9)
    assert brute_force_oracle(instance, powers, "pdf") == pytest.approx(
        K2_PDF_ORACLE, abs=1e-8)
    assert brute_force_oracle(instance, powers, "cutset") == pytest.approx(
        K2_CUTSET_RATE, abs=1e-8)
    assert abs(pdf.rate - K2_PDF_ORACLE) <= 2e-3


def test_pdf_dominates_full_decode():
    rng = np.random.default_rng(32)
    for _ in range(20):
        instance, powers = random_instance(4, rng)
        pdf = optimize_pdf(instance, powers)
        df = optimize_degraded(instance, powers)
        assert pdf.rate >= df.rate - 1e-12
        assert df.objective == "degraded"
        assert np.allclose(np.abs(df.split.aux_corr), 1.0)


def test_degraded_matches_dense_restricted_grid():
    rng = np.random.default_rng(33)
    axis = np.linspace(0.0, 1.0, 2001)
    for _ in range(10):
        instance, powers = random_instance(1, rng)
        best = -np.inf
        for a in axis:
            best = max(best, rates.pdf_rate(
                instance, powers, aligned_split(instance, a, 1.0)))
        result = optimize_degraded(instance, powers)
        assert result.rate == pytest.approx(best, abs=2e-3)


def test_useless_relay_link_degenerates_to_direct():
    instance = make_instance([1.0, 0.5j], [1e-6, 1e-6], [0.8, 1.2],
                             n_dest=0.9, n_relay=1.1)
    powers = PowerBudget(p_src=2.0, p_rel=1.0)
    result = optimize_pdf(instance, powers)
    assert result.rate == pytest.approx(
        rates.direct_rate(instance.g_sd, powers.p_src, instance.n_dest),
        rel=1e-9)
    assert float(np.max(np.abs(result.split.aux_corr))) <= 0.011


def test_cutset_split_has_equal_magnitudes():
    instance = make_instance(**K1_INSTANCE)
    result = optimize_cutset(instance, K1_POWERS)
    assert np.allclose(np.abs(result.split.relay_corr),
                       np.abs(result.split.aux_corr), rtol=0, atol=1e-15)


def test_brute_force_oracle_guards():
    instance = make_instance(np.ones(3), np.ones(3), np.ones(3))
    powers = PowerBudget(p_src=1.0, p_rel=1.0)
    with pytest.raises(ValueError):
        brute_force_oracle(instance, powers)
    one = make_instance(1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        brute_force_oracle(one, powers, "pdf", resolution=0.7)
    with pytest.raises(ValueError):
        brute_force_oracle(one, powers, "nope")
    # a step that does not divide [0, 1] is refused, not snapped to 1/3 or 0.5
    for resolution in (0.3, 0.4):
        with pytest.raises(ValueError, match="whole steps"):
            brute_force_oracle(one, powers, "pdf", resolution)
    for resolution in (1e-3, 1e-2, 0.05, 1 / 3, 0.5):
        assert brute_force_oracle(one, powers, "pdf", resolution) > 0.0


def _dense_oracle(instance, powers, resolution, objective="pdf"):
    """Reference oracle: both terms at every point of each tone's grid, over
    (a, b) for pdf and over t for the cut-set, and for two tones the
    minimum term of every pair of points, enumerated in row chunks."""
    steps = round(1.0 / resolution)
    axis = np.linspace(0.0, 1.0, steps + 1)
    a, b = axis[:, None], axis[None, :]
    tones = optimizer._tones(instance, powers)

    def terms(k):
        base, cross, sr, sd = (float(x[k]) for x in tones)
        if objective == "cutset":
            bc = float(optimizer._broadcast_gain(instance, powers)[k])
            return (np.log1p(base + cross * np.sqrt(axis)) / rates.LN2,
                    np.log1p(bc * (1.0 - axis)) / rates.LN2)
        first = np.log1p(base + cross * np.sqrt(a * b)) / rates.LN2
        second = (np.log1p(sr * (1.0 - a) * b / (sr * (1.0 - b) + 1.0))
                  + np.log1p(sd * (1.0 - b))) / rates.LN2
        return first.ravel(), second.ravel()

    u1, u2 = terms(0)
    if instance.block_size == 1:
        return float(np.max(np.minimum(u1, u2)))
    v1, v2 = terms(1)
    return max(float(np.max(np.minimum(0.5 * (u1[i:i + 256, None] + v1),
                                       0.5 * (u2[i:i + 256, None] + v2))))
               for i in range(0, u1.size, 256))


# (g_sd, g_sr, g_rd) of one tone: zero gains, no relay link (sr = 0), no
# direct link (sd = 0, C = 0), no relay-destination link (C = 0) and
# extreme gain ratios
DEGENERATE_TONES = [(0.0, 0.0, 0.0), (1.0, 0.0, 1.0), (0.0, 1.0, 1.0),
                    (1.0, 1.0, 0.0), (0.0, 0.0, 1.0), (2.0, 1e-8, 3.0),
                    (1e-4, 5e3, 1.0), (5e3, 1.0, 1e-4)]
DEGENERATE_POWERS = PowerBudget(p_src=2.0, p_rel=1.0)


def _degenerate_one_tone_instances():
    return [(make_instance(*g, noise_corr=[0.3]), DEGENERATE_POWERS)
            for g in DEGENERATE_TONES]


def _degenerate_two_tone_instances():
    """Every ordered pair of the degenerate tones."""
    return [(make_instance(*zip(g, h), noise_corr=[0.3, 0.3]), DEGENERATE_POWERS)
            for g in DEGENERATE_TONES for h in DEGENERATE_TONES]


def _scaled_gain_tones(count=30):
    """Random one-tone instances with each gain scaled by 10^-3 to 10^7,
    so sr, sd and the cross gain C range over about 20 decades."""
    rng = np.random.default_rng(48)
    cases = []
    for _ in range(count):
        instance, powers = random_instance(1, rng)
        scale = 10.0 ** rng.uniform(-3.0, 7.0, size=3)
        cases.append((replace(instance, g_sd=instance.g_sd * scale[0],
                              g_sr=instance.g_sr * scale[1],
                              g_rd=instance.g_rd * scale[2]), powers))
    return cases


@pytest.mark.parametrize("resolution", [1e-3, 1e-2, 0.05, 0.5])
def test_one_tone_oracle_equals_the_dense_grid(resolution):
    rng = np.random.default_rng(43)
    cases = [random_instance(1, rng) for _ in range(50)]
    cases += _degenerate_one_tone_instances()
    if resolution >= 1e-2:  # where the dense reference is cheap
        cases += _scaled_gain_tones() + list(model_draw_slices())
    for instance, powers in cases:
        assert (brute_force_oracle(instance, powers, "pdf", resolution)
                == _dense_oracle(instance, powers, resolution))


def _oracle_column_search(instance, powers, resolution, monkeypatch):
    """(terms, rows, cols, guess) that the one-tone pdf oracle hands to
    _column_crossings, and the value it returns."""
    calls = []
    search = optimizer._column_crossings

    def recording(terms, rows, cols, guess=None):
        calls.append((terms, rows, cols, guess))
        return search(terms, rows, cols, guess)

    with monkeypatch.context() as patch:
        patch.setattr(optimizer, "_column_crossings", recording)
        value = brute_force_oracle(instance, powers, "pdf", resolution)
    (call,) = calls
    return call, value


def test_a_wrong_crossing_guess_still_gives_the_exact_value(monkeypatch):
    # the guess only orders the probes: all zeros, all past the last row,
    # random and out-of-range guesses, and none, give the same value
    rng = np.random.default_rng(49)
    cases = ([random_instance(1, rng) for _ in range(10)]
             + _degenerate_one_tone_instances() + _scaled_gain_tones(10))
    for resolution in (1e-3, 1e-2, 0.5):
        for instance, powers in cases:
            (terms, rows, cols, guess), value = _oracle_column_search(
                instance, powers, resolution, monkeypatch)
            assert guess is not None and guess.shape == (cols,)
            wrong = [np.zeros(cols, dtype=np.intp), np.full(cols, rows),
                     rng.integers(0, rows + 1, size=cols),
                     rng.integers(-5 * rows, 5 * rows, size=cols), None]
            for bad in wrong:
                assert optimizer._column_crossings(terms, rows, cols, bad) == value
            if resolution >= 1e-2:
                assert value == _dense_oracle(instance, powers, resolution)


def test_the_crossing_guess_certifies_the_columns(monkeypatch):
    # a guess that holds costs one terms call, the two certifying rows of
    # every column; each bisection round would add one more
    rng = np.random.default_rng(43)
    calls = []
    search = optimizer._column_crossings

    def counting(terms, rows, cols, guess=None):
        def counted(*args):
            calls[-1] += 1
            return terms(*args)
        calls.append(0)
        return search(counted, rows, cols, guess)

    monkeypatch.setattr(optimizer, "_column_crossings", counting)
    for _ in range(50):
        brute_force_oracle(*random_instance(1, rng), "pdf", 1e-3)
    assert len(calls) == 50
    assert sum(count == 1 for count in calls) >= 48, calls


def test_two_tone_oracle_equals_the_dense_grid():
    # the column-crossing pair search against literally enumerating every
    # pair of grid points, up to 1681^2 = 2.8 M pairs a pdf instance
    rng = np.random.default_rng(44)
    cases = [random_instance(2, rng) for _ in range(3)] + [k2_instance()]
    zeros = make_instance([1.0, 0.0], [0.0, 2.0], [1.5, 0.0])
    cases += [(zeros, K1_POWERS)] + _degenerate_two_tone_instances()
    for resolution in (0.05, 1 / 30, 0.025):
        for instance, powers in cases:
            for objective in ("pdf", "cutset"):
                assert (brute_force_oracle(instance, powers, objective, resolution)
                        == _dense_oracle(instance, powers, resolution, objective))


@pytest.mark.parametrize("stride", [1, 3, 8])
def test_grid_frontier_is_the_frontier_of_the_whole_cloud(stride):
    # bit for bit, order included: on pdf term grids and on integer grids,
    # whose many ties in both terms test the strict comparisons
    rng = np.random.default_rng(46)
    clouds = [rng.integers(0, 12, size=(2, 40, 40)).astype(float) for _ in range(5)]
    axis = np.linspace(0.0, 1.0, 101)
    a, b = axis[:, None], axis[None, :]
    for instance, powers in [random_instance(2, rng) for _ in range(3)] + [k2_instance()]:
        for base, cross, sr, sd in zip(*optimizer._tones(instance, powers)):
            first = np.log1p(base + cross * np.sqrt(a * b)) / rates.LN2
            second = (np.log1p(sr * (1.0 - a) * b / (sr * (1.0 - b) + 1.0))
                      + np.log1p(sd * (1.0 - b))) / rates.LN2
            clouds.append((first, second))
    for first, second in clouds:
        whole = optimizer._frontier(first.ravel(), second.ravel())
        pruned = optimizer._grid_frontier(first, second, stride)
        assert [x.tobytes() for x in pruned] == [x.tobytes() for x in whole]


def test_one_tone_oracle_allocates_no_grid():
    # the dense 1001 x 1001 grid peaked at about 23 MB
    instance, powers = random_instance(1, np.random.default_rng(45))
    tracemalloc.start()
    try:
        brute_force_oracle(instance, powers, "pdf", 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_two_tone_oracle_equals_pair_enumeration():
    # the oracle's closed forms against the rates module's cuts, at every
    # pair of per-tone grid points: (a, b) for pdf, (sqrt(t), sqrt(t)) for
    # the cut-set
    instance, powers = k2_instance()
    resolution = 0.05
    axis = np.linspace(0.0, 1.0, round(1.0 / resolution) + 1)
    grid = np.stack(np.meshgrid(axis, axis, indexing="ij"), axis=-1).reshape(-1, 2)
    rotor = np.exp(1j * align_phases(instance))

    def tone_tables(tone, objective):
        relay, aux = ((grid[:, 0], grid[:, 1]) if objective == "pdf"
                      else (np.sqrt(axis), np.sqrt(axis)))
        g_sd, g_sr, g_rd, rho = (np.full(relay.size, getattr(instance, name)[tone])
                                 for name in ("g_sd", "g_sr", "g_rd", "noise_corr"))
        rc, ac = relay * rotor[tone], aux * rotor[tone]
        mac = rates.cap(rates.mac_cut_snr(g_sd, g_rd, powers.p_src,
                                          powers.p_rel, instance.n_dest, rc, ac))
        if objective == "pdf":
            second = rates.decode_cut_snr(g_sd, g_sr, powers.p_src, instance.n_dest,
                                          instance.n_relay, rc, ac)
        else:
            second = rates.broadcast_cut_snr(g_sd, g_sr, powers.p_src,
                                             instance.n_dest, instance.n_relay,
                                             rc, ac, rho)
        return mac, rates.cap(second)

    for objective in ("pdf", "cutset"):
        u1, u2 = tone_tables(0, objective)
        v1, v2 = tone_tables(1, objective)
        pair_first = 0.5 * (u1[:, None] + v1[None, :])
        pair_second = 0.5 * (u2[:, None] + v2[None, :])
        enumerated = float(np.max(np.minimum(pair_first, pair_second)))
        oracle = brute_force_oracle(instance, powers, objective, resolution)
        assert oracle == pytest.approx(enumerated, abs=1e-12)


def test_two_tone_cutset_oracle_allocates_no_pair_grid():
    # the dense 1001 x 1001 pair grids took 8 MB each
    instance, powers = random_instance(2, np.random.default_rng(47))
    tracemalloc.start()
    try:
        brute_force_oracle(instance, powers, "cutset", 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


@pytest.mark.parametrize("objective", ["pdf", "cutset"])
@pytest.mark.parametrize("block", [1, 2])
def test_oracle_returns_a_python_float(block, objective):
    # a numpy scalar would print as np.float64(...) in oracle-check --verbose
    instance, powers = random_instance(block, np.random.default_rng(46))
    assert type(brute_force_oracle(instance, powers, objective, 1e-2)) is float


def test_oracle_suite_shape_and_determinism():
    rows_a = oracle_suite(2, 1, 1e-3, seed=5)
    rows_b = oracle_suite(2, 1, 1e-3, seed=5)
    assert rows_a == rows_b
    assert len(rows_a) == 6
    assert {(r.block_size, r.objective) for r in rows_a} == {
        (1, "pdf"), (1, "cutset"), (2, "pdf"), (2, "cutset")}
    for row in rows_a:
        assert isinstance(row, OracleComparison)
        assert row.deviation <= 2e-3


def test_optimizer_settings_validation():
    with pytest.raises(ValueError):
        OptimizerSettings(tone_grid_points=1)
    with pytest.raises(ValueError):
        OptimizerSettings(refine_steps=-1)


def _plateau(x):
    """0 on [0.7, 0.7001], rising on both sides."""
    if x < 0.7:
        return x - 0.7
    return max(0.0, 5.0 * (x - 0.7001))


# nondecreasing gaps on [0, 1] and the most probes each may take to a
# bracket width of 1e-9; halving alone takes 30
SYNTHETIC_GAPS = {
    "smooth": (lambda x: math.expm1(3.0 * x) - 2.0, 10),
    "smooth-flat-root": (lambda x: (x - 0.37) ** 3 + 0.01 * (x - 0.37), 14),
    # the shape of the weight search's gap when M is large: the root sits
    # 2^-13 below 1 and the gap rises like log(1/(1 - x)); halving toward
    # the starting end would take about 13 of the probes
    "log-shaped": (lambda x: -math.log2(1.0 - x + 1e-300) - 13.0, 11),
    # no slope at the root, so no step converges faster than linearly; the
    # halving safeguard keeps this one from crawling to the probe cap
    "flat-root": (lambda x: (x - 0.3) ** 3, 37),
    "kink-min": (lambda x: min(x - 0.3, 10.0 * (x - 0.3528)), 12),
    "kink-max": (lambda x: max(0.01 * (x - 0.7), 50.0 * (x - 0.7)), 36),
    "jump": (lambda x: -1.0 if x < 0.6180339887 else 1.0, 30),
    "plateau-at-0": (_plateau, 27),
    "exact-zero": (lambda x: x - 0.25, 1),
    # end values of -inf and +inf make the first secant step nan, so that
    # probe falls back to the midpoint
    "infinite-ends": (lambda x: x - 0.3 if 0.0 < x < 1.0
                      else math.copysign(math.inf, x - 0.3), 4),
}


@pytest.mark.parametrize("name", list(SYNTHETIC_GAPS))
def test_bracket_root_on_synthetic_gaps(name):
    gap, ceiling = SYNTHETIC_GAPS[name]
    probes = []

    def probe(x):
        probes.append(x)
        return gap(x)

    lo, hi, converged = optimizer._bracket_root(probe, 0.0, 1.0, gap(0.0),
                                                gap(1.0), 1e-9, 60)
    assert converged
    assert 0.0 <= lo < hi <= 1.0
    assert gap(lo) <= 0.0 < gap(hi)
    assert hi - lo <= 1e-9 or gap(lo) == 0.0
    assert {lo, hi} <= {0.0, 1.0, *probes}
    assert len(probes) <= ceiling
    if name in ("plateau-at-0", "exact-zero", "infinite-ends"):
        assert gap(lo) == 0.0  # the search stopped at the zero it hit


def test_bracket_root_probe_cap():
    gap = SYNTHETIC_GAPS["kink-max"][0]
    probes = []

    def probe(x):
        probes.append(x)
        return gap(x)

    lo, hi, converged = optimizer._bracket_root(probe, 0.0, 1.0, gap(0.0),
                                                gap(1.0), 1e-9, 3)
    assert not converged and len(probes) == 3
    assert gap(lo) <= 0.0 < gap(hi) and hi - lo > 1e-9


def test_probe_cap_reports_unconverged(monkeypatch):
    config = ExperimentConfig(block_size=16, trials=1)
    geometry = Geometry(config.d1, 0.3)
    instance = build_instance(config, geometry, 0.0, 0)
    powers = powers_from_config(config)[0]
    assert len(optimize_pdf(instance, powers).lambda_trace) > 5  # it brackets
    monkeypatch.setattr(optimizer, "_MAX_PROBES", 3)
    result = optimize_pdf(instance, powers)
    assert not result.converged
    assert len(result.lambda_trace) <= 5  # both ends and three probes
    assert not run_trial(config, geometry, 0.0, 0).flags["pdf_converged"]


def test_random_instance_ranges():
    rng = np.random.default_rng(34)
    instance, powers = random_instance(16, rng)
    assert instance.block_size == 16
    assert float(np.max(np.abs(instance.noise_corr))) <= 0.9
    assert 10.0 ** -0.5 <= instance.n_dest <= 10.0 ** 0.5
    assert 10.0 ** -0.5 <= powers.p_src <= 10.0


def _block128_instance():
    config = ExperimentConfig(block_size=128, trials=1)
    powers = powers_from_config(config)[0]
    return build_instance(config, Geometry(config.d1, 0.3), 0.6, 0), powers


def _zero_gain_instance():
    inst, powers = random_instance(16, np.random.default_rng(36))
    g_sd, g_sr, g_rd = inst.g_sd.copy(), inst.g_sr.copy(), inst.g_rd.copy()
    g_sr[::3] = 0.0
    g_rd[1::4] = 0.0
    g_sd[5] = g_sr[5] = g_rd[5] = 0.0  # every grid point ties on this tone
    return RelayChannelInstance(g_sd=g_sd, g_sr=g_sr, g_rd=g_rd,
                                n_dest=inst.n_dest, n_relay=inst.n_relay,
                                noise_corr=inst.noise_corr), powers


OPTIMIZERS = {"pdf": optimize_pdf, "df": optimize_degraded,
              "cutset": optimize_cutset}


@pytest.mark.parametrize("make", [_block128_instance, _zero_gain_instance])
def test_each_optimizer_solves_only_its_own_bound(make, monkeypatch):
    instance, powers = make()
    calls = []
    degraded = optimizer.optimize_degraded

    def counting_degraded(*args, **kwargs):
        calls.append(1)
        return degraded(*args, **kwargs)

    monkeypatch.setattr(optimizer, "optimize_degraded", counting_degraded)
    for name, optimize in OPTIMIZERS.items():
        result = optimize(instance, powers)
        assert result.iterations == len(result.lambda_trace) > 0, name
    # OPTIMIZERS["df"] is the unpatched function, so a counted call can
    # only come from pdf or the cut-set solving df on the side
    assert calls == []


def _certificate_cases():
    """Random 1-32-tone instances and block-128 draws near, midway to and
    far from the destination."""
    rng = np.random.default_rng(38)
    cases = [random_instance(int(rng.integers(1, 33)), rng) for _ in range(24)]
    config = ExperimentConfig(block_size=128, trials=1)
    powers = powers_from_config(config)[0]
    cases += [(build_instance(config, Geometry(config.d1, d2), 0.6, trial), powers)
              for trial in range(2) for d2 in (0.3, 1.9, 2.7)]
    return cases


CERTIFICATE_CASES = _certificate_cases()


def _one_dimensional(objective, instance, powers):
    """(B, C, M) of the objective's problem max_s min(F1, F2)."""
    tones = optimizer._tones(instance, powers)
    if objective == "cutset":
        gain = optimizer._broadcast_gain(instance, powers)
    elif objective == "df":
        gain = tones.sr
    else:
        gain = np.maximum(tones.sr, tones.sd)
    return tones.base, tones.cross, gain


@pytest.mark.parametrize("objective", sorted(OPTIMIZERS))
def test_weighted_root_is_a_stationary_point(objective):
    for instance, powers in CERTIFICATE_CASES:
        base, cross, gain = _one_dimensional(objective, instance, powers)
        trace = OPTIMIZERS[objective](instance, powers).lambda_trace
        for lam in [lam for lam, _, _ in trace] + list(np.linspace(0.0, 1.0, 11)):
            s = optimizer._weighted_maximizer(lam, 1.0 + base, cross, gain,
                                              1.0 + gain)
            # the slope of lam*F1 + (1 - lam)*F2 in s, times the positive
            # (1 + B + C*s)*(1 + M*(1 - s^2)), is const - lin*s - quad*s^2;
            # compared in the scale of its parts, since at high SNR one ulp
            # of s moves the slope itself far more than one ulp
            parts = (lam * cross * (1.0 + gain),
                     2.0 * (1.0 - lam) * gain * (1.0 + base) * s,
                     (2.0 - lam) * cross * gain * s * s)
            slope = parts[0] - parts[1] - parts[2]
            scale = 1e-12 * sum(parts)
            inside = (s > 0.0) & (s < 1.0)
            assert np.all(np.abs(slope[inside]) <= scale[inside])
            assert np.all(slope[s == 0.0] <= scale[s == 0.0])
            assert np.all(slope[s == 1.0] >= -scale[s == 1.0])
            assert np.all((s >= 0.0) & (s <= 1.0))


@pytest.mark.parametrize("objective", sorted(OPTIMIZERS))
def test_certified_dual_gap(objective):
    for instance, powers in CERTIFICATE_CASES:
        result = OPTIMIZERS[objective](instance, powers)
        assert 0.0 <= result.dual_gap <= 1e-9
        assert result.converged


@pytest.mark.parametrize("objective", sorted(OPTIMIZERS))
def test_shared_tones_give_the_same_result(objective):
    # tones= only saves recomputing _tones; the noise correlation does not
    # enter it, so the cut-set may take it from an instance at another rho
    for instance, powers in CERTIFICATE_CASES:
        alone = OPTIMIZERS[objective](instance, powers)
        other_rho = replace(instance, noise_corr=np.zeros(instance.block_size))
        shared = OPTIMIZERS[objective](
            instance, powers, tones=optimizer._tones(other_rho, powers))
        assert ((shared.rate, shared.terms, shared.lambda_trace, shared.converged,
                 shared.objective)
                == (alone.rate, alone.terms, alone.lambda_trace, alone.converged,
                    alone.objective))
        for name in ("relay_mag", "aux_mag", "phase"):
            assert (getattr(shared.split, name).tobytes()
                    == getattr(alone.split, name).tobytes())


def test_weighted_solve_count_on_the_block128_draws():
    # the root searches' cost, pinned: halving the weight bracket 30 times
    # took 216 weighted solves here (72 per objective), the safeguarded
    # search takes 98
    total = sum(len(OPTIMIZERS[objective](instance, powers).lambda_trace)
                for instance, powers in CERTIFICATE_CASES
                if instance.block_size == 128 for objective in OPTIMIZERS)
    assert total <= 110


@pytest.mark.parametrize("objective", sorted(OPTIMIZERS))
def test_reported_rate_is_the_solver_optimum_to_rounding(objective):
    config = ExperimentConfig(block_size=128, trials=1)
    powers = powers_from_config(config)[0]
    near_source = [(build_instance(config, Geometry(config.d1, 0.3), 0.0, trial),
                    powers) for trial in range(8)]
    ulps = 4.0 * np.finfo(float).eps
    for instance, powers in CERTIFICATE_CASES + near_source:
        result = OPTIMIZERS[objective](instance, powers)
        assert abs(result.rate - min(result.terms)) <= ulps * result.rate
        # so dual_gap certifies the reported rate, not only the terms
        upper = min(lam * first + (1.0 - lam) * second
                    for lam, first, second in result.lambda_trace)
        assert upper - result.rate <= result.dual_gap + ulps * result.rate


def _mapped_magnitudes(objective, instance, powers, s):
    """(relay, aux) magnitudes of the split an optimizer reports for the
    per-tone s: cut-set (s, s); df (t, 1) with t = s^2; pdf (t, 1) where
    sr >= sd, else (1, t), and (0, 0) at t = 0."""
    t = s ** 2
    if objective == "cutset":
        return s, s
    if objective == "df":
        return t, np.ones_like(s)
    tones = optimizer._tones(instance, powers)
    relay_first = tones.sr >= tones.sd
    return (np.where(relay_first, t, np.where(t > 0.0, 1.0, 0.0)),
            np.where(relay_first, 1.0, t))


@pytest.mark.parametrize("objective", sorted(OPTIMIZERS))
def test_one_dimensional_terms_equal_the_rates_closed_forms(objective):
    # the reduction to max_s min(F1, F2), checked tone by tone against the
    # rates module's cut SNRs at the mapped split
    rng = np.random.default_rng(41)
    zeros = 0
    for instance, powers in CERTIFICATE_CASES:
        base, cross, gain = _one_dimensional(objective, instance, powers)
        s = rng.random(instance.block_size)
        s[rng.random(s.size) < 0.1] = 0.0
        s[rng.random(s.size) < 0.1] = 1.0
        split = aligned_split(instance, *_mapped_magnitudes(objective, instance,
                                                            powers, s))
        mac = rates.mac_cut_snr(instance.g_sd, instance.g_rd, powers.p_src,
                                powers.p_rel, instance.n_dest,
                                split.relay_corr, split.aux_corr)
        if objective == "cutset":
            other = rates.broadcast_cut_snr(
                instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
                instance.n_relay, split.relay_mag, split.aux_mag,
                instance.noise_corr)
        else:
            other = rates.decode_cut_snr(
                instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
                instance.n_relay, split.relay_mag, split.aux_mag)
        first = np.log1p(base + cross * s) / rates.LN2
        second = np.log1p(gain * (1.0 - s * s)) / rates.LN2
        np.testing.assert_allclose(first, rates.cap(mac), rtol=1e-12, atol=0.0)
        np.testing.assert_allclose(second, rates.cap(other), rtol=1e-12, atol=0.0)
        zeros += np.count_nonzero(second == 0.0)
    assert zeros > 0


def test_exact_rates_are_at_least_the_oracle():
    rng = np.random.default_rng(39)
    for block_size, count in ((1, 10), (2, 2)):
        for _ in range(count):
            instance, powers = random_instance(block_size, rng)
            for objective, optimize in (("pdf", optimize_pdf),
                                        ("cutset", optimize_cutset)):
                oracle = brute_force_oracle(instance, powers, objective)
                assert optimize(instance, powers).rate >= oracle - 1e-12


def _grid_rates(instance, powers, objective, relay_mag, aux_mag):
    """Rates of a one-tone instance at every point of the magnitude arrays,
    from the rates module's closed forms."""
    n = relay_mag.size
    rotor = np.exp(1j * align_phases(instance))[0]
    g_sd, g_sr, g_rd = (np.full(n, g[0])
                        for g in (instance.g_sd, instance.g_sr, instance.g_rd))
    rc, ac = relay_mag * rotor, aux_mag * rotor
    mac = rates.mac_cut_snr(g_sd, g_rd, powers.p_src, powers.p_rel,
                            instance.n_dest, rc, ac)
    if objective == "cutset":
        other = rates.broadcast_cut_snr(g_sd, g_sr, powers.p_src, instance.n_dest,
                                        instance.n_relay, rc, ac,
                                        np.full(n, instance.noise_corr[0]))
    else:
        other = rates.decode_cut_snr(g_sd, g_sr, powers.p_src, instance.n_dest,
                                     instance.n_relay, rc, ac)
    return np.minimum(rates.cap(mac), rates.cap(other))


def test_exact_rates_are_at_least_a_dense_grid():
    rng = np.random.default_rng(40)
    axis = np.linspace(0.0, 1.0, 2001)
    a, b = (m.ravel() for m in np.meshgrid(axis, axis, indexing="ij"))
    for _ in range(3):
        instance, powers = random_instance(1, rng)
        grids = {"pdf": (a, b), "df": (axis, np.ones_like(axis)),
                 "cutset": (np.sqrt(axis), np.sqrt(axis))}
        for objective, (relay_mag, aux_mag) in grids.items():
            best = float(np.max(_grid_rates(instance, powers, objective,
                                            relay_mag, aux_mag)))
            assert OPTIMIZERS[objective](instance, powers).rate >= best - 1e-12


def test_oracle_grid_equals_the_rates_closed_forms():
    # the oracle's own real closed forms against the rates module's cut
    # SNRs on the same one-tone grid: (a, b) for pdf, t = a*b for the cut-set
    rng = np.random.default_rng(42)
    axis = np.linspace(0.0, 1.0, 101)
    a, b = (m.ravel() for m in np.meshgrid(axis, axis, indexing="ij"))
    for _ in range(5):
        instance, powers = random_instance(1, rng)
        for objective, (relay_mag, aux_mag) in (
                ("pdf", (a, b)), ("cutset", (np.sqrt(axis), np.sqrt(axis)))):
            best = float(np.max(_grid_rates(instance, powers, objective,
                                            relay_mag, aux_mag)))
            oracle = brute_force_oracle(instance, powers, objective, 0.01)
            assert oracle == pytest.approx(best, rel=1e-12)


# the paper's statements that the exact solve makes algebraic facts
THEOREMS = settings(max_examples=30, deadline=None, derandomize=True,
                    database=None)
SEEDS = st.integers(0, 2**32 - 1)
TONES = st.integers(1, 32)


def _rates(instance, powers):
    return (optimize_degraded(instance, powers).rate,
            optimize_pdf(instance, powers).rate,
            optimize_cutset(instance, powers).rate)


def _coincidence_instance(seed, tones, reverse):
    """Random instance at its degraded (or reversely degraded) noise
    correlation, with n_relay rescaled so the largest magnitude is 0.95."""
    instance, powers = random_instance(tones, np.random.default_rng(seed))
    construct = (rates.reversely_degraded_noise_correlation if reverse
                 else rates.degraded_noise_correlation)
    raw, _ = construct(instance.g_sd, instance.g_sr, instance.n_dest,
                       instance.n_relay)
    # |rho| grows like sqrt(n_relay) when degraded, shrinks when reversed
    n_relay = (instance.n_relay
               * (0.95 / float(np.max(np.abs(raw)))) ** (-2 if reverse else 2))
    rho, valid = construct(instance.g_sd, instance.g_sr, instance.n_dest, n_relay)
    assert np.all(valid)
    return replace(instance, n_relay=n_relay, noise_corr=rho), powers


@THEOREMS
@given(seed=SEEDS, tones=TONES)
def test_bounds_are_ordered(seed, tones):
    df, pdf, cut = _rates(*random_instance(tones, np.random.default_rng(seed)))
    assert df <= pdf + 1e-12 * pdf
    assert pdf <= cut + 1e-12 * cut


@THEOREMS
@given(seed=SEEDS, tones=TONES)
def test_cutset_equals_df_at_the_degraded_correlation(seed, tones):
    df, _, cut = _rates(*_coincidence_instance(seed, tones, reverse=False))
    assert cut == pytest.approx(df, rel=1e-12)


@THEOREMS
@given(seed=SEEDS, tones=TONES)
def test_cutset_and_pdf_equal_direct_at_the_reversely_degraded_correlation(
        seed, tones):
    instance, powers = _coincidence_instance(seed, tones, reverse=True)
    _, pdf, cut = _rates(instance, powers)
    direct = rates.reversely_degraded_capacity(instance, powers.p_src)
    assert cut == pytest.approx(direct, rel=1e-12)
    assert pdf == pytest.approx(direct, rel=1e-12)


@THEOREMS
@given(seed=SEEDS, tones=TONES)
def test_tone_permutation_leaves_every_rate_unchanged(seed, tones):
    rng = np.random.default_rng(seed)
    instance, powers = random_instance(tones, rng)
    order = rng.permutation(tones)
    permuted = RelayChannelInstance(
        g_sd=instance.g_sd[order], g_sr=instance.g_sr[order],
        g_rd=instance.g_rd[order], n_dest=instance.n_dest,
        n_relay=instance.n_relay, noise_corr=instance.noise_corr[order])
    for got, want in zip(_rates(permuted, powers), _rates(instance, powers)):
        assert got == pytest.approx(want, rel=1e-12)


@THEOREMS
@given(seed=SEEDS, tones=TONES)
def test_pdf_and_df_do_not_depend_on_the_noise_correlation(seed, tones):
    rng = np.random.default_rng(seed)
    instance, powers = random_instance(tones, rng)
    other = replace(instance, noise_corr=0.9 * rng.random(tones)
                    * np.exp(2j * math.pi * rng.random(tones)))
    for got, want in zip(_rates(other, powers)[:2], _rates(instance, powers)[:2]):
        assert got == pytest.approx(want, rel=1e-12)



@THEOREMS
@given(seed=SEEDS, tones=TONES, c=st.floats(1e-2, 1e2))
def test_scaling_gains_by_c_and_noises_by_c_squared_leaves_every_rate(
        seed, tones, c):
    instance, powers = random_instance(tones, np.random.default_rng(seed))
    scaled = replace(instance, g_sd=c * instance.g_sd, g_sr=c * instance.g_sr,
                     g_rd=c * instance.g_rd, n_dest=c * c * instance.n_dest,
                     n_relay=c * c * instance.n_relay)
    for got, want in zip(_rates(scaled, powers), _rates(instance, powers)):
        assert got == pytest.approx(want, rel=1e-12)


@THEOREMS
@given(seed=SEEDS, tones=TONES, c=st.floats(1.0, 1e2),
       scale=st.sampled_from([(True, False), (False, True), (True, True)]))
def test_more_power_never_lowers_a_rate(seed, tones, c, scale):
    instance, powers = random_instance(tones, np.random.default_rng(seed))
    more = PowerBudget(p_src=powers.p_src * (c if scale[0] else 1.0),
                       p_rel=powers.p_rel * (c if scale[1] else 1.0))
    for got, base in zip(_rates(instance, more), _rates(instance, powers)):
        assert got >= base - 1e-12 * base
