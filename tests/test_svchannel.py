"""Channel generator: determinism, normalization, binning, pathloss, DFT."""

import hashlib
import math

import numpy as np
import pytest

from uwbrelay.cli import _channel_tables
from uwbrelay.experiments import ExperimentConfig
from uwbrelay.svchannel import (
    ChannelTaps,
    ContinuousImpulse,
    DegenerateChannelError,
    PathlossParameters,
    SVParameters,
    apply_pathloss,
    dft_response,
    discretize_taps,
    draw_shadowing_db,
    sample_impulse_response,
    scale_pathloss,
)


def test_impulse_deterministic():
    params = SVParameters()
    a = sample_impulse_response(params, np.random.default_rng(42))
    b = sample_impulse_response(params, np.random.default_rng(42))
    assert np.array_equal(a.delays, b.delays)
    assert np.array_equal(a.gains, b.gains)


def test_impulse_sorted_unit_energy_in_window():
    params = SVParameters()
    for seed in range(20):
        impulse = sample_impulse_response(params, np.random.default_rng(seed))
        assert impulse.delays[0] == 0.0
        assert np.all(np.diff(impulse.delays) >= 0)
        assert float(impulse.delays[-1]) <= params.max_delay
        assert impulse.energy == pytest.approx(1.0, abs=1e-12)


# SHA-256 of delays, gains and the generator's state after the draw, for
# default_rng(seed) draws of a sparse parameter set: seed 0 is one cluster
# without extra rays, seed 1 two such clusters, seed 4 three clusters with
# and without extra rays, seed 8 one cluster with two.  A draw that
# consumes generator state another way changes these.
SPARSE_SV = SVParameters(mean_cluster_count=1.0, ray_arrival_rate=0.002)
SPARSE_DRAW_SHA256 = {
    0: "0dfe685840419566d8057dc540ea188e4be5be19c3cd6a89511a659919ea9e10",
    1: "661a34922fe7dca2153b3694c51082f868cba583061e6026f8589801fabd1df4",
    4: "97b8bdda0edb65e80e7a4ff56077a993a970d0086e4e9f80a885b8f61911dd3a",
    8: "1ef2972e9b1ba3b6f78585468efd22c03cdd25af9955c2af80aab44f917686d1",
}


def test_sparse_draws_match_pinned_hashes():
    for seed, expected in SPARSE_DRAW_SHA256.items():
        rng = np.random.default_rng(seed)
        impulse = sample_impulse_response(SPARSE_SV, rng)
        state = str(rng.bit_generator.state["state"]["state"]).encode()
        digest = hashlib.sha256(impulse.delays.tobytes() + impulse.gains.tobytes()
                                + state).hexdigest()
        assert digest == expected, seed


def test_tiny_window_forces_single_unit_path():
    # with a sub-nanosecond window no extra cluster or ray can land, so
    # every draw is one path at delay 0 normalized to unit magnitude
    params = SVParameters(max_delay=1e-6)
    for seed in range(50):
        impulse = sample_impulse_response(params, np.random.default_rng(seed))
        assert impulse.delays.size == 1
        assert impulse.delays[0] == 0.0
        assert abs(impulse.gains[0]) == pytest.approx(1.0, abs=1e-12)


def test_binning_sums_collisions_and_trims():
    impulse = ContinuousImpulse([0.0, 0.4, 1.2, 2.5, 2.7],
                                [1.0, 1.0j, 2.0, 1.0, -1.0])
    taps = discretize_taps(impulse, sample_period=1.0, max_taps=10)
    # bins 0 and 0 collide, bin 2 cancels exactly, so the span ends at bin 1
    assert np.array_equal(taps.taps, np.array([1.0 + 1.0j, 2.0 + 0.0j]))


def test_binning_drops_paths_beyond_max_taps():
    impulse = ContinuousImpulse([0.2, 5.5], [1.0j, 1.0])
    taps = discretize_taps(impulse, sample_period=1.0, max_taps=3)
    assert np.array_equal(taps.taps, np.array([1.0j]))


def test_binning_records_dropped_energy_share():
    impulse = ContinuousImpulse([0.2, 5.5], [1.0j, 2.0])
    taps = discretize_taps(impulse, sample_period=1.0, max_taps=3)
    assert taps.dropped_share == pytest.approx(0.8, rel=1e-15)
    scaled = apply_pathloss(taps, 2.0, PathlossParameters(), np.random.default_rng(1))
    assert scaled.dropped_share == taps.dropped_share
    kept = discretize_taps(impulse, sample_period=1.0, max_taps=6)
    assert kept.dropped_share == 0.0


def test_binning_all_dropped_yields_one_zero_tap():
    impulse = ContinuousImpulse([5.5], [1.0])
    taps = discretize_taps(impulse, sample_period=1.0, max_taps=3)
    assert np.array_equal(taps.taps, np.array([0.0j]))


def test_discretize_validation():
    impulse = ContinuousImpulse([0.0], [1.0])
    with pytest.raises(ValueError):
        discretize_taps(impulse, sample_period=0.0, max_taps=4)
    with pytest.raises(ValueError):
        discretize_taps(impulse, sample_period=1.0, max_taps=0)


def test_continuous_impulse_validation():
    with pytest.raises(DegenerateChannelError):
        ContinuousImpulse([], [])
    with pytest.raises(ValueError):
        ContinuousImpulse([0.0, 1.0], [1.0])
    with pytest.raises(ValueError):
        ContinuousImpulse([-0.5], [1.0])
    with pytest.raises(ValueError):
        ContinuousImpulse([0.0], [np.nan])


def test_sv_parameters_validation():
    with pytest.raises(ValueError):
        SVParameters(max_delay=0.0)
    with pytest.raises(ValueError):
        SVParameters(mean_cluster_count=0.5)
    with pytest.raises(ValueError):
        SVParameters(ray_arrival_rate=-1.0)


def test_pathloss_exact_at_reference_distance():
    params = PathlossParameters(shadowing_sigma_db=0.0)
    taps = ChannelTaps([1.0 + 0.0j])
    out = apply_pathloss(taps, params.ref_distance, params, np.random.default_rng(0))
    assert out.taps[0] == 10.0 ** (-params.ref_loss_db / 20.0)


def test_pathloss_monotone_in_distance():
    params = PathlossParameters(shadowing_sigma_db=0.0)
    taps = ChannelTaps([1.0 + 0.0j])
    amps = [abs(apply_pathloss(taps, d, params, np.random.default_rng(0)).taps[0])
            for d in (1.0, 2.0, 4.0)]
    assert amps[0] > amps[1] > amps[2]


def test_pathloss_consumes_exactly_one_normal_draw():
    # the shadowing draw must happen even at sigma = 0 so that downstream
    # streams stay aligned when shadowing is toggled
    params = PathlossParameters(shadowing_sigma_db=0.0)
    taps = ChannelTaps([1.0 + 0.0j])
    used = np.random.default_rng(5)
    mirror = np.random.default_rng(5)
    apply_pathloss(taps, 2.0, params, used)
    mirror.normal(0.0, params.shadowing_sigma_db)
    assert used.uniform() == mirror.uniform()


def test_pathloss_is_a_shadowing_draw_then_the_shared_scaling():
    # placing one held draw at a distance must equal drawing it there
    params = PathlossParameters()
    taps = ChannelTaps([1.0, 0.5j, -0.25], dropped_share=0.1)
    for distance in (0.3, 1.0, 2.7):
        drawn = apply_pathloss(taps, distance, params, np.random.default_rng(3))
        shadowing_db = draw_shadowing_db(params, np.random.default_rng(3))
        placed = scale_pathloss(taps, distance, params, shadowing_db)
        assert np.array_equal(drawn.taps, placed.taps)
        assert placed.dropped_share == drawn.dropped_share == 0.1
    with pytest.raises(ValueError):
        scale_pathloss(taps, -1.0, params, 0.0)


def test_pathloss_deterministic_and_guards():
    params = PathlossParameters()
    taps = ChannelTaps([1.0, 0.5j])
    a = apply_pathloss(taps, 2.5, params, np.random.default_rng(9))
    b = apply_pathloss(taps, 2.5, params, np.random.default_rng(9))
    assert np.array_equal(a.taps, b.taps)
    with pytest.raises(ValueError):
        apply_pathloss(taps, 0.0, params, np.random.default_rng(9))
    with pytest.raises(ValueError):
        PathlossParameters(shadowing_sigma_db=-1.0)
    for kwargs, message in (({"ref_distance": 0.0}, "ref_distance"),
                            ({"ref_distance": -1.0}, "ref_distance"),
                            ({"exponent": 0.0}, "exponent"),
                            ({"exponent": -2.0}, "exponent"),
                            ({"ref_loss_db": math.nan}, "ref_loss_db"),
                            ({"ref_loss_db": math.inf}, "ref_loss_db")):
        with pytest.raises(ValueError, match=message):
            PathlossParameters(**kwargs)


def test_dft_matches_definition():
    taps = ChannelTaps([1.0, 1.0j, -0.5])
    block = 8
    gains = dft_response(taps, block)
    for i in range(block):
        expected = sum(g * np.exp(-2j * math.pi * i * k / block)
                       for k, g in enumerate(taps.taps))
        assert gains[i] == pytest.approx(expected, abs=1e-12)


def test_dft_parseval():
    rng = np.random.default_rng(7)
    for block in (16, 64, 128):
        raw = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        taps = ChannelTaps(raw)
        tone_mean = float(np.mean(np.abs(dft_response(taps, block)) ** 2))
        assert tone_mean == pytest.approx(taps.energy, rel=1e-12)


def test_dft_block_must_cover_span():
    taps = ChannelTaps(np.ones(5))
    with pytest.raises(ValueError):
        dft_response(taps, 4)
    assert dft_response(taps, 5).shape == (5,)


def test_taps_csv_padding_and_write():
    # a draw's tables are rendered by the CLI; block 4 gives 2 ns samples
    config = ExperimentConfig(block_size=4, master_seed=3)
    links = {name: (taps, dft_response(taps, config.block_size)) for name, taps in (
        ("sd", ChannelTaps([1.0, 2.0j])),
        ("sr", ChannelTaps([0.5, 0.0, 1.0j])))}
    text = _channel_tables(config, links)["channel_taps.csv"]
    lines = text.splitlines()
    assert lines[0] == "# span=3 sample_period_ns=2.0 seed=3"
    assert lines[1] == "tap,sd_re,sd_im,sr_re,sr_im"
    assert len(lines) == 2 + 3
    # shorter link zero-padded on its last row
    assert lines[-1].split(",")[1:3] == ["0.0", "0.0"]
    assert text == (
        "# span=3 sample_period_ns=2.0 seed=3\n"
        "tap,sd_re,sd_im,sr_re,sr_im\n"
        "0,1.0,0.0,0.5,0.0\n"
        "1,0.0,2.0,0.0,0.0\n"
        "2,0.0,0.0,0.0,1.0\n")


def test_response_csv_roundtrip():
    config = ExperimentConfig(block_size=4, master_seed=4)
    links = {
        "sd": (ChannelTaps([1.0]), np.array([1.0, 2.0j, -0.5, 0.25 - 1.5j])),
        "rd": (ChannelTaps([1.0]), np.array([0.5, -1.0, 1e-300j, -0.0])),
    }
    lines = _channel_tables(config, links)["channel_response.csv"].splitlines()
    assert lines[0] == "# block_size=4 sample_period_ns=2.0 seed=4"
    assert lines[1] == "tone,sd_re,sd_im,rd_re,rd_im"
    assert len(lines) == 2 + 4
    table = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
    assert np.array_equal(table[:, 0], np.arange(4))
    for k, (_, gains) in enumerate(links.values()):
        assert np.array_equal(table[:, 1 + 2 * k] + 1j * table[:, 2 + 2 * k], gains)


def test_container_validation():
    with pytest.raises(ValueError):
        ChannelTaps([])
    with pytest.raises(ValueError):
        ChannelTaps([[1.0, 2.0]])
    with pytest.raises(ValueError):
        ChannelTaps([1.0, np.inf])
