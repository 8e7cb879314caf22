"""Monte Carlo harness: power bookkeeping, seed pairing, sweeps."""

import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from uwbrelay import experiments, optimizer
from uwbrelay.experiments import (
    ExperimentConfig,
    Geometry,
    SweepResult,
    build_instance,
    draw_fading,
    draw_links,
    link_rng,
    powers_from_config,
    run_trial,
    sweep_distance,
    sweep_rho,
)
from uwbrelay.optimizer import OptimizerSettings, random_instance
from uwbrelay.rates import RelayChannelInstance, SplitParams
from uwbrelay.svchannel import SVParameters, TruncatedChannelWarning
from uwbrelay.svgplot import parse_sweep_csv

# small, fast configuration shared by the sweep tests
SMALL = dict(block_size=32, trials=2, d2_grid=(1.0, 2.0), rho_values=(0.0, 0.5),
             master_seed=11, optimizer=OptimizerSettings(tone_grid_points=21,
                                                         refine_steps=2))

# the sweep-rho-b128 benchmark shape: block 128 at its four relay positions
RHO_SWEEP = dict(block_size=128, trials=1, rho_values=(0.0, 0.6, 0.9),
                 d2_grid=(0.3, 0.8333333333, 1.9, 2.4333333333))

# frozen single-trial reference at block_size 128 (default optimizer)
TRIAL_GOLDEN = {
    "pdf_rate": 4.999438368670295,
    "df_rate": 4.98498204481797,
    "cutset_rate": 5.702821389950325,
    "degraded_capacity": 4.984982044817974,
    "revdeg_capacity": 0.8496864199094566,
    "direct_rate": 1.326111576947827,
}


def test_psd_integration_golden():
    powers, n_dest, n_relay = powers_from_config(ExperimentConfig())
    assert powers.p_src == pytest.approx(3.706551206504588e-05, rel=1e-12)
    assert powers.p_rel == powers.p_src
    assert n_dest == pytest.approx(1.9905358527674843e-12, rel=1e-12)
    assert n_relay == n_dest
    # -41.3 dBm/MHz over -114 dBm/MHz is a 72.7 dB link budget
    assert 10.0 * math.log10(powers.p_src / n_dest) == pytest.approx(72.7, abs=1e-9)


def test_sample_period_from_bandwidth():
    assert ExperimentConfig().sample_period_ns == 2.0
    assert ExperimentConfig(bandwidth_mhz=250.0).sample_period_ns == 4.0


def test_link_rng_keying():
    assert link_rng(1, 2, 3).uniform() == link_rng(1, 2, 3).uniform()
    draws = {link_rng(1, 2, link).uniform() for link in (1, 2, 3)}
    assert len(draws) == 3
    with pytest.raises(ValueError):
        link_rng(1, -1, 3)


def test_build_instance_pairs_fading_across_rho_and_geometry():
    config = ExperimentConfig(**SMALL)
    base = build_instance(config, Geometry(3.0, 1.0), 0.0, trial_index=0)
    other_rho = build_instance(config, Geometry(3.0, 1.0), 0.5, trial_index=0)
    assert np.array_equal(base.g_sd, other_rho.g_sd)
    assert np.array_equal(base.g_sr, other_rho.g_sr)
    assert np.array_equal(base.g_rd, other_rho.g_rd)
    assert np.all(base.noise_corr == 0.0)
    assert np.all(other_rho.noise_corr == 0.5)
    # moving the relay keeps the direct link draw bit-identical
    moved = build_instance(config, Geometry(3.0, 2.0), 0.0, trial_index=0)
    assert np.array_equal(base.g_sd, moved.g_sd)
    assert not np.array_equal(base.g_sr, moved.g_sr)
    # a different trial redraws everything
    fresh = build_instance(config, Geometry(3.0, 1.0), 0.0, trial_index=1)
    assert not np.array_equal(base.g_sd, fresh.g_sd)


def test_run_trial_golden_values():
    config = ExperimentConfig(block_size=128, trials=1)
    report = run_trial(config, Geometry(3.0, 1.9), 0.6, trial_index=3)
    for name, expected in TRIAL_GOLDEN.items():
        assert getattr(report, name) == pytest.approx(expected, rel=1e-12), name
    assert report.flags == {
        "pdf_converged": True, "df_converged": True, "cutset_converged": True,
        "pdf_binding": "second", "cutset_binding": "second",
        "cutset_product_candidate_used": False,
    }
    assert sorted(report.per_tone) == [
        "auxiliary_at_dest", "auxiliary_at_relay", "broadcast_cut_snr",
        "cooperative_at_dest", "decode_cut_snr", "fresh_at_dest", "mac_cut_snr"]
    for arr in report.per_tone.values():
        assert arr.shape == (128,)


def test_trial_searches_the_full_decode_problem_once(monkeypatch):
    # df's problem is pdf's where sr >= sd on every tone: the trial then
    # relabels the pdf solve, and solves df once where some tone has sd > sr
    config = ExperimentConfig(**RHO_SWEEP, master_seed=9)
    powers = powers_from_config(config)[0]
    calls = []
    degraded = experiments.optimize_degraded
    monkeypatch.setattr(experiments, "optimize_degraded", lambda *args, **kwargs:
                        calls.append(1) or degraded(*args, **kwargs))
    for d2, weaker_tones, solves in ((0.3, 0, 0), (0.8333333333, 1, 1)):
        calls.clear()
        instance, _, pdf_res, df_res, _, _ = experiments._solve_trial(
            config, Geometry(config.d1, d2), 0, config.rho_values)
        tones = optimizer._tones(instance, powers)
        assert np.count_nonzero(tones.sd > tones.sr) == weaker_tones
        assert len(calls) == solves
        fresh = degraded(instance, powers, config.optimizer)
        assert ((df_res.rate, df_res.terms, df_res.lambda_trace, df_res.converged,
                 df_res.objective)
                == (fresh.rate, fresh.terms, fresh.lambda_trace, fresh.converged,
                    "degraded"))
        assert _same_fields(df_res.split, fresh.split,
                            ("relay_mag", "aux_mag", "phase"))
        assert df_res.rate <= pdf_res.rate
        # a relabelled result shares no mutable field with the pdf result
        assert df_res.lambda_trace is not pdf_res.lambda_trace
        for name in ("relay_mag", "aux_mag", "phase"):
            assert not np.shares_memory(getattr(df_res.split, name),
                                        getattr(pdf_res.split, name))


def test_run_trial_is_deterministic_and_consistent():
    config = ExperimentConfig(**SMALL)
    a = run_trial(config, Geometry(3.0, 1.0), 0.5, trial_index=1)
    b = run_trial(config, Geometry(3.0, 1.0), 0.5, trial_index=1)
    assert a.rows() == b.rows()
    assert a.df_rate <= a.pdf_rate + 1e-12
    # the degraded-channel closed form at the df optimum is the df rate
    assert a.degraded_capacity == pytest.approx(a.df_rate, rel=1e-12)
    assert a.pdf_rate <= a.cutset_rate + 1e-9
    # per-tone diagnostics are evaluated at the reported optimal split, so
    # they reproduce the scalar achievable rate
    from uwbrelay.rates import cap
    mac = float(np.mean(cap(a.per_tone["mac_cut_snr"])))
    dec = float(np.mean(cap(a.per_tone["decode_cut_snr"])))
    assert min(mac, dec) == pytest.approx(a.pdf_rate, rel=1e-12)


def test_single_trial_sweep_matches_run_trial():
    config = ExperimentConfig(block_size=32, trials=1, d2_grid=(1.9,),
                              rho_values=(0.0,), master_seed=11,
                              optimizer=OptimizerSettings(tone_grid_points=21,
                                                          refine_steps=2))
    report = run_trial(config, Geometry(3.0, 1.9), 0.0, trial_index=0)
    result = sweep_distance(config)
    assert result.axis_name == "source_relay_distance_m"
    assert result.trials == 1
    assert result.means["pdf"][0] == report.pdf_rate
    assert result.means["df"][0] == report.df_rate
    assert result.means["cutset"][0] == report.cutset_rate
    assert result.means["direct"][0] == report.direct_rate
    for arr in result.stderrs.values():
        assert np.all(arr == 0.0)


def test_sweep_rho_series_names_and_progress():
    config = ExperimentConfig(**SMALL)
    seen = []
    result = sweep_rho(config, progress=lambda done, total: seen.append((done, total)))
    assert set(result.means) == {"cutset[rho=0]", "cutset[rho=0.5]",
                                 "df", "direct", "pdf"}
    assert seen == [(1, 2), (2, 2)]
    for arr in result.means.values():
        assert arr.shape == (2,)
        assert np.all(np.isfinite(arr))


def test_keep_samples_backs_the_aggregates():
    config = ExperimentConfig(**SMALL)
    plain = sweep_distance(config)
    kept = sweep_distance(config)
    assert sorted(kept.samples) == ["cutset", "df", "direct", "pdf"]
    for name, arr in kept.samples.items():
        assert arr.shape == (2, 2)  # (grid points, trials)
        assert np.array_equal(arr.mean(axis=1), kept.means[name])
        assert np.array_equal(kept.means[name], plain.means[name])


def test_sweep_distance_is_sweep_rho_at_zero_correlation():
    distance = sweep_distance(ExperimentConfig(**SMALL))
    rho = sweep_rho(ExperimentConfig(**{**SMALL, "rho_values": (0.0,)}))
    label = {"cutset[rho=0]": "cutset"}
    assert rho.axis_name == distance.axis_name
    assert np.array_equal(rho.axis_values, distance.axis_values)
    assert rho.trials == distance.trials
    for part in ("means", "stderrs", "samples"):
        renamed = {label.get(n, n): v for n, v in getattr(rho, part).items()}
        expected = getattr(distance, part)
        assert list(renamed) == list(expected)
        for name, arr in renamed.items():
            assert np.array_equal(arr, expected[name]), (part, name)


def test_write_csv_schema_scale_and_roundtrip():
    result = SweepResult("source_relay_distance_m", [1.0, 2.0],
                         means={"pdf": [1.5, 2.5]}, stderrs={"pdf": [0.1, 0.2]},
                         trials=4)
    text = result.write_csv()
    lines = text.splitlines()
    assert lines[0] == "source_relay_distance_m,bound,mean_bits_per_sample,stderr,trials"
    assert lines[1] == "1.0,pdf,1.5,0.1,4"
    axis_name, rate_name, groups = parse_sweep_csv(text)
    assert axis_name == "source_relay_distance_m"
    assert rate_name == "bits_per_sample"
    assert groups["pdf"] == ([1.0, 2.0], [1.5, 2.5], [0.1, 0.2])
    doubled = result.write_csv(rate_unit="bits_per_second", scale=2.0)
    assert "mean_bits_per_second" in doubled.splitlines()[0]
    assert parse_sweep_csv(doubled)[2]["pdf"][1] == [3.0, 5.0]


def test_sweep_result_validation():
    with pytest.raises(ValueError):
        SweepResult("d", [1.0, 2.0], means={"pdf": [1.0]}, stderrs={}, trials=1)
    with pytest.raises(ValueError):
        SweepResult("d", [1.0], means={"pdf": [1.0]},
                     stderrs={"pdf": [-0.1]}, trials=1)


@pytest.mark.parametrize("stderrs, message", [
    ({"pdf": [0.1]}, "shape"),                     # short: write_csv IndexError
    ({"pdf": [0.1, 0.2, 0.3]}, "shape"),
    ({"pdf": [[0.1, 0.2]]}, "shape"),
    ({}, "keys"),                                  # missing: write_csv KeyError
    ({"pdf": [0.1, 0.2], "df": [0.1, 0.2]}, "keys"),
    ({"pdf": [0.1, math.nan]}, "finite"),          # would reach the CSV as nan
    ({"pdf": [0.1, math.inf]}, "finite"),
    ({"pdf": [0.1, -0.2]}, ">= 0"),
])
def test_sweep_result_validates_stderrs_like_means(stderrs, message):
    with pytest.raises(ValueError, match=message):
        SweepResult("d", [1.0, 2.0], means={"pdf": [1.0, 2.0]},
                    stderrs=stderrs, trials=2)
    ok = SweepResult("d", [1.0, 2.0], means={"pdf": [1.0, 2.0]},
                     stderrs={"pdf": [0.0, 0.2]}, trials=2)
    assert ok.write_csv().splitlines()[2] == "2.0,pdf,2.0,0.2,2"


def test_geometry():
    assert Geometry(3.0, 1.9).relay_dest_distance == pytest.approx(1.1)
    with pytest.raises(ValueError):
        Geometry(3.0, 3.0)
    for d1, d2, name in ((0.0, 1.0, "d1"), (-3.0, 1.0, "d1"),
                         (3.0, 0.0, "d2"), (3.0, -1.0, "d2")):
        with pytest.raises(ValueError, match=f"{name} must be > 0"):
            Geometry(d1, d2)


def test_experiment_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(trials=0)
    with pytest.raises(ValueError):
        ExperimentConfig(rho_values=(1.0,))
    with pytest.raises(ValueError):
        ExperimentConfig(rho_values=(0.9999999995,))  # above NOISE_CORR_LIMIT
    with pytest.raises(ValueError):
        ExperimentConfig(rho_values=())
    with pytest.raises(ValueError, match="series label"):
        ExperimentConfig(rho_values=(0.6, 0.6000001))  # both label as rho=0.6
    with pytest.raises(ValueError, match="series label"):
        ExperimentConfig(rho_values=(0.5, 0.5))
    with pytest.raises(ValueError):
        ExperimentConfig(d2_grid=(3.5,))
    with pytest.raises(ValueError):
        ExperimentConfig(master_seed=-1)
    for kwargs, message in (({"bandwidth_mhz": 0.0}, "bandwidth_mhz"),
                            ({"bandwidth_mhz": -500.0}, "bandwidth_mhz"),
                            ({"block_size": 0}, "block_size"),
                            ({"d2_grid": ()}, "d2_grid must not be empty"),
                            ({"d1": 0.0}, "d1 must be > 0"),
                            ({"d1": -3.0}, "d1 must be > 0")):
        with pytest.raises(ValueError, match=message):
            ExperimentConfig(**kwargs)
    # PSD levels must be finite and integrate to a finite, positive power
    for name, level in (("psd_tx_dbm_per_mhz", math.nan),
                        ("psd_noise_dbm_per_mhz", math.inf),
                        ("psd_tx_dbm_per_mhz", 1e308),      # power overflows
                        ("psd_noise_dbm_per_mhz", -1e308)):  # power underflows to 0
        with pytest.raises(ValueError, match=name):
            ExperimentConfig(**{name: level})


def test_draw_links_response_is_fft_of_taps():
    config = ExperimentConfig(**SMALL)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedChannelWarning)
        links = draw_links(config, Geometry(3.0, 2.0), 0)
    for taps, gains in links.values():
        assert taps.taps.size <= config.block_size
        assert gains.shape == (config.block_size,)
        assert np.array_equal(gains, np.fft.fft(taps.taps, n=config.block_size))


def test_draw_links_warns_about_dropped_energy():
    config = ExperimentConfig(**SMALL)  # 32 taps of 2 ns against 200 ns of paths
    with pytest.warns(TruncatedChannelWarning) as record:
        links = draw_links(config, Geometry(3.0, 1.0), 0)
    reported = {w.message.link: w.message.share for w in record}
    assert reported == {name: taps.dropped_share for name, (taps, _) in links.items()
                        if taps.dropped_share > 0.0}
    assert reported and all(0.0 < share < 1.0 for share in reported.values())
    wide = ExperimentConfig(block_size=128, trials=1)  # 256 ns covers every path
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        links = draw_links(wide, Geometry(3.0, 1.0), 0)
    assert all(taps.dropped_share == 0.0 for taps, _ in links.values())


def test_sweep_draws_each_trials_fading_once(monkeypatch):
    config = ExperimentConfig(**{**SMALL, "block_size": 64, "trials": 4,
                                 "d2_grid": (0.5, 1.5, 2.5)})
    calls = []
    draw = experiments.sample_impulse_response
    monkeypatch.setattr(experiments, "sample_impulse_response",
                        lambda *args: calls.append(args) or draw(*args))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncatedChannelWarning)
        result = sweep_rho(config)
        assert len(calls) == 3 * config.trials  # not 3 * points * trials
        rhos = list(config.rho_values)
        for i, d2 in enumerate(config.d2_grid):
            for trial in range(config.trials):
                _, _, pdf_res, df_res, cuts, direct = experiments._solve_trial(
                    config, Geometry(config.d1, d2), trial, rhos)
                expected = {"pdf": pdf_res.rate, "df": df_res.rate, "direct": direct}
                expected.update((experiments._cutset_label(rho), cut.rate)
                                for rho, cut in zip(rhos, cuts))
                assert {name: result.samples[name][i, trial]
                        for name in expected} == expected, (d2, trial)


def _recorded(fn):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    return value, [(w.category, w.message.link, w.message.share) for w in caught]


@pytest.mark.parametrize("config", [
    ExperimentConfig(block_size=128, trials=3),
    ExperimentConfig(**SMALL),  # truncates at 32 taps
    ExperimentConfig(block_size=8, trials=1, d2_grid=(1.0,),
                     sv=SVParameters(max_delay=400.0)),
], ids=["b128", "b32", "b8-truncating"])
def test_build_instance_places_a_held_fading_record(config):
    # a truncated link is reported once per draw: by draw_fading and by a
    # build_instance that draws, never by placing a held record
    fields = ("g_sd", "g_sr", "g_rd", "noise_corr")
    for trial in range(config.trials):
        fading, draw_warnings = _recorded(lambda: draw_fading(config, trial))
        assert draw_warnings == [
            (TruncatedChannelWarning, name, taps.dropped_share)
            for name, taps, _ in fading.links if taps.dropped_share > 0.0]
        if config.block_size == 8:
            assert [link for _, link, _ in draw_warnings] == ["sd", "sr", "rd"]
        for d2, rho in ((0.3, 0.0), (1.0, 0.6), (2.7, 0.9)):
            geometry = Geometry(config.d1, d2)
            held, held_warnings = _recorded(
                lambda: build_instance(config, geometry, rho, trial, fading=fading))
            fresh, fresh_warnings = _recorded(
                lambda: build_instance(config, geometry, rho, trial))
            for name in fields:
                assert np.array_equal(getattr(held, name), getattr(fresh, name))
            assert (held.n_dest, held.n_relay) == (fresh.n_dest, fresh.n_relay)
            assert held_warnings == []
            assert fresh_warnings == draw_warnings


def test_build_instance_rejects_a_foreign_fading_record():
    config = ExperimentConfig(block_size=128, trials=2)
    geometry = Geometry(config.d1, 1.0)
    fading = draw_fading(config, 0)
    assert (fading.master_seed, fading.trial_index, fading.block_size) == (
        config.master_seed, 0, 128)
    with pytest.raises(ValueError, match="fading"):
        build_instance(config, geometry, 0.0, 1, fading=fading)
    reseeded = ExperimentConfig(block_size=128, trials=2, master_seed=config.master_seed + 1)
    with pytest.raises(ValueError, match="fading"):
        build_instance(reseeded, geometry, 0.0, 0, fading=fading)
    wider = ExperimentConfig(block_size=256, trials=2)
    with pytest.raises(ValueError, match="fading"):
        build_instance(wider, geometry, 0.0, 0, fading=fading)


def test_trial_solve_checks_only_the_drawn_instance(monkeypatch):
    # build_instance's instance is checked once; the later rho values'
    # instances and every result split are derived from validated objects
    config = ExperimentConfig(**RHO_SWEEP)
    counts = dict.fromkeys((RelayChannelInstance, SplitParams), 0)
    for cls in counts:
        def counted(self, cls=cls, check=cls.__post_init__):
            counts[cls] += 1
            check(self)
        monkeypatch.setattr(cls, "__post_init__", counted)
    experiments._solve_trial(config, Geometry(3.0, 1.1), 0, config.rho_values)
    assert counts == {RelayChannelInstance: 1, SplitParams: 0}


def _bits(value):
    value = np.asarray(value)
    return value.dtype, value.shape, value.tobytes()


def _same_fields(a, b, names):
    return all(_bits(getattr(a, n)) == _bits(getattr(b, n)) for n in names)


def _assert_unchecked_builds_match_checked(config, geometry, trial, monkeypatch):
    seen = []
    solve = experiments.optimize_cutset
    monkeypatch.setattr(experiments, "optimize_cutset",
                        lambda inst, *args, **kwargs:
                        seen.append(inst) or solve(inst, *args, **kwargs))
    first, _, pdf_res, df_res, cuts, _ = experiments._solve_trial(
        config, geometry, trial, config.rho_values)
    assert seen[0] is first and len(seen) == len(config.rho_values)
    for instance, rho in zip(seen, config.rho_values):
        assert isinstance(instance, RelayChannelInstance)
        checked = replace(first, noise_corr=np.full(config.block_size, complex(rho)))
        assert _same_fields(instance, checked, ("g_sd", "g_sr", "g_rd", "n_dest",
                                                "n_relay", "noise_corr"))
    for res in (pdf_res, df_res, *cuts):
        split = res.split
        checked = SplitParams(split.relay_mag, split.aux_mag, split.phase)
        assert _same_fields(split, checked, ("relay_mag", "aux_mag", "phase"))


def test_unchecked_builds_equal_the_checked_constructors(monkeypatch):
    config = ExperimentConfig(**RHO_SWEEP, master_seed=9)
    for trial in range(4):
        for d2 in config.d2_grid:
            with monkeypatch.context() as patch:
                _assert_unchecked_builds_match_checked(
                    config, Geometry(config.d1, d2), trial, patch)
    # random gains, noises and powers in place of the model's draw
    rng = np.random.default_rng(17)
    for _ in range(10):
        instance, powers = random_instance(config.block_size, rng)
        instance = replace(instance, noise_corr=np.zeros(config.block_size))
        with monkeypatch.context() as patch:
            patch.setattr(experiments, "build_instance", lambda *a, **k: instance)
            patch.setattr(experiments, "powers_from_config", lambda _: (
                powers, instance.n_dest, instance.n_relay))
            _assert_unchecked_builds_match_checked(
                config, Geometry(config.d1, 1.1), 0, patch)
