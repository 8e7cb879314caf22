"""Command line subcommands run in-process against small configurations."""

import hashlib
import re

import numpy as np
import pytest

from uwbrelay.cli import main
from uwbrelay.configfile import ANNOTATED_DEFAULTS
from uwbrelay.experiments import ExperimentConfig, Geometry, run_trial
from uwbrelay.optimizer import OptimizerSettings
from uwbrelay.svgplot import parse_sweep_csv, sweep_chart

SMALL_CFG = """\
experiment.block_size = 32
experiment.trials = 2
experiment.d2_grid = 1.0, 2.0
experiment.rho_values = 0.0, 0.5
experiment.master_seed = 11
optimizer.tone_grid_points = 21
optimizer.refine_steps = 2
oracle.k1_instances = 2
oracle.k2_instances = 1
"""


@pytest.fixture
def cfg_path(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(SMALL_CFG)
    return str(path)


def _run(args):
    return main(list(args))


def test_default_config_prints_annotated_template(capsys, tmp_path):
    assert _run(["default-config", "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().out == ANNOTATED_DEFAULTS


def test_channel_outputs_and_reruns_identically(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["channel", "--config", cfg_path, "--output-dir", str(out)]
    assert _run(args) == 0
    printed = capsys.readouterr().out.splitlines()
    taps = out / "channel_taps.csv"
    resp = out / "channel_response.csv"
    assert printed == [str(taps), str(resp)]
    assert taps.read_text().splitlines()[1] == "tap,sd_re,sd_im,sr_re,sr_im,rd_re,rd_im"
    manifest = (out / "channel.manifest.txt").read_text()
    assert "command=channel" in manifest
    assert "master_seed=11" in manifest
    assert "outputs=channel_taps.csv,channel_response.csv" in manifest
    first = (taps.read_bytes(), resp.read_bytes())
    assert _run(args) == 0
    assert (taps.read_bytes(), resp.read_bytes()) == first


def test_bounds_values_match_library(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["bounds", "--config", cfg_path, "--output-dir", str(out), "--per-tone"]
    assert _run(args) == 0
    capsys.readouterr()
    config = ExperimentConfig(block_size=32, trials=2, d2_grid=(1.0, 2.0),
                              rho_values=(0.0, 0.5), master_seed=11,
                              optimizer=OptimizerSettings(tone_grid_points=21,
                                                          refine_steps=2))
    report = run_trial(config, Geometry(3.0, 1.0), 0.0, trial_index=0)
    lines = (out / "bounds.csv").read_text().splitlines()
    assert lines[0] == "bound,rate_bits_per_sample"
    values = {name: float(v) for name, v in (ln.split(",") for ln in lines[1:])}
    for name, expected in report.rows():
        assert values[name] == expected
    tone_lines = (out / "bounds_per_tone.csv").read_text().splitlines()
    assert len(tone_lines) == 1 + 32
    assert tone_lines[0].startswith("tone,")
    first = (out / "bounds.csv").read_bytes()
    assert _run(args) == 0
    assert (out / "bounds.csv").read_bytes() == first


def test_bounds_bits_per_second_scaling(cfg_path, tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert _run(["bounds", "--config", cfg_path, "--output-dir", str(out_a)]) == 0
    assert _run(["bounds", "--config", cfg_path, "--output-dir", str(out_b),
                 "--bits-per-second"]) == 0
    capsys.readouterr()

    def parse(path):
        rows = path.read_text().splitlines()
        return rows[0], {n: float(v) for n, v in (ln.split(",") for ln in rows[1:])}

    header_a, vals_a = parse(out_a / "bounds.csv")
    header_b, vals_b = parse(out_b / "bounds.csv")
    assert header_a.endswith("bits_per_sample")
    assert header_b.endswith("bits_per_second")
    for name, v in vals_a.items():
        assert vals_b[name] == pytest.approx(v * 500e6, rel=1e-12)
    assert "rate_unit=bits_per_second" in (out_b / "bounds.manifest.txt").read_text()


def test_sweep_distance_artifacts(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(["sweep-distance", "--config", cfg_path,
                 "--output-dir", str(out)]) == 0
    capsys.readouterr()
    csv_text = (out / "sweep_distance.csv").read_text()
    _, _, groups = parse_sweep_csv(csv_text)
    assert set(groups) == {"cutset", "pdf", "df", "direct"}
    assert groups["pdf"][0] == [1.0, 2.0]
    # the figure is a pure function of the CSV it sits next to
    svg = (out / "sweep_distance.svg").read_text()
    assert svg == sweep_chart(csv_text, title="Relay bounds vs relay position")
    manifest = (out / "sweep-distance.manifest.txt").read_text()
    assert "outputs=sweep_distance.csv,sweep_distance.svg" in manifest
    first = (out / "sweep_distance.csv").read_bytes()
    assert _run(["sweep-distance", "--config", cfg_path,
                 "--output-dir", str(out)]) == 0
    assert (out / "sweep_distance.csv").read_bytes() == first


def test_sweep_rho_artifacts(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    assert _run(["sweep-rho", "--config", cfg_path, "--output-dir", str(out),
                 "--verbose"]) == 0
    captured = capsys.readouterr()
    assert "sweep-rho: 1/2 grid points" in captured.err
    assert re.search(r"sweep-rho: 2/2 grid points, [0-9.e+]+ trials/s, "
                     r"ETA 0 s$", captured.err, re.MULTILINE)
    assert "trials/s" not in (out / "sweep_rho.csv").read_text()
    _, _, groups = parse_sweep_csv((out / "sweep_rho.csv").read_text())
    assert set(groups) == {"cutset[rho=0]", "cutset[rho=0.5]", "pdf", "df", "direct"}


def test_single_point_sweep_row_equals_bounds(tmp_path, capsys):
    cfg = tmp_path / "one.cfg"
    cfg.write_text("""\
experiment.block_size = 32
experiment.trials = 1
experiment.d2_grid = 1.9
experiment.rho_values = 0.0
experiment.master_seed = 11
optimizer.tone_grid_points = 21
optimizer.refine_steps = 2
""")
    out = tmp_path / "run"
    assert _run(["bounds", "--config", str(cfg), "--output-dir", str(out)]) == 0
    assert _run(["sweep-distance", "--config", str(cfg),
                 "--output-dir", str(out)]) == 0
    capsys.readouterr()
    bounds = {n: float(v) for n, v in
              (ln.split(",") for ln in
               (out / "bounds.csv").read_text().splitlines()[1:])}
    _, _, groups = parse_sweep_csv((out / "sweep_distance.csv").read_text())
    assert groups["pdf"][1][0] == bounds["pdf_rate"]
    assert groups["df"][1][0] == bounds["df_rate"]
    assert groups["cutset"][1][0] == bounds["cutset_rate"]
    assert groups["direct"][1][0] == bounds["direct_rate"]


def test_oracle_check_passes(cfg_path, tmp_path, capsys):
    assert _run(["oracle-check", "--config", cfg_path,
                 "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("oracle-check PASS: 6 comparisons")
    assert "bits" in out


def test_malformed_config_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment.bogus = 1\n")
    assert _run(["bounds", "--config", str(bad),
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "experiment.bogus" in err
    worse = tmp_path / "worse.cfg"
    worse.write_text("experiment.trials = nope\n")
    assert _run(["bounds", "--config", str(worse),
                 "--output-dir", str(tmp_path)]) == 2
    # a key set twice names both lines instead of keeping the last value
    twice = tmp_path / "twice.cfg"
    twice.write_text("experiment.trials = 5\nexperiment.trials = 7\n")
    capsys.readouterr()
    assert _run(["bounds", "--config", str(twice),
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "twice.cfg:2: repeated key 'experiment.trials' (first set on line 1)" in err
    # a correlation the cut-set step would reject is caught at load time
    limit = tmp_path / "limit.cfg"
    limit.write_text("experiment.rho_values = 0.9999999995\n")
    capsys.readouterr()
    assert _run(["bounds", "--config", str(limit),
                 "--output-dir", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "rho" in err
    # two correlations that would share one sweep-rho series label
    collide = tmp_path / "collide.cfg"
    collide.write_text("experiment.rho_values = 0.6, 0.6000001\n")
    assert _run(["sweep-rho", "--config", str(collide),
                 "--output-dir", str(tmp_path / "collide")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "cutset[rho=0.6]" in err
    assert not (tmp_path / "collide" / "sweep_rho.csv").exists()
    # PSD levels without a finite, positive integrated power
    for line in ("experiment.psd_tx_dbm_per_mhz = nan",
                 "experiment.psd_noise_dbm_per_mhz = inf",
                 "experiment.psd_tx_dbm_per_mhz = 1e308"):
        psd = tmp_path / "psd.cfg"
        psd.write_text(line + "\n")
        assert _run(["bounds", "--config", str(psd),
                     "--output-dir", str(tmp_path / "psd")]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert line.split()[0].split(".")[1] in err
        assert not (tmp_path / "psd" / "bounds.csv").exists()
    # an oracle step that does not divide [0, 1] into whole steps
    for value in ("0.3", "0.4"):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"oracle.resolution = {value}\n")
        assert _run(["oracle-check", "--config", str(grid),
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "oracle.resolution" in err


def test_negative_seed_override_exits_2(cfg_path, tmp_path, capsys):
    assert _run(["bounds", "--config", cfg_path, "--output-dir", str(tmp_path),
                 "--seed", "-1"]) == 2
    assert "--seed" in capsys.readouterr().err


def test_negative_trial_exits_2(cfg_path, tmp_path, capsys):
    for command in ("bounds", "channel"):
        assert _run([command, "--config", cfg_path, "--output-dir", str(tmp_path),
                     "--trial", "-1"]) == 2
        assert "--trial" in capsys.readouterr().err


def test_seed_override_changes_outputs(cfg_path, tmp_path, capsys):
    out_a, out_b, out_c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for out, seed in ((out_a, "1"), (out_b, "2"), (out_c, "1")):
        assert _run(["bounds", "--config", cfg_path, "--output-dir", str(out),
                     "--seed", seed]) == 0
    capsys.readouterr()
    text_a = (out_a / "bounds.csv").read_text()
    assert text_a != (out_b / "bounds.csv").read_text()
    assert text_a == (out_c / "bounds.csv").read_text()
    assert "master_seed=1" in (out_a / "bounds.manifest.txt").read_text()


def test_output_dir_env_default(cfg_path, tmp_path, monkeypatch, capsys):
    target = tmp_path / "from_env"
    monkeypatch.setenv("UWBRELAY_OUTPUT_DIR", str(target))
    assert _run(["bounds", "--config", cfg_path]) == 0
    capsys.readouterr()
    assert (target / "bounds.csv").is_file()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        _run(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("uwbrelay ")


def test_unreadable_config_exits_2(tmp_path, capsys):
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\n")
    for path in (tmp_path / "missing.cfg", tmp_path, binary):
        assert _run(["bounds", "--config", str(path),
                     "--output-dir", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert f"uwbrelay: configuration error: cannot read {path}: " in err
    assert not (tmp_path / "out" / "bounds.csv").exists()


# SHA-256 of every CSV and SVG the commands below write with PINNED_CFG;
# any change to a number, its formatting or the chart shows up here
PINNED_CFG = """\
experiment.block_size = 64
experiment.trials = 3
experiment.d2_grid = 0.5, 1.9, 2.5
experiment.rho_values = 0.0, 0.6, 0.9
optimizer.tone_grid_points = 41
"""
PINNED_SHA256 = {
    "channel_taps.csv": "78a8f22f15e05fd881a61cfb643f0a20b48103898b6a7703c2d7f58dae73f7d0",
    "channel_response.csv": "840c58583e58debc1d3890969b703a9861b5ad5a8dc404c55643a4196b59b26d",
    "bounds.csv": "2c1a1c776c35365f03c57755c447f118b38a242fce469a7712c08c008c0ad329",
    "bounds_per_tone.csv": "b309c339a8e1385334f015e0d57bdc29c5a65dd66dd5ac6c827923265569ad8e",
    "sweep_distance.csv": "02357b1f5ca27ae6dd42614095b9cea2adafde6a2742aff504127c5606009aac",
    "sweep_distance.svg": "07581cabdafb9ab48375aba664bb45feefd0856fed39ca4c0809ac16823a43b4",
    "sweep_rho.csv": "969289a9f6a8f70ffb6d0119a9627acfb558c6129e65a6d4fd78e575118276f6",
    "sweep_rho.svg": "dd4869be9988b5d6d5467eadaa78aabd20376570cbd535fa509a13302db38ed0",
}


def test_artifacts_match_pinned_hashes(tmp_path, capsys):
    cfg = tmp_path / "pinned.cfg"
    cfg.write_text(PINNED_CFG)
    out = tmp_path / "run"
    common = ["--config", str(cfg), "--output-dir", str(out)]
    for args in (["channel", "--trial", "1"], ["bounds", "--per-tone", "--trial", "2"],
                 ["sweep-distance"], ["sweep-rho"]):
        assert _run(args + common) == 0
    capsys.readouterr()
    written = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.iterdir() if p.suffix in (".csv", ".svg")}
    assert written == PINNED_SHA256


TRUNCATING_CFG = """\
experiment.block_size = 8
experiment.trials = 1
experiment.d2_grid = 1.0
sv.max_delay = 400
optimizer.tone_grid_points = 21
"""


def test_dropped_tap_energy_reported_on_stderr(tmp_path, capsys):
    cfg = tmp_path / "truncating.cfg"
    cfg.write_text(TRUNCATING_CFG)
    for command in ("channel", "bounds", "sweep-distance"):
        out = tmp_path / command
        assert _run([command, "--config", str(cfg), "--output-dir", str(out)]) == 0
        captured = capsys.readouterr()
        # stdout still lists only the artifacts
        assert all(line.startswith(str(out)) for line in captured.out.splitlines())
        lines = captured.err.splitlines()
        assert [line.split()[3] for line in lines] == ["sd", "sr", "rd"]
        assert lines[0].startswith(
            "uwbrelay: warning: link sd dropped 47% of its path energy beyond 8 taps")
        for path in out.iterdir():
            assert "dropped" not in path.read_text()


def test_dropped_tap_energy_reported_when_the_command_fails(tmp_path, capsys):
    cfg = tmp_path / "truncating.cfg"
    cfg.write_text(TRUNCATING_CFG)
    out = tmp_path / "out"
    (out / "bounds.csv.tmp").mkdir(parents=True)  # the artifact write fails
    assert _run(["bounds", "--config", str(cfg), "--output-dir", str(out)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[3] for line in lines[:3]] == ["sd", "sr", "rd"]
    assert lines[3].startswith("uwbrelay: error:")
    assert len(lines) == 4


def test_default_channel_draw_is_silent(tmp_path, capsys):
    assert _run(["channel", "--output-dir", str(tmp_path)]) == 0
    assert capsys.readouterr().err == ""
