"""Command line subcommands run in-process against small configurations."""

import hashlib
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from uwbrelay import cli
from uwbrelay.cli import _csv_table, main
from uwbrelay.configfile import ANNOTATED_DEFAULTS
from uwbrelay.experiments import ExperimentConfig, Geometry, draw_links, run_trial
from uwbrelay.optimizer import OptimizerSettings
from uwbrelay.svgplot import parse_sweep_csv, sweep_chart

ROOT = Path(__file__).resolve().parent.parent

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


def test_csv_table_renders_columns_after_the_index():
    columns = {"x": np.array([0.1, -0.0]), "y": np.array([1e-300, 2.0])}
    assert _csv_table("tone", columns) == "tone,x,y\n0,0.1,1e-300\n1,-0.0,2.0\n"
    assert _csv_table("tap", {"x": np.array([3.0])}, "# note").splitlines() == [
        "# note", "tap,x", "0,3.0"]


def test_channel_csvs_hold_the_draw(tmp_path, capsys):
    # block 128 keeps every path, so the three links end at different taps
    cfg = tmp_path / "wide.cfg"
    cfg.write_text("experiment.block_size = 128\nexperiment.trials = 2\n"
                   "experiment.d2_grid = 1.3\n")
    out = tmp_path / "run"
    assert _run(["channel", "--config", str(cfg), "--output-dir", str(out),
                 "--trial", "1"]) == 0
    assert capsys.readouterr().err == ""
    config = ExperimentConfig(block_size=128, trials=2, d2_grid=(1.3,))
    links = draw_links(config, Geometry(config.d1, 1.3), 1)
    spans = {taps.taps.size for taps, _ in links.values()}
    assert len(spans) > 1
    for file, block, index in (("channel_taps.csv", max(spans), 0),
                               ("channel_response.csv", 128, 1)):
        lines = (out / file).read_text().splitlines()
        assert len(lines) == 2 + block
        table = np.array([[float(v) for v in ln.split(",")] for ln in lines[2:]])
        assert np.array_equal(table[:, 0], np.arange(block))
        for k, (name, link) in enumerate(links.items()):
            values = link[0].taps if index == 0 else link[1]
            expected = np.zeros(block, dtype=complex)
            expected[:values.size] = values
            assert lines[1].split(",")[1 + 2 * k] == f"{name}_re"
            assert np.array_equal(table[:, 1 + 2 * k] + 1j * table[:, 2 + 2 * k],
                                  expected)


def test_bounds_values_match_library(cfg_path, tmp_path, capsys):
    out = tmp_path / "run"
    args = ["bounds", "--config", cfg_path, "--output-dir", str(out), "--per-tone"]
    assert _run(args + ["--verbose"]) == 0
    err = capsys.readouterr().err.splitlines()
    config = ExperimentConfig(block_size=32, trials=2, d2_grid=(1.0, 2.0),
                              rho_values=(0.0, 0.5), master_seed=11,
                              optimizer=OptimizerSettings(tone_grid_points=21,
                                                          refine_steps=2))
    report = run_trial(config, Geometry(3.0, 1.0), 0.0, trial_index=0)
    # --verbose prints the six flags, then block 32's three truncation lines
    assert len(report.flags) == 6 and len(err) == 6 + 3
    assert err[:6] == [f"# {key} = {value}" for key, value in report.flags.items()]
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


def test_oracle_check_verbose_prints_plain_floats(cfg_path, tmp_path, capsys):
    assert _run(["oracle-check", "--config", cfg_path, "--output-dir",
                 str(tmp_path), "--verbose"]) == 0
    rows = capsys.readouterr().out.splitlines()[:-1]
    assert len(rows) == 6 and any(row.startswith("block=2 ") for row in rows)
    assert not any("np.float64(" in row for row in rows)


def test_oracle_check_without_instances_exits_2(tmp_path, capsys):
    cfg = tmp_path / "none.cfg"
    cfg.write_text("oracle.k1_instances = 0\noracle.k2_instances = 0\n")
    assert _run(["oracle-check", "--config", str(cfg),
                 "--output-dir", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "oracle-check: no instances configured\n"


def test_other_warnings_are_still_shown(cfg_path, tmp_path, monkeypatch, capsys):
    # only truncation warnings are folded into stderr summary lines
    def noisy_run_trial(*args, **kwargs):
        warnings.warn("solver note", RuntimeWarning)
        return run_trial(*args, **kwargs)

    monkeypatch.setattr(cli, "run_trial", noisy_run_trial)
    with pytest.warns(RuntimeWarning, match="solver note"):
        assert _run(["bounds", "--config", cfg_path,
                     "--output-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[3] for line in lines] == ["sd", "sr", "rd"]


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
    # a pathloss law without a positive slope
    slope = tmp_path / "slope.cfg"
    slope.write_text("pathloss.exponent = 0\n")
    assert _run(["channel", "--config", str(slope),
                 "--output-dir", str(tmp_path / "slope")]) == 2
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "exponent" in err
    # an oracle step that does not divide [0, 1] into whole steps
    for value in ("0.3", "0.4"):
        grid = tmp_path / "grid.cfg"
        grid.write_text(f"oracle.resolution = {value}\n")
        assert _run(["oracle-check", "--config", str(grid),
                     "--output-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "configuration error" in err
        assert "oracle.resolution" in err


@pytest.mark.parametrize("command", ["bounds", "sweep-distance"])
@pytest.mark.parametrize("key", ["pathloss.shadowing_sigma_db", "pathloss.exponent"])
def test_pathloss_overflow_is_one_error_line(key, command, tmp_path, capsys):
    # a loss of about -1e300 dB has no float tap amplitude: one error line
    # and exit 1, not an OverflowError traceback
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("experiment.block_size = 16\nexperiment.trials = 2\n"
                   f"experiment.d2_grid = 0.5, 2.0\n{key} = 1e300\n")
    assert _run([command, "--config", str(cfg),
                 "--output-dir", str(tmp_path / "out")]) == 1
    last = capsys.readouterr().err.splitlines()[-1]
    assert re.fullmatch(r"uwbrelay: error: pathloss of -\S+e\+(299|300) dB at "
                        r"\S+ m overflows the tap amplitude", last), last
    if key == "pathloss.exponent":
        assert last == ("uwbrelay: error: pathloss of -3.010299956639812e+300 "
                        "dB at 0.5 m overflows the tap amplitude")
    assert not (tmp_path / "out").exists()


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


def test_output_dir_made_only_where_files_are_written(cfg_path, tmp_path,
                                                      monkeypatch, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("experiment.bogus = 1\n")
    runs = ((["default-config"], 0), (["oracle-check", "--config", cfg_path], 0),
            (["bounds", "--config", str(bad)], 2))
    for args, code in runs:
        flag = tmp_path / "flag" / args[0]
        assert _run(args + ["--output-dir", str(flag)]) == code
        env = tmp_path / "env" / args[0]
        monkeypatch.setenv("UWBRELAY_OUTPUT_DIR", str(env))
        assert _run(args) == code
        monkeypatch.delenv("UWBRELAY_OUTPUT_DIR")
        assert not flag.exists() and not env.exists()
    capsys.readouterr()
    nested = tmp_path / "a" / "b" / "c"
    assert _run(["channel", "--config", cfg_path, "--output-dir", str(nested)]) == 0
    assert capsys.readouterr().out.splitlines()[0] == str(nested / "channel_taps.csv")
    assert (nested / "channel.manifest.txt").is_file()
    # a directory that cannot be made is a runtime error, not a traceback
    blocked = nested / "channel_taps.csv" / "run"
    assert _run(["channel", "--config", cfg_path, "--output-dir", str(blocked)]) == 1
    assert capsys.readouterr().err.splitlines()[-1].startswith("uwbrelay: error:")


def test_output_dir_env_default(cfg_path, tmp_path, monkeypatch, capsys):
    # main reuses one parser, so the variable is read at each parse
    for target in (tmp_path / "from_env", tmp_path / "changed_env"):
        monkeypatch.setenv("UWBRELAY_OUTPUT_DIR", str(target))
        assert _run(["bounds", "--config", cfg_path]) == 0
        capsys.readouterr()
        assert (target / "bounds.csv").is_file()


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        _run(["--version"])
    assert excinfo.value.code == 0
    assert capsys.readouterr().out.startswith("uwbrelay ")


@pytest.mark.parametrize("args, code, stream, start", [
    (["--version"], 0, "stdout", "uwbrelay "),
    (["bounds", "--config", "missing.cfg"], 2, "stderr",
     "uwbrelay: configuration error: "),
])
def test_module_entry_point_exits_with_the_status_of_main(tmp_path, args, code,
                                                          stream, start):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-m", "uwbrelay.cli", *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert done.returncode == code
    assert getattr(done, stream).startswith(start)


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


# SHA-256 of the default `oracle-check --verbose` stdout, recorded like
# PINNED_SHA256 with numpy 2.4.6: every optimizer and oracle value and the
# verdict line, as printed
ORACLE_CHECK_SHA256 = "615c18f2c4bd9584e9290ae841e6cd4848f7da6b1c798f22d87af63e4d3b4edf"


def test_default_oracle_check_stdout_is_pinned(tmp_path, capsys):
    assert _run(["oracle-check", "--verbose", "--output-dir", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == ORACLE_CHECK_SHA256


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


@pytest.mark.parametrize("command", ["sweep-distance", "sweep-rho"])
def test_sweep_reports_each_truncated_draw_once(command, tmp_path, capsys):
    # 2 trials at 3 relay positions are 2 draws per link, not 6
    cfg = tmp_path / "truncating.cfg"
    cfg.write_text(TRUNCATING_CFG.replace("experiment.trials = 1",
                                          "experiment.trials = 2")
                   .replace("experiment.d2_grid = 1.0",
                            "experiment.d2_grid = 0.5, 1.0, 2.0"))
    assert _run([command, "--config", str(cfg), "--output-dir", str(tmp_path)]) == 0
    lines = capsys.readouterr().err.splitlines()
    assert [line.split()[3] for line in lines] == ["sd", "sr", "rd"]
    assert all(line.endswith(" (worst of 2 draws)") for line in lines)


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
