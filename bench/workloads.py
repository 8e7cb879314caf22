"""The benchmark's workloads: how each op is generated from the workload
seed, and how its artifacts are checked.

An op is one `uwbrelay` command line.  Its config file and `--seed` are
derived from (workload name, workload seed, op index) only, so the same
seed always produces the same ops.  `check` validates everything the op
wrote and returns the values the metrics and the recorded references
need.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass, field

# rate comparisons between bounds allow this much float noise (bits); the
# program's own RateReport check uses the same slack
ORDER_SLACK_BITS = 1e-9
# every rate here is a maximization: an op fails when one falls below its
# recorded reference by more than this relative distance (the repository's
# golden tests use 1e-12); a higher rate is a better search and passes
REFERENCE_RTOL = 1e-9

DEFAULT_MASTER_SEED = 20260814
BOUND_NAMES = ("pdf_rate", "df_rate", "cutset_rate", "degraded_capacity",
               "revdeg_capacity", "direct_rate")
PER_TONE_HEADER = ("tone,mac_cut_snr,decode_cut_snr,broadcast_cut_snr,"
                   "cooperative_at_dest,auxiliary_at_relay,auxiliary_at_dest,"
                   "fresh_at_dest")
SWEEP_HEADER = "source_relay_distance_m,bound,mean_bits_per_sample,stderr,trials"


@dataclass(frozen=True)
class Op:
    index: int
    argv: tuple
    config_path: str
    config_text: str
    out_dir: str
    trials: int  # channel draws (or oracle instances) the op evaluates
    params: dict = field(default_factory=dict)


@dataclass
class Outcome:
    code: int
    stdout: str
    files: dict  # artifact name -> bytes
    error: str = ""


@dataclass
class Checked:
    failures: list = field(default_factory=list)
    # maximized rates compared against references.json
    reference: list = field(default_factory=list)
    # sums for the rate-share metrics: rate and the reference it is divided by
    shares: dict = field(default_factory=dict)
    # mean rate per bound over this op (bits per sample)
    rates: dict = field(default_factory=dict)
    oracle_dev: float = 0.0


def _rng(workload: str, seed: int, index: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{index}")


def _finite_nonneg(value: float) -> bool:
    return math.isfinite(value) and value >= 0.0


def _parse_float(text: str, what: str, failures: list) -> float:
    try:
        return float(text)
    except ValueError:
        failures.append(f"{what}: not a number: {text!r}")
        return math.nan


def _check_manifest(files: dict, command: str, seed: int, outputs: list,
                    failures: list) -> None:
    raw = files.get(f"{command}.manifest.txt")
    if raw is None:
        failures.append(f"missing {command}.manifest.txt")
        return
    lines = raw.decode().splitlines()
    for want in (f"command={command}", f"master_seed={seed}",
                 f"outputs={','.join(outputs)}"):
        if want not in lines:
            failures.append(f"manifest lacks {want!r}")


def _ordered(lower: float, upper: float) -> bool:
    return lower <= upper + ORDER_SLACK_BITS


def cutset_envelope(instance, powers) -> float:
    """Closed-form ceiling of the cut-set bound on one instance: the
    multiple-access term at full coherence against the broadcast term with
    no cooperation.  Every split the cut-set optimizer can return scores
    at most this, so cut-set / envelope measures how close it gets."""
    from uwbrelay import rates
    from uwbrelay.optimizer import aligned_split
    full = aligned_split(instance, 1.0, 1.0)
    mac = rates.cap(rates.mac_cut_snr(
        instance.g_sd, instance.g_rd, powers.p_src, powers.p_rel,
        instance.n_dest, full.relay_corr, full.aux_corr)).mean()
    zero = [0.0] * instance.block_size
    bc = rates.cap(rates.broadcast_cut_snr(
        instance.g_sd, instance.g_sr, powers.p_src, instance.n_dest,
        instance.n_relay, zero, zero, instance.noise_corr)).mean()
    return float(min(mac, bc))


_COMMON_CALLS = ("cli.main", "configfile.load_config", "optimizer.optimize_pdf",
                 "optimizer.optimize_cutset", "rates.pdf_rate")
_CHANNEL_CALLS = _COMMON_CALLS + (
    "optimizer.optimize_degraded", "experiments.build_instance",
    "svchannel.sample_impulse_response", "svchannel.discretize_taps")


class Workload:
    name = ""
    why = ""
    # traced functions every run of the workload must call; a traced run
    # that never sees one fails instead of reporting the layer as zero
    must_call: tuple = ()

    def op(self, seed: int, index: int, work_dir: str) -> Op:
        raise NotImplementedError

    def check(self, op: Op, outcome: Outcome) -> Checked:
        raise NotImplementedError

    def _op(self, index, work_dir, argv, config_text, trials, **params) -> Op:
        op_dir = os.path.join(work_dir, f"op{index}")
        config_path = os.path.join(op_dir, "op.cfg")
        out_dir = os.path.join(op_dir, "out")
        argv = (argv[0], "--config", config_path, "--output-dir", out_dir, *argv[1:])
        return Op(index, argv, config_path, config_text, out_dir, trials, params)


class SweepRho(Workload):
    """`uwbrelay sweep-rho` at the acceptance-sweep shape (block 128,
    41-point grid, three noise correlations) on four of the default relay
    positions, two trials each, one fresh master seed per op."""

    name = "sweep-rho-b128"
    why = ("acceptance-sweep shape (block 128, grid 41, 3 rho): refinement, "
           "per-call overhead, per-rho cut-set work and the sweep loop dominate")
    must_call = _CHANNEL_CALLS + ("experiments.sweep_rho", "svgplot.sweep_chart")
    RHOS = ("0.0", "0.6", "0.9")
    # Near the source the weight bisection runs (~0.3 s a trial); from 1.9 m
    # on one term dominates and the solve stops early (~0.05 s).  Both
    # regimes are kept; 1.37 m is left out because it flips between them
    # from draw to draw, which would make op times bimodal.
    D2 = ("0.3", "0.8333333333", "1.9", "2.4333333333")
    TRIALS = 2

    def op(self, seed, index, work_dir):
        master = _rng(self.name, seed, index).randrange(2 ** 31)
        text = ("experiment.block_size = 128\n"
                f"experiment.trials = {self.TRIALS}\n"
                f"experiment.rho_values = {', '.join(self.RHOS)}\n"
                f"experiment.d2_grid = {', '.join(self.D2)}\n"
                "optimizer.tone_grid_points = 41\n")
        return self._op(index, work_dir, ("sweep-rho", "--seed", str(master)), text,
                        trials=len(self.D2) * self.TRIALS,
                        master=master, d2=tuple(float(x) for x in self.D2))

    def check(self, op, outcome):
        out = Checked()
        fail = out.failures
        if outcome.code != 0:
            fail.append(f"exit code {outcome.code}: {outcome.error.strip()[-300:]}")
            return out
        _check_manifest(outcome.files, "sweep-rho", op.params["master"],
                        ["sweep_rho.csv", "sweep_rho.svg"], fail)
        svg = outcome.files.get("sweep_rho.svg", b"").decode().strip()
        if not (svg.startswith("<svg") and svg.endswith("</svg>")):
            fail.append("sweep_rho.svg is not a complete <svg> document")
        raw = outcome.files.get("sweep_rho.csv")
        if raw is None:
            fail.append("missing sweep_rho.csv")
            return out
        lines = raw.decode().splitlines()
        cuts = [f"cutset[rho={float(r):g}]" for r in self.RHOS]
        bounds = cuts + ["pdf", "df", "direct"]
        if not lines or lines[0] != SWEEP_HEADER:
            fail.append("sweep_rho.csv header differs")
            return out
        rows = [line.split(",") for line in lines[1:]]
        expected = [(d2, name) for d2 in op.params["d2"] for name in bounds]
        if len(rows) != len(expected) or any(len(r) != 5 for r in rows):
            fail.append(f"sweep_rho.csv has {len(rows)} rows, want {len(expected)}")
            return out
        means = {}
        for row, (d2, name) in zip(rows, expected):
            where = f"sweep_rho.csv row {name}@{d2}"
            if _parse_float(row[0], where, fail) != d2 or row[1] != name:
                fail.append(f"{where}: found {row[1]}@{row[0]} (rows out of order)")
                continue
            mean = _parse_float(row[2], where, fail)
            stderr = _parse_float(row[3], where, fail)
            if not (_finite_nonneg(mean) and _finite_nonneg(stderr)):
                fail.append(f"{where}: mean {row[2]} / stderr {row[3]} not finite >= 0")
            if row[4] != str(self.TRIALS):
                fail.append(f"{where}: trials {row[4]}, want {self.TRIALS}")
            means[(d2, name)] = mean
            if name != "direct":
                out.reference.append(mean)
        if fail:
            return out
        for d2 in op.params["d2"]:
            if not _ordered(means[(d2, "df")], means[(d2, "pdf")]):
                fail.append(f"df > pdf at d2={d2}")
            for name in cuts:
                if not _ordered(means[(d2, "pdf")], means[(d2, name)]):
                    fail.append(f"pdf > {name} at d2={d2}")
        out.rates = {
            "pdf": _mean(means[(d2, "pdf")] for d2 in op.params["d2"]),
            "df": _mean(means[(d2, "df")] for d2 in op.params["d2"]),
            "cutset": _mean(means[(d2, c)] for d2 in op.params["d2"] for c in cuts),
        }
        out.shares = self._shares(op, means, cuts)
        return out

    def _shares(self, op, means, cuts):
        from uwbrelay.configfile import parse_config_text
        from uwbrelay.experiments import Geometry, build_instance, powers_from_config
        exp = parse_config_text(op.config_text).experiment
        exp.master_seed = op.params["master"]
        powers = powers_from_config(exp)[0]
        env = 0.0
        for d2 in op.params["d2"]:
            for rho in self.RHOS:
                env += _mean(cutset_envelope(
                    build_instance(exp, Geometry(exp.d1, d2), float(rho), t), powers)
                    for t in range(self.TRIALS))
        pdf = sum(means[(d2, "pdf")] for d2 in op.params["d2"])
        cut0 = sum(means[(d2, cuts[0])] for d2 in op.params["d2"])
        cut = sum(means[(d2, c)] for d2 in op.params["d2"] for c in cuts)
        return {"pdf": (pdf, cut0), "cutset": (cut, env)}


class Bounds(Workload):
    """`uwbrelay bounds --per-tone --trial i` at the default config (block
    1024, 101-point grid), consecutive trials of one master seed."""

    name = "bounds-b1024"
    why = ("default config (block 1024, grid 101): the dense coarse argmax of "
           "optimize_pdf dominates; run_trial's per-tone extras, no sweep loop")
    must_call = _CHANNEL_CALLS + ("experiments.run_trial",)

    def op(self, seed, index, work_dir):
        master = DEFAULT_MASTER_SEED + seed
        text = "# built-in defaults: block 1024, 101-point tone grid\n"
        return self._op(index, work_dir,
                        ("bounds", "--per-tone", "--trial", str(index),
                         "--seed", str(master)),
                        text, trials=1, master=master, trial=index)

    def check(self, op, outcome):
        out = Checked()
        fail = out.failures
        if outcome.code != 0:
            fail.append(f"exit code {outcome.code}: {outcome.error.strip()[-300:]}")
            return out
        _check_manifest(outcome.files, "bounds", op.params["master"],
                        ["bounds.csv", "bounds_per_tone.csv"], fail)
        raw = outcome.files.get("bounds.csv")
        if raw is None:
            fail.append("missing bounds.csv")
            return out
        lines = raw.decode().splitlines()
        if lines[:1] != ["bound,rate_bits_per_sample"] or \
                [line.split(",")[0] for line in lines[1:]] != list(BOUND_NAMES):
            fail.append("bounds.csv header or row order differs")
            return out
        values = {}
        for line in lines[1:]:
            name, text = line.split(",", 1)
            values[name] = _parse_float(text, f"bounds.csv {name}", fail)
            if not _finite_nonneg(values[name]):
                fail.append(f"bounds.csv {name} = {text} not finite >= 0")
        out.reference = [values[n] for n in ("pdf_rate", "df_rate", "cutset_rate")]
        self._check_per_tone(outcome.files.get("bounds_per_tone.csv"), fail)
        if fail:
            return out
        if not _ordered(values["df_rate"], values["pdf_rate"]):
            fail.append("df > pdf")
        if not _ordered(values["pdf_rate"], values["cutset_rate"]):
            fail.append("pdf > cutset")
        out.rates = {"pdf": values["pdf_rate"], "df": values["df_rate"],
                     "cutset": values["cutset_rate"]}
        out.shares = {"pdf": (values["pdf_rate"], values["cutset_rate"]),
                      "cutset": (values["cutset_rate"], self._envelope(op))}
        return out

    @staticmethod
    def _check_per_tone(raw, fail):
        if raw is None:
            fail.append("missing bounds_per_tone.csv")
            return
        lines = raw.decode().splitlines()
        if not lines or lines[0] != PER_TONE_HEADER:
            fail.append("bounds_per_tone.csv header differs")
            return
        if len(lines) != 1 + 1024:
            fail.append(f"bounds_per_tone.csv has {len(lines) - 1} tones, want 1024")
            return
        for i, line in enumerate(lines[1:]):
            cells = line.split(",")
            if cells[0] != str(i):
                fail.append(f"bounds_per_tone.csv row {i} holds tone {cells[0]}")
                return
            if len(cells) != 8 or not all(math.isfinite(float(c)) for c in cells[1:]):
                fail.append(f"bounds_per_tone.csv tone {i} is not 7 finite values")
                return

    @staticmethod
    def _envelope(op):
        from uwbrelay.configfile import parse_config_text
        from uwbrelay.experiments import Geometry, build_instance, powers_from_config
        exp = parse_config_text(op.config_text).experiment
        exp.master_seed = op.params["master"]
        instance = build_instance(exp, Geometry(exp.d1, exp.d2_grid[0]),
                                  exp.rho_values[0], op.params["trial"])
        return cutset_envelope(instance, powers_from_config(exp)[0])


class OracleCheck(Workload):
    """`uwbrelay oracle-check --seed s --verbose` on 12 one-tone instances
    (resolution 1e-3); see README.md for why two-tone instances are left
    out."""

    name = "oracle-check"
    why = ("optimizer vs exhaustive search on one-tone instances: the terms "
           "kernel on one shared 1M-point grid, per-solve overhead dominates")
    must_call = _COMMON_CALLS + ("optimizer.brute_force_oracle",)
    K1 = 12

    def op(self, seed, index, work_dir):
        oracle_seed = _rng(self.name, seed, index).randrange(2 ** 31)
        text = (f"oracle.k1_instances = {self.K1}\n"
                "oracle.k2_instances = 0\n"
                "oracle.resolution = 1e-3\n")
        return self._op(index, work_dir,
                        ("oracle-check", "--seed", str(oracle_seed), "--verbose"),
                        text, trials=self.K1)

    def check(self, op, outcome):
        out = Checked()
        fail = out.failures
        if outcome.code != 0:
            fail.append(f"exit code {outcome.code}: {outcome.error.strip()[-300:]}")
            return out
        lines = outcome.stdout.splitlines()
        comparisons = 2 * self.K1
        if len(lines) != comparisons + 1:
            fail.append(f"oracle-check printed {len(lines)} lines, want {comparisons + 1}")
            return out
        if not lines[-1].startswith(f"oracle-check PASS: {comparisons} comparisons"):
            fail.append(f"oracle-check did not pass: {lines[-1]!r}")
        sums = {"pdf": [0.0, 0.0], "cutset": [0.0, 0.0]}
        expected = [(i, obj) for i in range(self.K1) for obj in ("pdf", "cutset")]
        for line, (index, objective) in zip(lines, expected):
            fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
            if (fields.get("block"), fields.get("idx"), fields.get("obj")) != \
                    ("1", str(index), objective):
                fail.append(f"oracle-check row out of order: {line!r}")
                return out
            opt = _parse_float(fields.get("optimizer", ""), "optimizer rate", fail)
            orc = _parse_float(fields.get("oracle", ""), "oracle rate", fail)
            if not (_finite_nonneg(opt) and _finite_nonneg(orc)):
                fail.append(f"oracle-check rate not finite >= 0: {line!r}")
                return out
            sums[objective][0] += opt
            sums[objective][1] += orc
            out.oracle_dev = max(out.oracle_dev, abs(opt - orc))
            out.reference.append(opt)
        out.rates = {name: total / self.K1 for name, (total, _) in sums.items()}
        out.shares = {name: tuple(pair) for name, pair in sums.items()}
        return out


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values)


WORKLOADS = {w.name: w for w in (SweepRho(), Bounds(), OracleCheck())}
