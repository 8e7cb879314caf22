"""Command line front end.

Subcommands mirror the library surface: `channel` dumps one seeded
channel draw, `bounds` evaluates every bound on it, `sweep-distance` and
`sweep-rho` run the Monte Carlo sweeps (CSV + SVG + manifest), and
`oracle-check` compares the optimizer against exhaustive search on small
random instances.

This module owns the artifact formats.  Every per-index table (the
channel taps, the channel tones, the per-tone bounds) is rendered by one
column-wise helper, and every command's files go through one writer that
adds the manifest.  The sweep table itself is SweepResult.write_csv,
library API that svgplot.parse_sweep_csv reads back.

All outputs are deterministic given the configuration, and files are
written atomically (temp file + rename) so an interrupted run never
leaves a truncated artifact.  Exit codes: 0 success, 1 failed check or
runtime error, 2 bad usage or configuration.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
import time
import warnings

import numpy as np

from . import __version__
from .configfile import (ANNOTATED_DEFAULTS, AppConfig, ConfigError,
                         config_signature, default_config, load_config)
from .experiments import (ExperimentConfig, Geometry, draw_links, run_trial,
                          sweep_distance, sweep_rho)
from .optimizer import oracle_suite
from .svchannel import TruncatedChannelWarning
from .svgplot import sweep_chart


def _atomic_write(path: str, text: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _emit(args: argparse.Namespace, command: str, config: AppConfig,
          unit: str, files: dict[str, str]) -> int:
    """Write each named text atomically into the output directory (made
    here, so commands that write nothing leave no directory), in order,
    then the command's manifest listing them; print their paths."""
    if args.output_dir:
        os.makedirs(args.output_dir, exist_ok=True)
    paths = [os.path.join(args.output_dir, name) for name in files]
    for path, text in zip(paths, files.values()):
        _atomic_write(path, text)
    manifest = [
        f"tool=uwbrelay {__version__}",
        f"command={command}",
        f"config_sha256={config_signature(config)}",
        f"master_seed={config.experiment.master_seed}",
        f"rate_unit={unit}",
        f"outputs={','.join(files)}",
    ]
    _atomic_write(os.path.join(args.output_dir, f"{command}.manifest.txt"),
                  "\n".join(manifest) + "\n")
    print("\n".join(paths))
    return 0


def _csv_table(index: str, columns: dict, comment: str | None = None) -> str:
    """One row per index: the index first, then the repr of each column's
    .tolist() value, with an optional comment line above the header."""
    values = [column.tolist() for column in columns.values()]
    rows = zip(map(str, range(len(values[0]))), *(map(repr, v) for v in values))
    lines = [comment] if comment else []
    return "\n".join([*lines, ",".join([index, *columns]), *map(",".join, rows)]) + "\n"


def _channel_tables(exp: ExperimentConfig, links: dict) -> dict[str, str]:
    """channel_taps.csv and channel_response.csv of one draw's links
    {name: (taps, response)}: re/im columns per link, shorter tap spans
    zero-padded to the longest."""
    span = max(taps.taps.size for taps, _ in links.values())
    taps, tones = {}, {}
    for name, (link_taps, response) in links.items():
        padded = np.pad(link_taps.taps, (0, span - link_taps.taps.size))
        for table, values in ((taps, padded), (tones, response)):
            table[f"{name}_re"], table[f"{name}_im"] = values.real, values.imag
    tail = f"sample_period_ns={exp.sample_period_ns!r} seed={exp.master_seed}"
    return {"channel_taps.csv": _csv_table("tap", taps, f"# span={span} {tail}"),
            "channel_response.csv": _csv_table(
                "tone", tones, f"# block_size={exp.block_size} {tail}")}


def _load(args: argparse.Namespace) -> AppConfig:
    config = load_config(args.config) if args.config else default_config()
    if args.seed is not None:
        if args.seed < 0:
            raise ConfigError(f"--seed must be >= 0, got {args.seed}")
        config.experiment.master_seed = args.seed
        config.experiment.__post_init__()
    if getattr(args, "trial", 0) < 0:
        raise ConfigError(f"--trial must be >= 0, got {args.trial}")
    return config


@contextlib.contextmanager
def _report_dropped_energy():
    """Print one stderr line per link whose draws dropped path energy
    beyond the block: its worst share and how many draws dropped any.
    Other warnings are shown as usual."""
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", TruncatedChannelWarning)
            yield
    finally:
        worst, draws = {}, {}
        for item in caught:
            msg = item.message
            if not isinstance(msg, TruncatedChannelWarning):
                warnings.showwarning(msg, item.category, item.filename, item.lineno)
                continue
            draws[msg.link] = draws.get(msg.link, 0) + 1
            if msg.link not in worst or msg.share > worst[msg.link].share:
                worst[msg.link] = msg
        for link, msg in worst.items():
            count = f" (worst of {draws[link]} draws)" if draws[link] > 1 else ""
            print(f"uwbrelay: warning: {msg}{count}", file=sys.stderr)


def _rate_unit(args: argparse.Namespace, config: AppConfig):
    if args.bits_per_second:
        return "bits_per_second", config.experiment.bandwidth_mhz * 1e6
    return "bits_per_sample", 1.0


def _first_geometry(config: AppConfig) -> Geometry:
    exp = config.experiment
    return Geometry(exp.d1, exp.d2_grid[0])


def _progress(args: argparse.Namespace, label: str, trials: int):
    """Per grid point: trials per second so far and the time left at that
    pace."""
    if not args.verbose:
        return None
    start = time.perf_counter()

    def report(done: int, total: int) -> None:
        elapsed = time.perf_counter() - start
        eta = elapsed * (total - done) / done
        print(f"{label}: {done}/{total} grid points, "
              f"{done * trials / elapsed:.3g} trials/s, ETA {eta:.0f} s",
              file=sys.stderr)

    return report


def cmd_channel(args: argparse.Namespace) -> int:
    config = _load(args)
    exp = config.experiment
    links = draw_links(exp, _first_geometry(config), args.trial)
    return _emit(args, "channel", config, "none", _channel_tables(exp, links))


def cmd_bounds(args: argparse.Namespace) -> int:
    config = _load(args)
    exp = config.experiment
    report = run_trial(exp, _first_geometry(config), exp.rho_values[0], args.trial)
    unit, scale = _rate_unit(args, config)
    rows = [f"{name},{value * scale!r}" for name, value in report.rows()]
    files = {"bounds.csv": "\n".join([f"bound,rate_{unit}", *rows]) + "\n"}
    if args.per_tone:
        files["bounds_per_tone.csv"] = _csv_table("tone", report.per_tone)
    if args.verbose:
        for key, value in report.flags.items():
            print(f"# {key} = {value}", file=sys.stderr)
    return _emit(args, "bounds", config, unit, files)


def _run_sweep(args: argparse.Namespace, command: str, runner, title: str) -> int:
    config = _load(args)
    unit, scale = _rate_unit(args, config)
    result = runner(config.experiment,
                    progress=_progress(args, command, config.experiment.trials))
    stem = command.replace("-", "_")
    csv_text = result.write_csv(rate_unit=unit, scale=scale)
    return _emit(args, command, config, unit, {
        f"{stem}.csv": csv_text, f"{stem}.svg": sweep_chart(csv_text, title=title)})


def cmd_sweep_distance(args: argparse.Namespace) -> int:
    return _run_sweep(args, "sweep-distance", sweep_distance,
                      title="Relay bounds vs relay position")


def cmd_sweep_rho(args: argparse.Namespace) -> int:
    return _run_sweep(args, "sweep-rho", sweep_rho,
                      title="Upper bound vs noise correlation")


def cmd_oracle_check(args: argparse.Namespace) -> int:
    config = _load(args)
    orc = config.oracle
    seed = args.seed if args.seed is not None else orc.seed
    rows = oracle_suite(orc.k1_instances, orc.k2_instances, orc.resolution, seed)
    if not rows:
        print("oracle-check: no instances configured", file=sys.stderr)
        return 2
    worst = max(rows, key=lambda r: r.deviation)
    if args.verbose:
        for row in rows:
            print(f"block={row.block_size} idx={row.index} obj={row.objective} "
                  f"optimizer={row.optimizer_rate!r} oracle={row.oracle_rate!r} "
                  f"|diff|={row.deviation:.3e}")
    status = "PASS" if worst.deviation <= orc.tolerance_bits else "FAIL"
    print(f"oracle-check {status}: {len(rows)} comparisons, worst "
          f"|optimizer - oracle| = {worst.deviation:.3e} bits "
          f"(tolerance {orc.tolerance_bits:g}, block={worst.block_size}, "
          f"objective={worst.objective})")
    return 0 if status == "PASS" else 1


def cmd_default_config(args: argparse.Namespace) -> int:
    sys.stdout.write(ANNOTATED_DEFAULTS)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """A fresh parser of the command line.  --output-dir parses to None
    when not given; main then reads $UWBRELAY_OUTPUT_DIR, or uses '.'."""
    parser = argparse.ArgumentParser(
        prog="uwbrelay",
        description="Capacity bounds for wideband multipath relay channels.")
    parser.add_argument("--version", action="version",
                        version=f"uwbrelay {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", metavar="PATH",
                        help="configuration file (flat section.key = value)")
    common.add_argument("--output-dir", metavar="DIR",
                        help="artifact directory (default: $UWBRELAY_OUTPUT_DIR or .)")
    common.add_argument("--seed", type=int, default=None,
                        help="override the configured master seed")
    common.add_argument("--bits-per-second", action="store_true",
                        help="scale rates by the bandwidth instead of per-sample")
    common.add_argument("--verbose", action="store_true",
                        help="progress and per-item detail on stderr")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("channel", parents=[common],
                       help="dump one seeded three-link channel draw")
    p.add_argument("--trial", type=int, default=0,
                   help="trial index of the draw (default 0)")
    p.set_defaults(func=cmd_channel)

    p = sub.add_parser("bounds", parents=[common],
                       help="evaluate every bound on one channel draw")
    p.add_argument("--trial", type=int, default=0,
                   help="trial index of the draw (default 0)")
    p.add_argument("--per-tone", action="store_true",
                   help="also write per-tone diagnostics")
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("sweep-distance", parents=[common],
                       help="Monte Carlo bounds while moving the relay")
    p.set_defaults(func=cmd_sweep_distance)

    p = sub.add_parser("sweep-rho", parents=[common],
                       help="Monte Carlo upper bound per noise correlation")
    p.set_defaults(func=cmd_sweep_rho)

    p = sub.add_parser("oracle-check", parents=[common],
                       help="compare optimizer rates against exhaustive search")
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("default-config", parents=[common],
                       help="print the annotated default configuration")
    p.set_defaults(func=cmd_default_config)
    return parser


# one parser per process: building it costs about as much as a small op
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    if args.output_dir is None:
        args.output_dir = os.environ.get("UWBRELAY_OUTPUT_DIR", ".")
    try:
        with _report_dropped_energy():
            return args.func(args)
    except ConfigError as exc:
        print(f"uwbrelay: configuration error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"uwbrelay: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
