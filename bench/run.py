"""uwbrelay benchmark: closed-loop CLI workloads with per-layer tracing.

Run from the repository root:

    python3 bench/run.py --workload bounds-b1024 --seed 0 --seconds 30 --trace 0

One client in one process drives `uwbrelay.cli.main(argv)` in-process and
starts the next op only after the previous one returned.  Every op's
config file and `--seed` come from the workload seed; every artifact it
writes is checked.  `--trace 0` reports the end-to-end metrics, `--trace 1`
reruns the same loop with span recorders around each module's public
functions and reports the per-layer metrics.  The last line of standard
output is the JSON result; a `detail:` line before it records the
machine, the per-op timings and any failed checks.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from tracing import MissingFunctionError, Tracer, layer_table  # noqa: E402
from workloads import REFERENCE_RTOL, WORKLOADS, Checked, Outcome  # noqa: E402

END_TO_END = {
    "setup_s": "s", "op_s_p50": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB",
    "ok_share": "share", "rate_share.pdf": "share", "rate_share.cutset": "share",
}
PER_LAYER = {
    "optimizer.pdf.self_s": "s", "optimizer.pdf.solves": "count",
    "optimizer.pdf.calls": "count", "optimizer.pdf.op_share": "share",
    "optimizer.df.self_s": "s", "optimizer.df.solves": "count",
    "optimizer.cutset.self_s": "s", "optimizer.cutset.solves": "count",
    "optimizer.unconverged": "count", "optimizer.coarse_points": "count",
    "optimizer.coarse_table_mb": "MB", "optimizer.refine_points": "count",
    "optimizer.oracle.self_s": "s", "optimizer.oracle.calls": "count",
    "oracle_dev_bits": "bits",
    "svchannel.busy_s": "s", "svchannel.calls": "count",
    "svchannel.paths_per_draw": "count", "svchannel.dropped_energy_share": "share",
    "rates.busy_s": "s", "rates.calls": "count",
    "experiments.build_instance_s": "s", "experiments.sweep.self_s": "s",
    "experiments.cutset_product_share": "share",
    "configfile.load_s": "s", "svgplot.chart_s": "s", "cli.self_s": "s",
    "rate_mean.pdf": "bits", "rate_mean.df": "bits", "rate_mean.cutset": "bits",
    "process.cpu_per_wall": "share", "trace.overhead_share": "share",
}
SETUP_REPEATS = 5
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
                    "BLIS_NUM_THREADS", "PYTHONHASHSEED")

# A fresh interpreter does what `uwbrelay` does before its first op can
# start: import, build the parser, load the config.  It prints the
# monotonic clock (system-wide on Linux) when done.
SETUP_CHILD = """\
import sys, time
sys.path.insert(0, sys.argv[1])
from uwbrelay import cli
from uwbrelay.configfile import load_config
args = cli.build_parser().parse_args(sys.argv[2:])
load_config(args.config)
print(time.monotonic())
"""


def _read_first(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return ""


def machine_info() -> dict:
    import numpy
    model = ""
    for line in _read_first("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    caches = {}
    base = "/sys/devices/system/cpu/cpu0/cache"
    for entry in sorted(os.listdir(base)) if os.path.isdir(base) else ():
        level = _read_first(os.path.join(base, entry, "level"))
        kind = _read_first(os.path.join(base, entry, "type"))
        if kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read_first(os.path.join(base, entry, "size"))
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "caches": caches,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARIABLES},
        "load": "one benchmark process, no threads of its own; "
                "ops run one at a time (closed loop, one client)",
    }


def measure_setup(root: str, src: str, argv) -> float:
    """Median wall time from spawning a fresh interpreter until it could
    start the first op."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.monotonic()
        done = subprocess.run([sys.executable, "-c", SETUP_CHILD, src, *argv],
                              cwd=root, capture_output=True, text=True,
                              check=True, timeout=60)
        times.append(float(done.stdout.split()[-1]) - start)
    return statistics.median(times)


def prepare(op) -> None:
    """Write the op's config file and empty its output directory."""
    shutil.rmtree(op.out_dir, ignore_errors=True)
    os.makedirs(os.path.dirname(op.config_path), exist_ok=True)
    with open(op.config_path, "w") as fh:
        fh.write(op.config_text)


def execute(cli, op) -> tuple[Outcome, float, float]:
    """Run one op in-process; the wall and CPU times cover `cli.main`
    only."""
    prepare(op)
    out, err = io.StringIO(), io.StringIO()
    cpu = time.process_time()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(op.argv))
        except SystemExit as exc:  # argparse usage errors
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # any crash of the program is a failed op
            code = -1
            traceback.print_exc()
    wall = time.perf_counter() - start
    cpu = time.process_time() - cpu
    files = {}
    if os.path.isdir(op.out_dir):
        for name in sorted(os.listdir(op.out_dir)):
            with open(os.path.join(op.out_dir, name), "rb") as fh:
                files[name] = fh.read()
    return Outcome(code, out.getvalue(), files, err.getvalue()), wall, cpu


def same_artifacts(first: Outcome, second: Outcome) -> bool:
    return first.stdout == second.stdout and first.files == second.files


def load_references(workload: str, seed: int) -> list:
    with open(os.path.join(BENCH_DIR, "references.json")) as fh:
        return json.load(fh).get(workload, {}).get(str(seed), [])


def reference_failures(values, reference) -> list:
    if len(values) != len(reference):
        return [f"reference has {len(reference)} values, op gave {len(values)}"]
    for i, (got, want) in enumerate(zip(values, reference)):
        if not got >= want - REFERENCE_RTOL * abs(want):
            return [f"rate {i} = {got!r} is below its reference {want!r}"]
    return []


class Run:
    """One benchmark run: the timed closed loop and the checks."""

    def __init__(self, workload, seed: int, work_dir: str, cli) -> None:
        self.workload = workload
        self.seed = seed
        self.work_dir = work_dir
        self.cli = cli
        self.references = load_references(workload.name, seed)
        self.attempted = 0
        self.failures: list[str] = []
        self.failed = 0
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.checked = []
        self.ops = []

    def op(self, index: int):
        return self.workload.op(self.seed, index, self.work_dir)

    def record(self, op, outcome, extra_failures=()) -> Checked:
        try:
            checked = self.workload.check(op, outcome)
        except (ValueError, KeyError, IndexError) as exc:  # malformed artifact
            checked = Checked(failures=[f"unreadable artifact: {exc!r}"])
        problems = list(checked.failures) + list(extra_failures)
        if not problems and op.index < len(self.references):
            problems += reference_failures(checked.reference,
                                           self.references[op.index])
        self.attempted += 1
        if problems:
            self.failed += 1
            self.failures.append(f"op {op.index}: " + "; ".join(problems))
        return checked

    def loop(self, seconds: float, tracer: Tracer | None):
        """Run ops 0, 1, 2, ... until `seconds` have passed, then replay op
        0 untraced with the same argv: both runs of op 0 must leave
        byte-identical artifacts.  Returns the replay's wall time."""
        start = time.perf_counter()
        cpu = time.process_time()
        index = 0
        while True:
            op = self.op(index)
            if tracer is not None:
                tracer.op, tracer.enabled = index, True
            outcome, wall, op_cpu = execute(self.cli, op)
            if tracer is not None:
                tracer.enabled = False
            self.checked.append(self.record(op, outcome))
            self.walls.append(wall)
            self.cpus.append(op_cpu)
            self.ops.append(op)
            if index == 0:
                first = outcome
            index += 1
            if time.perf_counter() - start >= seconds:
                break
        self.loop_wall = time.perf_counter() - start
        self.loop_cpu = time.process_time() - cpu
        op = self.op(0)
        outcome, wall, _ = execute(self.cli, op)
        extra = [] if same_artifacts(first, outcome) else \
            ["op 0 run twice gave different artifacts"]
        self.record(op, outcome, extra)
        return wall

    def share(self, name: str) -> float:
        pairs = [c.shares[name] for c in self.checked if name in c.shares]
        den = sum(d for _, d in pairs)
        return sum(n for n, _ in pairs) / den if den > 0 else 0.0

    def rate_mean(self, name: str) -> float:
        values = [c.rates[name] for c in self.checked if name in c.rates]
        return sum(values) / len(values) if values else 0.0


def end_to_end(run: Run, setup_s: float) -> dict:
    usage = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return {
        "setup_s": setup_s,
        "op_s_p50": statistics.median(run.walls),
        "trials_per_s": sum(op.trials for op in run.ops) / sum(run.walls),
        "peak_rss_mb": usage / 1024.0,  # ru_maxrss is in KiB on Linux
        "ok_share": (run.attempted - run.failed) / run.attempted,
        "rate_share.pdf": run.share("pdf"),
        "rate_share.cutset": run.share("cutset"),
    }


def per_layer(run: Run, tracer: Tracer, untraced_first: float) -> dict:
    ops = len(run.walls)
    table = layer_table(tracer.spans, ops)
    table["optimizer.pdf.op_share"] = (table.pop("optimizer.pdf.inclusive_s")
                                       * ops / sum(run.walls))
    table["oracle_dev_bits"] = max((c.oracle_dev for c in run.checked), default=0.0)
    for name in ("pdf", "df", "cutset"):
        table[f"rate_mean.{name}"] = run.rate_mean(name)
    table["process.cpu_per_wall"] = run.loop_cpu / run.loop_wall
    table["trace.overhead_share"] = (run.walls[0] - untraced_first) / untraced_first
    return table


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "uwbrelay", "cli.py")):
        print(f"bench: no uwbrelay sources under {src}; run from the "
              "repository root", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import uwbrelay.cli as cli
    if not os.path.abspath(cli.__file__).startswith(src + os.sep):
        print(f"bench: imported uwbrelay from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    work_dir = os.path.join(root, ".bench_work", f"{workload.name}-{os.getpid()}")
    tracer = None
    try:
        run = Run(workload, args.seed, work_dir, cli)
        if args.trace:
            tracer = Tracer()
            try:
                tracer.install()
            except MissingFunctionError as exc:
                print(f"bench: {exc}", file=sys.stderr)
                return 3
            untraced = run.loop(args.seconds, tracer)
            called = {f"{s.layer}.{s.name}" for s in tracer.spans}
            unseen = [name for name in workload.must_call if name not in called]
            if unseen:
                print("bench: traced functions never called: " + ", ".join(unseen),
                      file=sys.stderr)
                return 3
            metrics = per_layer(run, tracer, untraced)
            units = PER_LAYER
        else:
            first = run.op(0)
            prepare(first)
            setup_s = measure_setup(root, src, first.argv)
            run.loop(args.seconds, None)
            metrics = end_to_end(run, setup_s)
            units = END_TO_END
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work_dir, ignore_errors=True)

    detail = {
        "workload": workload.name, "seed": args.seed, "trace": args.trace,
        "machine": machine_info(),
        "threads_at_end": threading.active_count(),
        "ops_timed": len(run.walls), "op_walls_s": run.walls, "op_cpu_s": run.cpus,
        "failures": run.failures[:20],
    }
    if tracer is not None:
        detail["traced_functions"] = tracer.found
        detail["rebound_names"] = sorted(tracer.rebound)
        detail["spans"] = len(tracer.spans)
    _write_detail(root, detail, tracer)
    for failure in run.failures[:20]:
        print(f"bench: failed check: {failure}", file=sys.stderr)
    print("detail: " + json.dumps({k: v for k, v in detail.items()
                                    if k not in ("op_walls_s", "op_cpu_s",
                                                 "traced_functions",
                                                 "rebound_names")}))
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


def _write_detail(root: str, detail: dict, tracer: Tracer | None) -> None:
    """Keep the run's detail, and the spans of a traced run, in .bench_out/."""
    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    record = dict(detail)
    if tracer is not None:
        record["span_rows"] = [
            [s.index, s.parent, s.op, f"{s.layer}.{s.name}", s.start, s.end, s.info]
            for s in tracer.spans]
    name = f"{detail['workload']}-seed{detail['seed']}-trace{detail['trace']}.json"
    with open(os.path.join(out_dir, name), "w") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main())
