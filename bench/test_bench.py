"""Self-tests of the benchmark harness; not part of the tier-1 suite.

    python3 -m pytest -q bench/test_bench.py

Each workload's op 0 runs once for real (about 8 s in all).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from dataclasses import replace

import pytest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import tracing  # noqa: E402
from tracing import Span, Tracer, self_times  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


@pytest.fixture(scope="module")
def first_ops(tmp_path_factory):
    """Op 0 of every workload at seed 0, with its outcome."""
    import uwbrelay.cli as cli
    work = str(tmp_path_factory.mktemp("ops"))
    out = {}
    for name, workload in WORKLOADS.items():
        op = workload.op(0, 0, os.path.join(work, name))
        out[name] = (op, run.execute(cli, op)[0])
    return out


def _with_file(outcome: Outcome, name: str, edit) -> Outcome:
    files = dict(outcome.files)
    files[name] = edit(files[name].decode()).encode()
    return replace(outcome, files=files)


def _swap_lines(text: str, i: int, j: int) -> str:
    lines = text.split("\n")
    lines[i], lines[j] = lines[j], lines[i]
    return "\n".join(lines)


CORRUPTIONS = {
    "sweep-rho-b128": [
        lambda o: _with_file(o, "sweep_rho.csv", lambda t: _swap_lines(t, 1, 2)),
        lambda o: _with_file(o, "sweep_rho.csv", lambda t: _swap_lines(t, 4, 5)),
        lambda o: _with_file(o, "sweep_rho.csv",
                             lambda t: t.replace(t.split("\n")[4].split(",")[2], "nan", 1)),
        lambda o: _with_file(o, "sweep_rho.svg", lambda t: t[: len(t) // 2]),
        lambda o: replace(o, code=1),
    ],
    "bounds-b1024": [
        lambda o: _with_file(o, "bounds.csv", lambda t: _swap_lines(t, 1, 3)),
        lambda o: _with_file(o, "bounds.csv",
                             lambda t: t.replace(t.split("\n")[2].split(",")[1], "inf")),
        lambda o: _with_file(o, "bounds_per_tone.csv", lambda t: _swap_lines(t, 5, 6)),
        lambda o: _with_file(o, "bounds_per_tone.csv", lambda t: t.replace(",", ",x", 9)),
        lambda o: _with_file(o, "bounds.manifest.txt",
                             lambda t: t.replace("master_seed=", "master_seed=9")),
    ],
    "oracle-check": [
        lambda o: replace(o, stdout=o.stdout.replace(" PASS:", " FAIL:")),
        lambda o: replace(o, stdout=_swap_lines(o.stdout, 0, 1)),
        lambda o: replace(o, stdout=o.stdout.replace("optimizer=", "optimizer=x", 1)),
    ],
}


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_intact_artifacts_pass_and_corrupted_ones_fail(first_ops, name):
    op, outcome = first_ops[name]
    workload = WORKLOADS[name]
    assert workload.check(op, outcome).failures == []
    for corrupt in CORRUPTIONS[name]:
        assert workload.check(op, corrupt(outcome)).failures, corrupt


def test_corrupted_artifact_is_counted_in_failed(first_ops, tmp_path):
    op, outcome = first_ops["sweep-rho-b128"]
    bench_run = run.Run(WORKLOADS["sweep-rho-b128"], 0, str(tmp_path), cli=None)
    bench_run.record(op, outcome)
    bench_run.record(op, CORRUPTIONS["sweep-rho-b128"][0](outcome))
    bench_run.record(op, replace(outcome, files={**outcome.files, "sweep_rho.csv": b"\xff"}))
    assert (bench_run.attempted, bench_run.failed) == (3, 2)


def test_determinism_and_reference_comparisons():
    base = Outcome(0, "out\n", {"a.csv": b"1,2\n"})
    assert run.same_artifacts(base, Outcome(0, "out\n", {"a.csv": b"1,2\n"}))
    assert not run.same_artifacts(base, Outcome(0, "out\n", {"a.csv": b"1,3\n"}))
    assert not run.same_artifacts(base, Outcome(0, "out\n", {}))
    assert run.reference_failures([1.0, 2.0], [1.0, 2.0]) == []
    assert run.reference_failures([1.0, 2.0 + 1e-6], [1.0, 2.0]) == []
    assert run.reference_failures([1.0, 2.0 - 1e-6], [1.0, 2.0])
    assert run.reference_failures([1.0], [1.0, 2.0])


def test_self_time_of_hand_built_span_tree():
    spans = [
        Span(0, None, "cli", "main", 0, 0.0, 10.0),
        Span(1, 0, "experiments", "a", 0, 1.0, 4.0),
        Span(2, 1, "optimizer", "a_child", 0, 2.0, 3.0),
        Span(3, 0, "experiments", "b", 0, 3.5, 6.0),  # overlaps a: 1..6 covered
        Span(4, 0, "rates", "c", 0, 8.0, 9.0),
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 1.0])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_ops_follow_the_workload_seed(name, tmp_path):
    workload = WORKLOADS[name]

    def ops(seed):
        return [(op.argv, op.config_text)
                for op in (workload.op(seed, i, str(tmp_path)) for i in range(3))]

    assert ops(4) == ops(4)
    assert ops(4) != ops(5)
    assert len(set(ops(4))) == 3


def test_tracer_wraps_rebound_names_and_restores_them():
    import uwbrelay.cli as cli
    import uwbrelay.experiments as experiments
    import uwbrelay.optimizer as optimizer
    originals = (optimizer.optimize_pdf, experiments.optimize_pdf, cli.sweep_rho)
    tracer = Tracer()
    tracer.install()
    try:
        assert "uwbrelay.experiments.optimize_pdf" in tracer.rebound
        assert "uwbrelay.cli.sweep_rho" in tracer.rebound
        assert experiments.optimize_pdf is not originals[1]
        assert experiments.optimize_pdf.__wrapped__ is originals[1]
        assert "optimize_pdf" in tracer.found["optimizer"]
    finally:
        tracer.uninstall()
    assert (optimizer.optimize_pdf, experiments.optimize_pdf, cli.sweep_rho) == originals


def test_missing_traced_function_fails_loudly(monkeypatch):
    monkeypatch.setitem(tracing.REQUIRED, "optimizer", ("optimize_pdf_renamed",))
    with pytest.raises(tracing.MissingFunctionError, match="optimize_pdf_renamed"):
        Tracer().install()


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER


def test_refuses_to_run_without_program_sources(tmp_path):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload",
         "oracle-check", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
