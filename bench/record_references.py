"""Rewrite bench/references.json from the current program.

    python3 bench/record_references.py

For seeds 0..SEEDS-1 of every workload it runs the first OPS ops and
stores the maximized rates each op's check extracts (pdf, df and cut-set
bounds, sweep means, optimizer rates).  A benchmark run counts an op as
failed when one of these falls below its reference by more than
workloads.REFERENCE_RTOL.  Rerun this only when a change is meant to move
the rates, and say so.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)
sys.path.insert(0, os.path.join(os.getcwd(), "src"))

from run import execute  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEEDS = 64
OPS = 1


def main() -> int:
    import uwbrelay.cli as cli
    work_dir = os.path.join(os.getcwd(), ".bench_work", f"references-{os.getpid()}")
    references = {}
    try:
        for name, workload in WORKLOADS.items():
            references[name] = {}
            for seed in range(SEEDS):
                values = []
                for index in range(OPS):
                    op = workload.op(seed, index, work_dir)
                    outcome = execute(cli, op)[0]
                    checked = workload.check(op, outcome)
                    if checked.failures:
                        print(f"{name} seed {seed} op {index}: {checked.failures}",
                              file=sys.stderr)
                        return 1
                    values.append(checked.reference)
                references[name][str(seed)] = values
                print(f"{name} seed {seed}", file=sys.stderr)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # one line per workload seed
    blocks = [f" {json.dumps(name)}: {{\n" + ",\n".join(
        f"  {json.dumps(seed)}: {json.dumps(values)}" for seed, values in seeds.items())
        + "\n }" for name, seeds in references.items()]
    with open(os.path.join(BENCH_DIR, "references.json"), "w") as fh:
        fh.write("{\n" + ",\n".join(blocks) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
