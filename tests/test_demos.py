"""The demo scripts and the README's library example run to completion
against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ["channel_model_tour.py", "single_instance_bounds.py",
         "capacity_coincidence.py", "relay_position_sweep.py", "oracle_check.py"]


def _run(args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, *args], cwd=cwd, env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    # relay_position_sweep.py writes its CSV and SVG to the directory given
    args = [str(tmp_path)] if demo == "relay_position_sweep.py" else []
    _run([str(ROOT / "demos" / demo), *args], tmp_path)


def test_readme_library_example_runs(tmp_path):
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1]
    stdout = _run(["-c", block.split("```", 1)[0]], tmp_path)
    assert len(stdout.splitlines()) == 2
