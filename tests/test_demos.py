"""The demo scripts run to completion against the current package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMOS = ["channel_model_tour.py", "single_instance_bounds.py",
         "capacity_coincidence.py", "relay_position_sweep.py", "oracle_check.py"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # relay_position_sweep.py writes its CSV and SVG to the directory given
    args = [str(tmp_path)] if demo == "relay_position_sweep.py" else []
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo), *args],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=300)
    assert done.returncode == 0, done.stderr
