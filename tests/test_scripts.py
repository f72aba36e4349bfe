import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize(
    "script, args, header",
    [
        ("coulomb_orbit_drift.py", ["--periods", "0.02"], "orbit radius "),
        ("kernel_profile.py", ["--points", "64", "--widths", "2"], "mu = 1.0, fitted tail decay kappa"),
    ],
)
def test_script_runs(script, args, header):
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", script), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith(header)
