"""Smoke tests of the scripts in ``demos/``: each runs to exit code 0 and
prints its headline line, and those with a golden file print exactly it."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

import transportbc

DEMOS = Path(__file__).resolve().parents[1] / "demos"
HERE = Path(__file__).resolve().parent

# demo script -> one line its output must contain
HEADLINES = {
    "convergence_tables.py":
        "datum (x-0.5)_+^3.0, outflow extrapolation order kb=2",
    "outflow_profiles.py": "snapshot after 15 steps, t=0.26249999999999996",
    "spectral_portrait.py": "  spectral radius      0.710055",
}

# demo script -> file in this directory holding its whole stdout.  The
# spectral portrait prints digits that come from LAPACK, so only its
# headline is pinned.
GOLDEN = {
    "convergence_tables.py": "golden_demo_convergence_tables.txt",
    "outflow_profiles.py": "golden_demo_outflow_profiles.txt",
}


@pytest.mark.parametrize("script", sorted(HEADLINES))
def test_demo_runs(script):
    env = dict(os.environ,
               PYTHONPATH=str(Path(transportbc.__file__).resolve().parents[1]))
    proc = subprocess.run([sys.executable, str(DEMOS / script)],
                          capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert HEADLINES[script] in proc.stdout.splitlines()
    if script in GOLDEN:
        assert proc.stdout == (HERE / GOLDEN[script]).read_text()
