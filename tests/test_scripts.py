"""The experiment scripts under scripts/, run as processes on small grids."""

import csv
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    # Any warning, such as numpy's mean of an empty slice, fails the run.
    return subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "scripts" / name), *args],
        capture_output=True, text=True, env=env)


def read_rows(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


def test_ecc_theta_sweep_restores_single_flips(tmp_path):
    out = tmp_path / "ecc.csv"
    result = run_script("ecc_theta_sweep.py", "--thetas", "0.3,1.1",
                        "--seeds", "3", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "6/6 runs fully restored" in result.stdout
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["ok"] * 6
