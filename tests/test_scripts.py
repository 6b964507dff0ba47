"""The experiment scripts under scripts/, run as processes on small grids."""

import csv
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


@pytest.mark.parametrize("args,message", [
    (["--thetas", "0"], "theta must be in (0, pi/2], got 0.0"),
    (["--thetas", "abc"], "could not convert string to float: 'abc'"),
    (["--data-qubits", "30"], "register of 31 qubits exceeds the 26-qubit cap"),
], ids=["theta_0", "theta_abc", "data_qubits_30"])
def test_ecc_theta_sweep_refuses_bad_values_with_one_line(args, message,
                                                          tmp_path):
    out = tmp_path / "ecc.csv"
    result = run_script("ecc_theta_sweep.py", *args, "--seeds", "1",
                        "--out", str(out))
    assert result.returncode != 0
    assert "Traceback" not in result.stderr
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        f"ecc_theta_sweep.py: error: {message}")
    assert result.stdout == "" and not out.exists()
