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


def test_leakage_sweep_matches_closed_form(tmp_path):
    out = tmp_path / "leakage.csv"
    result = run_script("leakage_sweep.py", "--epsilons", "0.1,0.3",
                        "--max-passes", "2", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("wrote 4 rows")
    rows = read_rows(out)
    assert [(r["epsilon"], r["passes"]) for r in rows] == [
        ("0.10000000000000001", "1"), ("0.10000000000000001", "2"),
        ("0.29999999999999999", "1"), ("0.29999999999999999", "2")]
    assert all(float(r["abs_error"]) < 1e-12 for r in rows)


def test_leakage_sweep_all_valid_reads_zero(tmp_path):
    out = tmp_path / "leakage.csv"
    result = run_script("leakage_sweep.py", "--qubits", "1", "--valid", "0,1",
                        "--epsilons", "0.2", "--max-passes", "2",
                        "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert [r["measured_ratio"] for r in read_rows(out)] == ["0", "0"]


def test_ecc_theta_sweep_restores_single_flips(tmp_path):
    out = tmp_path / "ecc.csv"
    result = run_script("ecc_theta_sweep.py", "--thetas", "0.3,1.1",
                        "--seeds", "3", "--out", str(out))
    assert result.returncode == 0, result.stderr
    assert "6/6 runs fully restored" in result.stdout
    rows = read_rows(out)
    assert [r["status"] for r in rows] == ["ok"] * 6
