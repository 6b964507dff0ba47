#!/usr/bin/env python3
"""Sweep the noise angle and record checksum-removal quality.

For each theta, runs several seeded noise-correction experiments under a
global-parity scheme and writes per-seed rows: valid mass and fidelity
before and after the correction pass.  Single flips should always restore
fidelity 1; higher event counts expose parity-passing error combinations.
A value qic refuses (a theta outside (0, pi/2], a register above its cap)
ends the script with one error line and exit 2.

Usage:
    python scripts/ecc_theta_sweep.py --events 2 --out ecc_sweep.csv
"""

import argparse
from pathlib import Path

from qic.ecc import ChecksumScheme, NoiseModel, ecc_experiment
from qic.errors import QicError
from qic.interference import InterferenceConfig
from qic.reports import render_csv


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--data-qubits", type=int, default=3)
    parser.add_argument("--events", type=int, default=1)
    parser.add_argument("--thetas", default="0.1,0.3,0.5,0.8,1.1,1.4")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default="ecc_theta_sweep.csv")
    args = parser.parse_args()

    rows = []
    try:
        scheme = ChecksumScheme.global_parity(args.data_qubits)
        for theta in (float(t) for t in args.thetas.split(",")):
            for seed in range(args.seeds):
                report = ecc_experiment(
                    scheme, NoiseModel(events=args.events, theta=theta),
                    InterferenceConfig(), seed)
                rows.append([
                    theta, seed, report.status,
                    report.valid_mass_before,
                    report.valid_mass_after,
                    report.fidelity_before,
                    report.fidelity_after,
                ])
    except (ValueError, QicError) as exc:
        # One line, without parser.error's usage block: the flags parsed.
        parser.exit(2, f"{parser.prog}: error: {exc}\n")

    text = render_csv(
        ["theta", "seed", "status", "valid_mass_before", "valid_mass_after",
         "fidelity_before", "fidelity_after"],
        rows)
    Path(args.out).write_text(text)
    restored = sum(1 for r in rows
                   if r[6] is not None and abs(r[6] - 1.0) < 1e-9)
    print(f"wrote {len(rows)} rows to {args.out}; "
          f"{restored}/{len(rows)} runs fully restored")


if __name__ == "__main__":
    main()
