#!/usr/bin/env python3
"""Measure how fast remnant amplitude decays with repeated interference.

Sweeps a leakage x passes grid from the uniform state on a small worked
predicate and writes one CSV row per grid point with the measured
invalid/valid amplitude ratio next to the closed-form prediction
(epsilon / (2 - epsilon))^passes.

Usage:
    python scripts/leakage_sweep.py --out leakage.csv
"""

import argparse
from pathlib import Path

from qic.interference import SWEEP_COLUMNS, remnant_sweep
from qic.predicate import Predicate
from qic.reports import render_csv
from qic.state import Register


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--qubits", type=int, default=3)
    parser.add_argument("--valid", default="1,3",
                        help="comma-separated valid indices")
    parser.add_argument("--epsilons", default="0.05,0.1,0.2,0.3,0.4")
    parser.add_argument("--max-passes", type=int, default=4)
    parser.add_argument("--out", default="leakage_sweep.csv")
    args = parser.parse_args()

    register = Register(args.qubits)
    valid = frozenset(int(i) for i in args.valid.split(","))
    epsilons = [float(e) for e in args.epsilons.split(",")]
    rows = remnant_sweep(Predicate(valid, register), epsilons,
                         range(1, args.max_passes + 1))
    text = render_csv(list(SWEEP_COLUMNS), rows)
    Path(args.out).write_text(text)
    worst = max(row[4] for row in rows)
    print(f"wrote {len(rows)} rows to {args.out}; worst |error| = {worst:.3g}")


if __name__ == "__main__":
    main()
