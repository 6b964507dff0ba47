"""Seeded inputs and output oracles for the qic benchmark workloads.

Nothing here imports qic.  The oracles recompute the expected answer with
numpy alone, so a defect in qic cannot hide inside its own check.

A workload turns the benchmark seed into an ``Inputs`` value: the qic
arguments, the files those arguments name (relative to the run's work
directory), the arguments of the set-up probe, and what the oracle
expects.  The same seed always gives byte-identical inputs.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

# solve-cnf: a random 3-CNF whose brute-force solution count is exactly
# CNF_SOLUTIONS.  At epsilon 0 every run finds one new solution and the
# last run cancels completely, so a run always makes CNF_SOLUTIONS + 1
# enumeration runs and wall time does not drift with the seed.
CNF_VARS = 18
CNF_CLAUSES = 60
CNF_WIDTH = 3
CNF_SOLUTIONS = 48

# solve-wide: an explicit planted set on a register whose 128 MiB state is
# larger than the L3 cache.
WIDE_QUBITS = 23
WIDE_PLANTED = 6
WIDE_EPSILON = 0.05
WIDE_PASSES = 3

# ecc-noise: two parity groups of ten data bits each, so m = 22.
ECC_DATA_QUBITS = 20
ECC_GROUPS = (tuple(range(0, 10)), tuple(range(10, 20)))
ECC_EVENTS = 6
ECC_EPSILON = 0.05
ECC_PASSES = 2

# Tolerance of the closed-form check on the corrected checksum-valid mass.
ECC_MASS_TOL = 1e-12

QIC_SEED_LIMIT = 2**63


@dataclass(frozen=True)
class Inputs:
    """Everything one workload seed determines.

    ``argv`` follows ``python -m qic`` and names ``files`` and ``REPORT``
    relative to the work directory the invocation runs in.
    """

    workload: str
    qubits: int
    passes: int
    argv: tuple[str, ...]
    files: tuple[tuple[str, bytes], ...]
    setup_argv: tuple[str, ...]
    expected: tuple


REPORT = "report.json"


def cnf_solutions(clauses: np.ndarray, variables: int) -> np.ndarray:
    """Indices of every assignment that satisfies all clauses.

    ``clauses`` holds signed 1-based literals, one clause per row;
    variable v is bit v-1 of the index.
    """
    index = np.arange(1 << variables, dtype=np.int64)
    bits = [((index >> v) & 1).astype(bool) for v in range(variables)]
    ok = np.ones(1 << variables, dtype=bool)
    for clause in clauses:
        satisfied = np.zeros(1 << variables, dtype=bool)
        for lit in clause:
            bit = bits[abs(int(lit)) - 1]
            satisfied |= bit if lit > 0 else ~bit
        ok &= satisfied
    return np.flatnonzero(ok)


def dimacs(clauses: np.ndarray, variables: int) -> bytes:
    lines = [f"p cnf {variables} {len(clauses)}"]
    lines += [" ".join(str(int(lit)) for lit in clause) + " 0"
              for clause in clauses]
    return ("\n".join(lines) + "\n").encode("ascii")


def _random_cnf(rng: np.random.Generator) -> np.ndarray:
    clauses = np.empty((CNF_CLAUSES, CNF_WIDTH), dtype=np.int64)
    for row in clauses:
        variables = rng.choice(CNF_VARS, CNF_WIDTH, replace=False) + 1
        signs = np.where(rng.integers(0, 2, CNF_WIDTH) == 1, 1, -1)
        row[:] = variables * signs
    return clauses


def _rng(seed: int) -> np.random.Generator:
    # numpy seeds must be non-negative; any integer is a valid benchmark seed.
    return np.random.default_rng(seed % 2**64)


def _bitstrings(indices, qubits: int) -> tuple[str, ...]:
    return tuple(sorted(format(int(i), f"0{qubits}b") for i in indices))


def gen_solve_cnf(seed: int) -> Inputs:
    rng = _rng(seed)
    while True:
        clauses = _random_cnf(rng)
        solutions = cnf_solutions(clauses, CNF_VARS)
        if len(solutions) == CNF_SOLUTIONS:
            break
    qic_seed = int(rng.integers(QIC_SEED_LIMIT))
    return Inputs(
        workload="solve-cnf",
        qubits=CNF_VARS,
        passes=1,
        argv=("solve", "--qubits", str(CNF_VARS), "--cnf", "input.cnf",
              "--seed", str(qic_seed), "--output", REPORT),
        files=(("input.cnf", dimacs(clauses, CNF_VARS)),),
        setup_argv=("cnf", str(CNF_VARS), "input.cnf"),
        expected=_bitstrings(solutions, CNF_VARS),
    )


def gen_solve_wide(seed: int) -> Inputs:
    rng = _rng(seed)
    planted = sorted(int(i) for i in
                     rng.choice(1 << WIDE_QUBITS, WIDE_PLANTED, replace=False))
    qic_seed = int(rng.integers(QIC_SEED_LIMIT))
    valid = ",".join(str(i) for i in planted)
    return Inputs(
        workload="solve-wide",
        qubits=WIDE_QUBITS,
        passes=WIDE_PASSES,
        argv=("solve", "--qubits", str(WIDE_QUBITS), "--valid", valid,
              "--epsilon", str(WIDE_EPSILON), "--passes", str(WIDE_PASSES),
              "--seed", str(qic_seed), "--output", REPORT),
        files=(),
        setup_argv=("valid", str(WIDE_QUBITS), valid),
        expected=_bitstrings(planted, WIDE_QUBITS),
    )


def gen_ecc_noise(seed: int) -> Inputs:
    rng = _rng(seed)
    qic_seed = int(rng.integers(QIC_SEED_LIMIT))
    scheme = "groups:" + ";".join(",".join(str(b) for b in g)
                                  for g in ECC_GROUPS)
    return Inputs(
        workload="ecc-noise",
        qubits=ECC_DATA_QUBITS + len(ECC_GROUPS),
        passes=ECC_PASSES,
        argv=("ecc", "--data-qubits", str(ECC_DATA_QUBITS), "--parity", scheme,
              "--events", str(ECC_EVENTS), "--passes", str(ECC_PASSES),
              "--epsilon", str(ECC_EPSILON), "--seed", str(qic_seed),
              "--output", REPORT),
        files=(),
        setup_argv=("ecc", str(ECC_DATA_QUBITS), scheme),
        expected=(ECC_EPSILON, ECC_PASSES, ECC_EVENTS),
    )


GENERATORS = {
    "solve-cnf": gen_solve_cnf,
    "solve-wide": gen_solve_wide,
    "ecc-noise": gen_ecc_noise,
}


def generate(workload: str, seed: int) -> Inputs:
    return GENERATORS[workload](seed)


# ---------------------------------------------------------------------------
# Oracles: each returns a list of problems; an empty list means correct.


def check_solve_cnf(results: dict, expected: tuple) -> list[str]:
    problems = []
    if results["termination"] != "Exhausted":
        problems.append(f"termination {results['termination']}, "
                        "expected Exhausted")
    if sorted(results["found"]) != list(expected):
        problems.append(f"found {len(results['found'])} solutions, brute "
                        f"force has {len(expected)} (sets differ)")
    return problems


def check_solve_wide(results: dict, expected: tuple) -> list[str]:
    found = results["found"]
    if len(set(found)) != len(found):
        return ["found list repeats a solution"]
    if not set(found) <= set(expected):
        return [f"found {sorted(set(found) - set(expected))} not planted"]
    if results["termination"] != "RemnantMeasured" and \
            sorted(found) != list(expected):
        return [f"termination {results['termination']} with "
                f"{len(found)}/{len(expected)} planted solutions found"]
    return []


def ecc_mass_after(mass_before: float, epsilon: float, passes: int) -> float:
    """Checksum-valid mass after ``passes`` interference passes."""
    valid = mass_before * (2.0 - epsilon) ** (2 * passes)
    invalid = (1.0 - mass_before) * epsilon ** (2 * passes)
    return valid / (valid + invalid)


def check_ecc_noise(results: dict, expected: tuple) -> list[str]:
    epsilon, passes, events = expected
    if results["status"] != "ok":
        return [f"status {results['status']}, expected ok"]
    problems = []
    if len(results["events"]) != events:
        problems.append(f"{len(results['events'])} noise events, "
                        f"expected {events}")
    want = ecc_mass_after(results["valid_mass_before"], epsilon, passes)
    got = results["valid_mass_after"]
    if not math.isclose(got, want, rel_tol=0.0, abs_tol=ECC_MASS_TOL):
        problems.append(f"valid_mass_after {got!r}, closed form {want!r}")
    return problems


ORACLES = {
    "solve-cnf": check_solve_cnf,
    "solve-wide": check_solve_wide,
    "ecc-noise": check_ecc_noise,
}


def check_report(inputs: Inputs, report: bytes) -> list[str]:
    """Problems with one report, judged against the workload's oracle."""
    try:
        results = json.loads(report)["results"]
        return ORACLES[inputs.workload](results, inputs.expected)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"malformed report: {type(exc).__name__}: {exc}"]


def enumeration_counts(report: bytes) -> tuple[int, int]:
    """(runs, new solutions) of a solve report; (0, 0) for an ecc report."""
    results = json.loads(report)["results"]
    return len(results.get("runs", ())), len(results.get("found", ()))
