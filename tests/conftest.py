"""Shared fixtures, independent oracles, and random instance generators.

The brute-force evaluators here deliberately avoid the package's own
evaluation paths so they can serve as independent checks.
"""

import numpy as np
import pytest

from qic.predicate import And, Const, Not, Or, Var, Xor
from qic.state import Register, StateVector


def bits_of(index: int, m: int) -> list[int]:
    """Bit j of the index is qubit j (least significant first)."""
    return [(index >> j) & 1 for j in range(m)]


def brute_force_valid(fn, m: int) -> set[int]:
    """Valid set of a python callable over bit lists, by full enumeration."""
    return {i for i in range(1 << m) if fn(bits_of(i, m))}


def expr_truth_brute(node, bits) -> bool:
    """Recursive evaluator over raw bit lists, separate from BoolExpr.words."""
    if isinstance(node, Var):
        return bits[node.index] == 1
    if isinstance(node, Const):
        return node.value
    if isinstance(node, Not):
        return not expr_truth_brute(node.operand, bits)
    a = expr_truth_brute(node.lhs, bits)
    b = expr_truth_brute(node.rhs, bits)
    if isinstance(node, And):
        return a and b
    if isinstance(node, Or):
        return a or b
    if isinstance(node, Xor):
        return a != b
    raise TypeError(node)


def cnf_truth_brute(clauses, bits) -> bool:
    """Clause-by-clause evaluation over raw bit lists."""
    for clause in clauses:
        if not any(
            bits[abs(lit) - 1] == (1 if lit > 0 else 0) for lit in clause
        ):
            return False
    return True


def random_expr(rng: np.random.Generator, m: int, depth: int = 3):
    """Seeded random expression tree over variables b0..b<m-1>."""
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.15:
            return Const(bool(rng.integers(0, 2)))
        return Var(int(rng.integers(0, m)))
    pick = rng.random()
    if pick < 0.2:
        return Not(random_expr(rng, m, depth - 1))
    lhs = random_expr(rng, m, depth - 1)
    rhs = random_expr(rng, m, depth - 1)
    if pick < 0.5:
        return And(lhs, rhs)
    if pick < 0.8:
        return Or(lhs, rhs)
    return Xor(lhs, rhs)


def random_cnf(rng: np.random.Generator, m: int):
    """Seeded random clause list over variables 1..m."""
    n_clauses = int(rng.integers(1, 2 * m + 1))
    clauses = []
    for _ in range(n_clauses):
        width = int(rng.integers(1, min(m, 3) + 1))
        variables = rng.choice(m, size=width, replace=False)
        clause = tuple(
            int(v) + 1 if rng.random() < 0.5 else -(int(v) + 1)
            for v in variables
        )
        clauses.append(clause)
    return clauses


def random_state(rng: np.random.Generator, m: int) -> StateVector:
    """A random normalized state on m qubits."""
    dim = 1 << m
    amps = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
    return StateVector(Register(m), amps)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
