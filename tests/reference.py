"""Whole-array references for the differential tests.

Each function is the plain numpy form of one operation that qic runs block
by block, on two-level states or through lookup tables.  Differential
tests compare qic against these, most of them bit for bit, so their
arithmetic is part of the contract: change a step here only together with
the kernel it mirrors.  Amplitudes are numpy arrays.  Apart from the
checksum-validity flags that ``mass`` compiles, nothing here runs qic code.
"""

from types import SimpleNamespace

import numpy as np

from qic.ecc import checksum_predicate
from qic.enumeration import Termination
from qic.predicate import compile_mask


def bits(amps):
    """The float64 words of ``amps``; a complex value is two words."""
    return np.asarray(amps).view(np.uint64)


def valid_indices(flags):
    """The indices of the set flags, ascending, as ints."""
    return np.flatnonzero(flags).tolist()


def flags(valid_set, dim):
    """Dense bool flags over ``dim`` indices, set on ``valid_set``."""
    return np.isin(np.arange(dim), sorted(valid_set))


def mark(amps, valid):
    """The marked arm: every component outside ``valid`` negated."""
    return np.where(valid, amps, -amps)


def interfere(amps, valid, cfg):
    """``cfg.passes`` interference passes, or None on norm collapse: a 2^m
    weights array, and a 2^m |out|^2 array summed by np.sum."""
    weights = np.where(valid, 2.0 - cfg.leakage, cfg.leakage)
    out = amps * weights
    probs = np.empty(out.shape)
    for done in range(cfg.passes):
        if done:
            out *= weights
        np.abs(out, out=probs)
        np.square(probs, out=probs)
        surviving = float(np.sum(probs))
        if surviving < cfg.collapse_tol:
            return None
        out *= 1.0 / np.sqrt(surviving)
    return out


def sample(amps, u):
    """The index a uniform draw ``u`` measures, and the 2^m running sum
    searched for u times its last entry."""
    probs = np.abs(amps) ** 2
    cumulative = np.cumsum(probs)
    index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return index, cumulative


def enumerate(valid_set, reg, cfg):
    """The enumeration loop on whole arrays: each run interferes a dense
    uniform state against the unfound solutions and measures it once.

    Returns the found bitstrings, (run, measured, verified, new) per run
    and the termination.
    """
    dim = reg.dimension
    rng = np.random.default_rng(cfg.seed)
    found, runs = [], []
    termination = Termination.MAX_RUNS_REACHED
    for run in range(1, cfg.max_runs + 1):
        out = interfere(np.full(dim, 1.0 / np.sqrt(dim)),
                        flags(valid_set - set(found), dim), cfg.interference)
        if out is None:
            runs.append((run, None, False, False))
            termination = Termination.EXHAUSTED
            break
        index = sample(out, rng.random())[0]
        is_solution = index in valid_set
        is_new = is_solution and index not in found
        runs.append((run, reg.bitstring(index), is_solution, is_new))
        if is_new:
            found.append(index)
            continue
        termination = (Termination.REPEAT_MEASURED if is_solution
                       else Termination.REMNANT_MEASURED)
        break
    return [reg.bitstring(i) for i in found], runs, termination


def sweep(valid, epsilons, passes, collapse_tol):
    """The remnant sweep's rows, epsilon-major: per (epsilon, passes) the
    closed form (epsilon / (2 - epsilon))^passes and the np.mean invalid /
    np.mean valid magnitude after that many dense passes from the uniform
    state (0.0 if every component is valid)."""
    dim = len(valid)
    rows = []
    for eps in epsilons:
        for r in passes:
            cfg = SimpleNamespace(leakage=eps, passes=r,
                                  collapse_tol=collapse_tol)
            mags = np.abs(interfere(np.full(dim, 1.0 / np.sqrt(dim)), valid,
                                    cfg))
            measured = 0.0 if valid.all() else float(
                np.mean(mags[~valid]) / np.mean(mags[valid]))
            predicted = (eps / (2.0 - eps)) ** r
            rows.append([eps, r, predicted, measured,
                         abs(measured - predicted)])
    return rows


def flip(amps, qubit, theta):
    """The partial flip cos(theta) I + i sin(theta) X_qubit."""
    paired = amps.reshape(-1, 2, 1 << qubit)
    flipped = np.cos(theta) * paired + 1j * np.sin(theta) * paired[:, ::-1, :]
    return flipped.reshape(-1)


def noise(amps, model, seed):
    """``model``'s chained flips on qubits drawn as the seeded run draws
    them; returns the noisy amplitudes and the qubits."""
    rng = np.random.default_rng(seed)
    m = len(amps).bit_length() - 1
    qubits = []
    for _ in range(model.events):
        qubits.append(int(rng.integers(0, m)))
        amps = flip(amps, qubits[-1], model.theta)
    return amps, qubits


def checksum(scheme, x):
    """The checksum bits of data index x: bit g is the XOR of the data bits
    in group g."""
    groups = scheme.groups  # by position: this module's enumerate is the loop
    return sum((sum(x >> bit & 1 for bit in groups[g]) & 1) << g
               for g in range(len(groups)))


def encode(amps, scheme):
    """Data index x moved to (checksum(x) << n) | x, one index at a time."""
    n = scheme.data_bits
    out = np.zeros(scheme.register().dimension, dtype=amps.dtype)
    for x in range(1 << n):
        out[(checksum(scheme, x) << n) | x] = amps[x]
    return out


def mass(amps, scheme):
    """The squared mass of the checksum-valid components."""
    valid = compile_mask(checksum_predicate(scheme), scheme.register()).valid
    return float(np.sum((np.abs(amps) ** 2)[valid]))


def fidelity(a, b):
    """|<a|b>|^2: the overlap's real part sum(a_r b_r + a_i b_i) and
    imaginary part sum(a_r b_i - a_i b_r) as whole-array np.sums of float64
    products, with no BLAS and no complex multiply."""
    real = np.sum(a.real * b.real + a.imag * b.imag)
    imag = np.sum(a.real * b.imag - a.imag * b.real)
    return float(abs(complex(real, imag)) ** 2)
