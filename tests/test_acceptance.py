"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines live.
"""

import json
import math
import subprocess
import sys
import time
from contextlib import contextmanager

import numpy as np

from qic.ecc import ChecksumScheme, NoiseModel, ecc_experiment, encode
from qic.enumeration import RunConfig, Termination, enumerate_solutions
from qic.interference import InterferenceConfig, interfere_repeated
from qic.predicate import CnfFormula, Predicate, compile_mask, evaluate
from qic.state import (
    PhaseMask,
    Register,
    apply_partial_bit_flip,
    apply_phase_mask,
    basis_state,
    norm_squared,
    probability,
    sample,
    uniform_superposition,
)

from conftest import (
    bits_of,
    cnf_truth_brute,
    expr_truth_brute,
    random_cnf,
    random_expr,
    random_state,
)


@contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


def test_criterion_1_worked_example_reproduction():
    with criterion(1, "worked-example reproduction"):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)

        def pipeline():
            return interfere_repeated(uniform_superposition(reg), pred,
                                      InterferenceConfig(leakage=0.0))

        out = pipeline()
        assert abs(probability(out, 1) - 0.5) < 1e-12
        assert abs(probability(out, 3) - 0.5) < 1e-12
        for i in (0, 2, 4, 5, 6, 7):
            assert probability(out, i) < 1e-12

        timings = []
        for _ in range(5):
            t0 = time.perf_counter()
            pipeline()
            timings.append(time.perf_counter() - t0)
        best = min(timings)
        assert best < 1e-3, f"pipeline took {best * 1e3:.3f} ms"


def test_criterion_2_enumeration_matches_brute_force():
    with criterion(2, "enumeration equals brute-force solution sets"):
        rng = np.random.default_rng(8080)
        start = time.perf_counter()
        for trial in range(100):
            m = int(rng.integers(3, 9))
            reg = Register(m)
            if trial % 2 == 0:
                expr = random_expr(rng, m)
                pred = Predicate(expr, reg)
                solutions = {
                    i for i in range(1 << m)
                    if expr_truth_brute(expr, bits_of(i, m))
                }
            else:
                clauses = random_cnf(rng, m)
                pred = Predicate(CnfFormula(m, tuple(clauses)), reg)
                solutions = {
                    i for i in range(1 << m)
                    if cnf_truth_brute(clauses, bits_of(i, m))
                }
            report = enumerate_solutions(
                pred, reg, RunConfig(seed=int(rng.integers(2**32))))
            found = {int(bits, 2) for bits in report.found}
            assert found == solutions
            productive = sum(1 for r in report.runs if r.new)
            assert productive == len(solutions)
            assert report.termination is Termination.EXHAUSTED
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.2f} s"


def test_criterion_3_leakage_law():
    with criterion(3, "leakage ratio law"):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)
        for eps in (0.1, 0.2, 0.3):
            for passes in (1, 2, 3):
                out = interfere_repeated(
                    uniform_superposition(reg), pred,
                    InterferenceConfig(leakage=eps, passes=passes))
                measured = abs(out.amplitudes[0]) / abs(out.amplitudes[1])
                predicted = (eps / (2 - eps)) ** passes
                assert abs(measured - predicted) < 1e-9


def test_criterion_4_single_event_restoration():
    with criterion(4, "single-event checksum restoration"):
        scheme = ChecksumScheme.global_parity(3)
        total_qubits = scheme.register().total_qubits
        for theta in (0.2, 0.5, 1.0):
            for qubit in range(total_qubits):
                seed = 0
                while True:
                    # draw seeds until the single event hits this qubit
                    probe = ecc_experiment(scheme,
                                           NoiseModel(events=1, theta=theta),
                                           InterferenceConfig(), seed)
                    if probe.events[0].qubit == qubit:
                        break
                    seed += 1
                assert abs(probe.valid_mass_before
                           - math.cos(theta) ** 2) < 1e-10
                assert abs(probe.valid_mass_after - 1.0) < 1e-9
                assert abs(probe.fidelity_after - 1.0) < 1e-9


def test_criterion_5_undetectable_double_error_law():
    with criterion(5, "undetectable double-error fidelity law"):
        theta = math.pi / 6
        scheme = ChecksumScheme.global_parity(3)
        data = basis_state(Register(3), 0)
        seen_distinct = 0
        for seed in range(60):
            report = ecc_experiment(scheme, NoiseModel(events=2, theta=theta),
                                    InterferenceConfig(), seed,
                                    data_state=data)
            q1, q2 = report.events[0].qubit, report.events[1].qubit
            if q1 != q2:
                seen_distinct += 1
                assert abs(report.fidelity_after - 0.9) < 1e-6
        assert seen_distinct >= 10


def test_criterion_6_property_suite():
    with criterion(6, "property suite"):
        rng = np.random.default_rng(616)

        # phase-mask involution, exact
        for _ in range(20):
            m = int(rng.integers(1, 9))
            psi = random_state(rng, m)
            size = int(rng.integers(0, psi.register.dimension + 1))
            mask = PhaseMask.from_indices(
                psi.register,
                rng.choice(psi.register.dimension, size=size, replace=False))
            twice = apply_phase_mask(apply_phase_mask(psi, mask), mask)
            assert np.all(twice.amplitudes == psi.amplitudes)

        # projection idempotence at zero leakage, 1e-12
        for _ in range(20):
            m = int(rng.integers(1, 9))
            psi = random_state(rng, m)
            dim = psi.register.dimension
            size = int(rng.integers(1, dim + 1))
            pred = Predicate(
                frozenset(int(i) for i in
                          rng.choice(dim, size=size, replace=False)),
                psi.register)
            try:
                once = interfere_repeated(psi, pred)
            except Exception:
                continue
            twice = interfere_repeated(once, pred)
            assert np.max(np.abs(once.amplitudes - twice.amplitudes)) < 1e-12

        # norm preservation of mask, flip, and encode, 1e-12
        for _ in range(20):
            m = int(rng.integers(1, 9))
            psi = random_state(rng, m)
            mask = PhaseMask.from_indices(psi.register, {0})
            flipped = apply_partial_bit_flip(psi, int(rng.integers(0, m)),
                                             float(rng.uniform(0, math.pi)))
            encoded = encode(psi, ChecksumScheme.global_parity(m))
            for out in (apply_phase_mask(psi, mask), flipped, encoded):
                assert abs(norm_squared(out) - 1.0) < 1e-12

        # sampling distribution, total variation at 1e5 draws
        psi = random_state(np.random.default_rng(424242), 4)
        draw_rng = np.random.default_rng(171717)
        draws = np.array([sample(psi, draw_rng) for _ in range(100_000)])
        empirical = np.bincount(draws, minlength=16) / 100_000
        tv = 0.5 * np.sum(np.abs(empirical - np.abs(psi.amplitudes) ** 2))
        assert tv <= 0.02

        # parser/mask oracle agreement, exhaustive for m <= 8
        for m in range(1, 9):
            reg = Register(m)
            for _ in range(6):
                expr = random_expr(rng, m)
                pred = Predicate(expr, reg)
                flags = compile_mask(pred, reg).valid
                for i in range(1 << m):
                    expected = expr_truth_brute(expr, bits_of(i, m))
                    assert flags[i] == evaluate(pred, i) == expected
                clauses = random_cnf(rng, m)
                pred = Predicate(CnfFormula(m, tuple(clauses)), reg)
                flags = compile_mask(pred, reg).valid
                for i in range(1 << m):
                    expected = cnf_truth_brute(clauses, bits_of(i, m))
                    assert flags[i] == evaluate(pred, i) == expected


def test_criterion_7_cli_byte_determinism():
    with criterion(7, "CLI byte determinism"):
        invocations = [
            ["demo", "--epsilon", "0.2", "--seed", "11", "--format", "json"],
            ["solve", "--qubits", "4", "--expr", "b0 ^ ~b3", "--seed", "23",
             "--epsilon", "0.1", "--passes", "2"],
            ["sweep", "--qubits", "3", "--valid", "1,3",
             "--epsilon", "0:0.3:0.1", "--passes", "1:3"],
            ["ecc", "--data-qubits", "3", "--events", "2", "--seed", "31"],
        ]
        for args in invocations:
            runs = [
                subprocess.run([sys.executable, "-m", "qic", *args],
                               capture_output=True)
                for _ in range(2)
            ]
            assert runs[0].returncode == runs[1].returncode == 0
            assert runs[0].stdout == runs[1].stdout


def test_criterion_8_desk_scale_interference_speed():
    with criterion(8, "desk-scale interference speed (m=22)"):
        reg = Register(22)
        pred = Predicate(frozenset({1, 12345, 4_000_000}), reg)
        psi = uniform_superposition(reg)
        out = interfere_repeated(psi, pred)  # warm-up
        assert abs(norm_squared(out) - 1.0) < 1e-9
        timings = []
        for _ in range(3):
            start = time.perf_counter()
            interfere_repeated(psi, pred)
            timings.append(time.perf_counter() - start)
        best = min(timings)
        assert best < 1.0, f"interference pass took {best:.3f} s"
