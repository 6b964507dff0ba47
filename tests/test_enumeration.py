import tracemalloc
from dataclasses import asdict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qic.enumeration
import qic.interference
import qic.state
from qic.enumeration import (
    RunConfig,
    Termination,
    enumerate_solutions,
    verify,
)
from qic.errors import RegisterMismatch
from qic.interference import InterferenceConfig
from qic.predicate import CnfFormula, Predicate, compile_mask, parse_expr
from qic.reports import render_json
from qic.state import PhaseMask, Register

import reference
from conftest import (bits_of, brute_force_valid, cnf_truth_brute,
                      expr_truth_brute, random_cnf, random_expr)

GOLDEN = Path(__file__).parent / "golden"


class TestVerify:
    def test_solution_recognized(self):
        pred = Predicate(frozenset({1, 3}), Register(3))
        assert verify(pred, 3) is True
        assert verify(pred, 0) is False

    def test_respects_exclusions(self):
        pred = Predicate(frozenset({1, 3}), Register(3),
                         exclusions=frozenset({1}))
        assert verify(pred, 1) is False
        assert verify(pred, 3) is True


class TestRunConfig:
    def test_rejects_bad_seed(self):
        with pytest.raises(ValueError):
            RunConfig(seed=-1)
        with pytest.raises(ValueError):
            RunConfig(seed=2**64)

    def test_rejects_bad_max_runs(self):
        with pytest.raises(ValueError):
            RunConfig(seed=0, max_runs=0)


class TestEnumerateSolutions:
    def test_oversized_register_fails_before_any_state_exists(self,
                                                               monkeypatch):
        import qic.enumeration
        import qic.state

        def no_state(*args):
            raise AssertionError("amplitudes allocated before the cap check")

        monkeypatch.setattr(qic.state, "MAX_QUBITS", 3)
        monkeypatch.setattr(qic.enumeration, "uniform_superposition", no_state)
        # The register itself refuses, so no run can start.
        with pytest.raises(ValueError, match="4 qubits exceeds the 3-qubit"):
            reg = Register(4)
            enumerate_solutions(Predicate(frozenset({1}), reg), reg,
                                RunConfig(seed=1))

    def test_perfect_cancellation_finds_all_then_exhausts(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)
        for seed in (0, 1, 42, 999):
            report = enumerate_solutions(pred, reg, RunConfig(seed=seed))
            assert set(report.found) == {"001", "011"}
            assert len(report.runs) == 3
            assert report.runs[2].measured is None
            assert report.termination is Termination.EXHAUSTED

    def test_unsatisfiable_predicate(self):
        reg = Register(3)
        pred = Predicate(frozenset(), reg)
        report = enumerate_solutions(pred, reg, RunConfig(seed=5))
        assert report.found == ()
        assert len(report.runs) == 1
        assert report.termination is Termination.EXHAUSTED

    def test_golden_trace_seed42_with_leakage(self):
        reg = Register(3)
        pred = Predicate(frozenset({1, 3}), reg)
        cfg = RunConfig(seed=42,
                        interference=InterferenceConfig(leakage=0.2),
                        max_runs=50)
        report = enumerate_solutions(pred, reg, cfg)
        assert set(report.found) == {"001", "011"}
        assert report.termination in (Termination.REMNANT_MEASURED,
                                      Termination.REPEAT_MEASURED)
        expected = (GOLDEN / "enum_seed42_eps02.json").read_bytes()
        assert render_json(asdict(report)).encode() == expected

    def test_max_runs_cap(self):
        reg = Register(2)
        pred = Predicate(frozenset({0, 1, 2, 3}), reg)
        report = enumerate_solutions(pred, reg, RunConfig(seed=3, max_runs=2))
        assert report.termination is Termination.MAX_RUNS_REACHED
        assert len(report.runs) == 2

    def test_register_mismatch(self):
        pred = Predicate(frozenset({1}), Register(2))
        with pytest.raises(RegisterMismatch):
            enumerate_solutions(pred, Register(3), RunConfig(seed=0))

    def test_work_above_the_limit_is_refused_before_the_first_run(
            self, monkeypatch):
        # Three valid indices in one 16-index block: at most four runs, each
        # reading the block twice (one pass and the sample) plus the fixed
        # costs, 2 * (16 + 2^11) + 2^16 reads.
        reg = Register(4)
        pred = Predicate(frozenset({1, 5, 9}), reg)
        per_run = 2 * (16 + 2**11) + 2**16
        runs, run = [], qic.enumeration.interfere_repeated

        def interfere(*args):
            runs.append(args)
            return run(*args)

        monkeypatch.setattr(qic.enumeration, "interfere_repeated", interfere)
        monkeypatch.setattr(qic.enumeration, "MAX_SOLVE_READS", 4 * per_run)
        report = enumerate_solutions(pred, reg, RunConfig(seed=3))
        assert report.termination is Termination.EXHAUSTED
        assert len(runs) == 4
        runs.clear()
        monkeypatch.setattr(qic.enumeration, "MAX_SOLVE_READS",
                            4 * per_run - 1)
        with pytest.raises(ValueError, match=(
                f"solve could read {4 * per_run} indices over 4 runs, above "
                f"the limit of {4 * per_run - 1}; lower --max-runs")):
            enumerate_solutions(pred, reg, RunConfig(seed=3))
        assert runs == []
        # A lower run cap, or fewer passes, bounds the work below the limit.
        report = enumerate_solutions(pred, reg, RunConfig(seed=3, max_runs=3))
        assert len(report.runs) == len(runs) == 3
        with pytest.raises(ValueError, match="over 4 runs"):
            enumerate_solutions(pred, reg, RunConfig(
                seed=3, interference=InterferenceConfig(passes=2)))

    def test_reports_are_deterministic(self):
        reg = Register(4)
        pred = Predicate(parse_expr("b0 ^ b2"), reg)
        cfg = RunConfig(seed=77,
                        interference=InterferenceConfig(leakage=0.15, passes=2))
        first = render_json(
            asdict(enumerate_solutions(pred, reg, cfg)))
        second = render_json(
            asdict(enumerate_solutions(pred, reg, cfg)))
        assert first == second

    def test_renderer_takes_a_str_enum_as_its_value_and_a_tuple_as_a_list(self):
        # Reports render straight from dataclasses.asdict, which keeps
        # Termination members and tuples as they are.
        assert render_json({"t": Termination.EXHAUSTED, "u": (1, "a")}) == (
            '{\n  "t": "Exhausted",\n  "u": [\n    1,\n    "a"\n  ]\n}\n')

    def test_repeat_measured_with_leakage(self):
        # single solution and strong leakage: refinding it is common
        reg = Register(2)
        pred = Predicate(frozenset({2}), reg)
        cfg_base = InterferenceConfig(leakage=0.9)
        seen = set()
        for seed in range(60):
            report = enumerate_solutions(
                pred, reg, RunConfig(seed=seed, interference=cfg_base))
            seen.add(report.termination)
            assert "10" in report.found or report.termination in (
                Termination.REMNANT_MEASURED, Termination.MAX_RUNS_REACHED)
        assert Termination.REPEAT_MEASURED in seen
        assert Termination.REMNANT_MEASURED in seen

    def test_excluded_index_is_never_listed(self):
        # Strong leakage measures the excluded 011 often; it reads invalid.
        reg = Register(3)
        pred = Predicate(frozenset({1, 3, 5}), reg, exclusions=frozenset({3}))
        cfg = InterferenceConfig(leakage=0.9)
        measured = 0
        for seed in range(200):
            report = enumerate_solutions(pred, reg,
                                         RunConfig(seed=seed, interference=cfg))
            assert "011" not in report.found, seed
            for run in report.runs:
                if run.measured == "011":
                    measured += 1
                    assert not run.verified and not run.new, seed
        assert measured > 0


def test_completeness_on_random_instances():
    # 100 random predicates, perfect cancellation: found set must equal the
    # brute-force solution set using |S| productive runs plus one collapse.
    rng = np.random.default_rng(90210)
    checked = 0
    while checked < 100:
        m = int(rng.integers(3, 9))
        reg = Register(m)
        if checked % 2 == 0:
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
        if not solutions:
            continue
        checked += 1
        report = enumerate_solutions(pred, reg,
                                     RunConfig(seed=int(rng.integers(2**32))))
        found = {int(bits, 2) for bits in report.found}
        assert found == solutions
        assert len(report.runs) == len(solutions) + 1
        assert report.termination is Termination.EXHAUSTED
        # soundness: every reported solution satisfies the original predicate
        assert all(verify(pred, i) for i in found)


def test_first_solution_is_uniform_over_solution_set():
    reg = Register(6)
    solutions = [5, 17, 40, 63]
    pred = Predicate(frozenset(solutions), reg)
    counts = {s: 0 for s in solutions}
    trials = 10_000
    for seed in range(trials):
        report = enumerate_solutions(pred, reg, RunConfig(seed=seed))
        first = int(report.runs[0].measured, 2)
        counts[first] += 1
    tv = 0.5 * sum(abs(counts[s] / trials - 0.25) for s in solutions)
    assert tv <= 0.03


def test_enumeration_holds_at_most_two_state_arrays(monkeypatch):
    # Each run's state is two-level: 2^m-byte flags and block scratch, far
    # below a state's size.
    monkeypatch.setattr(qic.state, "_BLOCK", 1024)
    m = 14
    reg = Register(m)
    pred = Predicate(frozenset(range(0, 1 << m, 999)), reg)
    cfg = RunConfig(seed=5, interference=InterferenceConfig(passes=2))
    enumerate_solutions(Predicate(frozenset({1}), Register(3)), Register(3),
                        cfg)  # first calls import and cache what they need
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = enumerate_solutions(pred, reg, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.termination == Termination.EXHAUSTED
    assert len(report.found) == 17
    assert peak < 3 * np.dtype(np.float64).itemsize << m


def test_sparse_enumeration_peaks_below_one_state_array(monkeypatch):
    # Each run's state is two-level: no run allocates a 2^m array.
    monkeypatch.setattr(qic.state, "_BLOCK", 1024)
    m = 14
    reg = Register(m)
    pred = Predicate(frozenset({3, 5000, 16000}), reg)
    cfg = RunConfig(seed=5, interference=InterferenceConfig(passes=3))
    enumerate_solutions(Predicate(frozenset({1}), Register(3)), Register(3),
                        cfg)  # first calls import and cache what they need
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = enumerate_solutions(pred, reg, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert report.termination == Termination.EXHAUSTED
    assert len(report.found) == 3
    assert peak < np.dtype(np.float64).itemsize << m


def test_sparse_enumeration_holds_no_amplitude_array():
    # Each run's state is its mask and two values, dropped once measured.
    # A mask holds flags only for its mixed blocks: the six planted indices
    # lie in six blocks, so the peak is those 6 x 64 KiB, the few blocks a
    # run's exclusions copy and a 512 KiB block of sample scratch, about
    # 1 MiB (0.06 x 2^m) at any m.  Dense flags, one array for the source
    # and one per run, read 2.04 x 2^m.  At m = 20 the fixed 1 MiB alone
    # is 2^m bytes, so the register is large enough for 2^m / 8 to part
    # the two.
    m = 24
    reg = Register(m)
    planted = {3, 70000, 300001, 512345, 800000, (1 << m) - 1}
    pred = Predicate(frozenset(planted), reg)
    cfg = RunConfig(seed=1, interference=InterferenceConfig(0.05, 3))
    enumerate_solutions(Predicate(frozenset({1}), Register(3)), Register(3),
                        cfg)  # first calls import and cache what they need
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        report = enumerate_solutions(pred, reg, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert {int(s, 2) for s in report.found} == planted
    assert peak < (1 << m) // 8, peak / (1 << m)


def _valid_set(kind, rng, m):
    dim = 1 << m
    if kind == "all":
        return set(range(dim))
    if kind == "one-per-block":
        return {start + int(rng.integers(min(128, dim)))
                for start in range(0, dim, 128)}
    if kind == "few":
        return {int(i) for i in rng.integers(0, dim, int(rng.integers(0, 4)))}
    return {int(i) for i in np.flatnonzero(rng.random(dim) < rng.random())}


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 14),
       kind=st.sampled_from(["all", "one-per-block", "few", "random"]),
       eps=st.one_of(st.just(0.0), st.floats(0.0, 0.9)),
       passes=st.integers(1, 4))
def test_enumeration_reports_match_dense_reference(seed, m, kind, eps, passes):
    reg = Register(m)
    valid = _valid_set(kind, np.random.default_rng(seed), m)
    cfg = RunConfig(seed=seed, max_runs=6,
                    interference=InterferenceConfig(eps, passes))
    # 128-amplitude blocks, so that registers from m = 8 up span several.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qic.state, "_BLOCK", 128)
        report = enumerate_solutions(Predicate(frozenset(valid), reg), reg,
                                     cfg)
    found, runs, termination = reference.enumerate(valid, reg, cfg)
    assert list(report.found) == found
    assert [(r.run, r.measured, r.verified, r.new) for r in report.runs] == runs
    assert report.termination is termination


@pytest.mark.parametrize("text,seed", [
    ("b0", 1), ("b0 | b5", 2), ("b2 ^ b8", 3), ("~b1 & ~b7", 4), ("1", 5)])
def test_many_solution_enumeration_matches_dense_reference(text, seed,
                                                           monkeypatch):
    # Leakage 0 over four 128-index blocks, mixed, full or empty, each
    # losing one flag per solution found on the mask carried from run to
    # run, until the state cancels: b0 takes 257 runs.
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    reg, source = Register(9), parse_expr(text)
    valid = brute_force_valid(lambda bits: expr_truth_brute(source, bits), 9)
    cfg = RunConfig(seed=seed, max_runs=600)
    report = enumerate_solutions(Predicate(source, reg), reg, cfg)
    found, runs, termination = reference.enumerate(valid, reg, cfg)
    assert termination is Termination.EXHAUSTED
    assert len(runs) == len(valid) + 1
    assert list(report.found) == found
    assert [(r.run, r.measured, r.verified, r.new) for r in report.runs] == runs
    assert report.termination is termination


@pytest.mark.parametrize("leakage,passes", [(0.0, 1), (0.05, 2)])
def test_a_solve_compiles_once_and_clears_each_solution(leakage, passes,
                                                        monkeypatch):
    # The solve compiles the predicate once, through the one-entry cache,
    # and clears each new solution on a copy of its mask: no run compiles,
    # and the cached mask and its shared blocks are never written.
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    reg = Register(9)
    pred = Predicate(parse_expr("b2 ^ b8 | b5 & b6"), reg)
    base = compile_mask(pred, reg)
    kinds, counts = base._kinds, dict(base._counts)
    arrays = {b: id(flags) for b, flags in base._mixed.items()}
    copies = {b: flags.copy() for b, flags in base._mixed.items()}
    compiles, clears = [], []
    real_compile, real_clear = (qic.interference.compile_mask,
                                PhaseMask._cleared)

    def counted_compile(*args):
        compiles.append(args)
        return real_compile(*args)

    def counted_clear(mask, indices):
        clears.append(tuple(indices))
        return real_clear(mask, indices)
    monkeypatch.setattr(qic.interference, "compile_mask", counted_compile)
    monkeypatch.setattr(PhaseMask, "_cleared", counted_clear)
    cfg = RunConfig(seed=8, max_runs=600,
                    interference=InterferenceConfig(leakage, passes))
    report = enumerate_solutions(pred, reg, cfg)
    assert len(report.found) > 50
    assert compiles == []
    assert clears == [(int(s, 2),) for s in report.found]
    assert compile_mask(pred, reg) is base
    assert (base._kinds, base._counts) == (kinds, counts)
    assert {b: id(flags) for b, flags in base._mixed.items()} == arrays
    assert all(np.array_equal(base._mixed[b], copies[b]) for b in copies)
