import itertools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qic.state
from qic.errors import NormCollapse, QicError, RegisterMismatch
from qic.interference import (
    InterferenceConfig,
    interfere_repeated,
    remnant_sweep,
)
from qic.predicate import Predicate, compile_mask, parse_expr
from qic.state import (
    PhaseMask,
    Register,
    StateVector,
    _gather_abs,
    _identity,
    _interfere,
    norm_squared,
    probability,
    sample,
    uniform_superposition,
)

import reference
from conftest import random_state
from test_state import _FixedDraw, _block_flags, _draws_on_running_sums


def uniform_pred(m, valid):
    reg = Register(m)
    return reg, Predicate(frozenset(valid), reg)


class TestConfig:
    def test_defaults(self):
        cfg = InterferenceConfig()
        assert cfg.leakage == 0.0 and cfg.passes == 1

    @pytest.mark.parametrize("kwargs", [
        {"leakage": -0.1},
        {"leakage": 1.0},
        {"passes": 0},
        {"collapse_tol": 0.0},
        {"leakage": float("nan")},
        {"leakage": float("inf")},
        {"collapse_tol": float("nan")},
        {"collapse_tol": float("inf")},
    ])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            InterferenceConfig(**kwargs)


class TestInterfere:
    def test_perfect_cancellation_exposes_solutions(self):
        reg, pred = uniform_pred(3, {1, 3})
        out = interfere_repeated(uniform_superposition(reg), pred)
        assert abs(probability(out, 1) - 0.5) < 1e-12
        assert abs(probability(out, 3) - 0.5) < 1e-12
        for i in (0, 2, 4, 5, 6, 7):
            assert out.amplitudes[i] == 0.0

    def test_all_invalid_collapses(self):
        reg, pred = uniform_pred(3, set())
        with pytest.raises(NormCollapse):
            interfere_repeated(uniform_superposition(reg), pred)

    def test_leaked_distribution(self):
        # independent 8-element hand evaluation of the arm sum
        eps = 0.2
        u = 1 / np.sqrt(8)
        marked = np.array([-u, u, -u, u, -u, -u, -u, -u])
        summed = np.full(8, u) + (1 - eps) * marked
        expected = np.abs(summed) ** 2 / np.sum(np.abs(summed) ** 2)

        reg, pred = uniform_pred(3, {1, 3})
        out = interfere_repeated(uniform_superposition(reg), pred,
                                 InterferenceConfig(leakage=eps))
        for i in range(8):
            assert abs(probability(out, i) - expected[i]) < 1e-12
        assert abs(probability(out, 1) - 3.24 / 6.72) < 1e-12
        assert abs(probability(out, 0) - 0.04 / 6.72) < 1e-12

    def test_empty_valid_set_with_leakage_returns_input(self):
        # remnants survive imperfect cancellation instead of collapsing
        reg, pred = uniform_pred(3, set())
        psi = uniform_superposition(reg)
        out = interfere_repeated(psi, pred, InterferenceConfig(leakage=0.2))
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    def test_marking_arm_equivalence(self, rng):
        psi = random_state(rng, 5)
        valid = [2, 3, 17, 30]
        pred = Predicate(frozenset(valid), psi.register)
        arm_sum = psi.amplitudes + reference.mark(psi.amplitudes,
                                                  np.isin(np.arange(32), valid))
        arm_sum = arm_sum / np.sqrt(np.sum(np.abs(arm_sum) ** 2))
        out = interfere_repeated(psi, pred)
        assert np.max(np.abs(out.amplitudes - arm_sum)) < 1e-12


class TestInterfereRepeated:
    def test_projection_is_idempotent(self):
        reg, pred = uniform_pred(3, {1, 3})
        psi = uniform_superposition(reg)
        once = interfere_repeated(psi, pred, InterferenceConfig(passes=1))
        thrice = interfere_repeated(psi, pred, InterferenceConfig(passes=3))
        assert np.max(np.abs(once.amplitudes - thrice.amplitudes)) < 1e-12

    def test_two_pass_leakage_ratio(self):
        reg, pred = uniform_pred(3, {1, 3})
        out = interfere_repeated(uniform_superposition(reg), pred,
                                 InterferenceConfig(leakage=0.2, passes=2))
        ratio = abs(out.amplitudes[0]) / abs(out.amplitudes[1])
        assert abs(ratio - 1 / 81) < 1e-9

    def test_collapse_propagates(self):
        reg, pred = uniform_pred(2, set())
        with pytest.raises(NormCollapse):
            interfere_repeated(uniform_superposition(reg), pred,
                               InterferenceConfig(passes=3))

    def test_compiled_mask_reads_as_its_predicate(self):
        # A mask compiled once gives the predicate's bits and its form; one
        # over another register is refused, as a predicate's is.
        reg, pred = uniform_pred(4, {1, 6, 7})
        cfg = InterferenceConfig(leakage=0.1, passes=2)
        psi = uniform_superposition(reg)
        mask = compile_mask(pred, reg)
        by_mask = interfere_repeated(psi, mask, cfg)
        assert by_mask._labels is mask
        assert np.array_equal(
            reference.bits(by_mask._values),
            reference.bits(interfere_repeated(psi, pred, cfg)._values))
        other = PhaseMask.from_indices(Register(5), {1})
        with pytest.raises(RegisterMismatch):
            interfere_repeated(psi, other, cfg)
        with pytest.raises(RegisterMismatch):
            interfere_repeated(psi, Predicate(frozenset({1}), Register(5)),
                               cfg)


@pytest.mark.parametrize("eps", [0.1, 0.2, 0.3])
@pytest.mark.parametrize("passes", [1, 2, 3])
def test_leakage_ratio_law(eps, passes):
    reg, pred = uniform_pred(3, {1, 3})
    out = interfere_repeated(uniform_superposition(reg), pred,
                             InterferenceConfig(leakage=eps, passes=passes))
    measured = abs(out.amplitudes[0]) / abs(out.amplitudes[1])
    predicted = (eps / (2 - eps)) ** passes
    assert abs(measured - predicted) < 1e-9


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 10))
def test_perfect_cancellation_is_exact_projection(seed, m):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, m)
    dim = psi.register.dimension
    size = int(rng.integers(1, dim + 1))
    valid = {int(i) for i in rng.choice(dim, size=size, replace=False)}
    pred = Predicate(frozenset(valid), psi.register)

    valid_mass = sum(abs(psi.amplitudes[i]) ** 2 for i in valid)
    if valid_mass < 1e-9:
        return
    out = interfere_repeated(psi, pred)
    assert abs(norm_squared(out) - 1.0) < 1e-9
    scale = 1 / np.sqrt(valid_mass)
    for i in range(dim):
        if i in valid:
            assert abs(out.amplitudes[i] - psi.amplitudes[i] * scale) < 1e-12
        else:
            assert out.amplitudes[i] == 0.0


def _real_and_complex(m, signs=None):
    """The uniform state, its sign flipped outside ``signs`` if given, as a
    two-level state and as a dense complex128 copy."""
    psi = uniform_superposition(Register(m))
    if signs is not None:
        psi = StateVector._table(psi.register,
                                 compile_mask(signs, psi.register),
                                 psi._values * [-1.0, 1.0])
    return psi, StateVector(psi.register, psi.amplitudes)


def _interfere_or_collapse(psi, pred, cfg):
    try:
        return interfere_repeated(psi, pred, cfg)
    except NormCollapse:
        return None


def _random_case(seed, m):
    rng = np.random.default_rng(seed)
    valid = np.flatnonzero(rng.random(1 << m) < rng.random())
    return Predicate(frozenset(valid.tolist()), Register(m))


def _sparse_case(seed, m):
    """One to three valid indices: most blocks of a large state hold none."""
    rng = np.random.default_rng(seed)
    valid = rng.integers(0, 1 << m, int(rng.integers(1, 4)))
    return Predicate(frozenset(valid.tolist()), Register(m))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       eps=st.floats(0.0, 1.0, exclude_max=True), passes=st.integers(1, 4),
       signed=st.booleans())
def test_real_state_interferes_bitwise_like_its_complex_copy(seed, m, eps,
                                                             passes, signed):
    signs = _random_case(seed + 1, m) if signed else None
    real, cplx = _real_and_complex(m, signs)
    pred = _random_case(seed, m)
    cfg = InterferenceConfig(leakage=eps, passes=passes)
    before = real.amplitudes.copy(), cplx.amplitudes.copy()
    out_real = _interfere_or_collapse(real, pred, cfg)
    out_cplx = _interfere_or_collapse(cplx, pred, cfg)
    assert np.array_equal(real.amplitudes, before[0])
    assert np.array_equal(cplx.amplitudes, before[1])
    assert (out_real is None) == (out_cplx is None)
    if out_real is None:
        return
    for out in (out_real, out_cplx):
        assert not np.any(out.amplitudes.imag)
    assert np.array_equal(out_real.amplitudes.real.view(np.uint64),
                          out_cplx.amplitudes.real.view(np.uint64))
    draw = seed % 1000
    assert (sample(out_real, np.random.default_rng(draw))
            == sample(out_cplx, np.random.default_rng(draw)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       eps=st.floats(0.0, 1.0, exclude_max=True), complex_state=st.booleans())
def test_three_passes_equal_three_chained_single_passes(seed, m, eps,
                                                        complex_state):
    real, cplx = _real_and_complex(m)
    psi = cplx if complex_state else real
    pred = _random_case(seed, m)
    once = InterferenceConfig(leakage=eps)
    thrice = _interfere_or_collapse(psi, pred, replace(once, passes=3))
    chained = psi
    for _ in range(3):
        if chained is not None:
            chained = _interfere_or_collapse(chained, pred, once)
    assert (thrice is None) == (chained is None)
    if thrice is not None:
        assert np.array_equal(thrice.amplitudes.view(np.uint64),
                              chained.amplitudes.view(np.uint64))


def test_normalisation_matches_complex_division_up_to_zero_signs():
    reg = Register(3)
    # Real values weighted by 0 keep their sign: the two-level form.
    psi = _real_and_complex(3, Predicate({0, 2, 3}, reg))[0]
    valid = [1, 5]
    out = interfere_repeated(psi, Predicate(valid, reg)).amplitudes.real
    raw = psi.amplitudes * np.isin(np.arange(8), valid)
    divided = (raw * 2.0) / np.sqrt(np.sum(np.abs(raw * 2.0) ** 2))
    assert np.array_equal(out, divided.real) and np.all(divided.imag == 0)
    nonzero = out != 0
    assert np.array_equal(out[nonzero].view(np.uint64),
                          divided.real[nonzero].view(np.uint64))
    # Cancelled negative amplitudes keep their sign; division drops it.
    negative = psi.amplitudes.real[~nonzero] < 0
    assert np.array_equal(np.signbit(out[~nonzero]), negative)
    assert negative.any() and not np.signbit(divided.real[~nonzero]).any()


def _state_of_kind(kind, seed, m):
    rng = np.random.default_rng(seed)
    if kind == "uniform":
        return uniform_superposition(Register(m))
    if kind == "complex":
        return random_state(rng, m)
    return StateVector(Register(m), rng.normal(size=1 << m))


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       eps=st.floats(0.0, 1.0, exclude_max=True), passes=st.integers(1, 4),
       kind=st.sampled_from(["uniform", "real", "complex"]),
       sparse=st.booleans())
def test_blocked_kernel_matches_dense_reference_bitwise(seed, m, eps, passes,
                                                        kind, sparse):
    psi = _state_of_kind(kind, seed + 1, m)
    # A sparse set leaves array blocks of a dense input without a flag.
    pred = (_sparse_case if sparse else _random_case)(seed, m)
    cfg = InterferenceConfig(leakage=eps, passes=passes)
    valid = np.isin(np.arange(1 << m), list(pred.source))
    expected = reference.interfere(psi.amplitudes, valid, cfg)
    # 128-amplitude blocks, so that registers from m = 8 up span several.
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qic.state, "_BLOCK", 128)
        got = _interfere_or_collapse(psi, pred, cfg)
    assert (got is None) == (expected is None)
    if got is not None:
        assert got.amplitudes.dtype == expected.dtype
        assert np.array_equal(got.amplitudes.view(np.uint64),
                              expected.view(np.uint64))


def test_dense_input_costs_one_output_array(monkeypatch):
    monkeypatch.setattr(qic.state, "_BLOCK", 1024)
    psi = random_state(np.random.default_rng(3), 14)
    pred = _random_case(4, 14)
    cfg = InterferenceConfig(leakage=0.1, passes=3)
    interfere_repeated(psi, pred, cfg)  # first calls import and compile
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        amps = interfere_repeated(psi, pred, cfg).amplitudes
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert amps.dtype == np.complex128
    # The output plus block scratch; a materialising copy would read about 2.
    assert peak < 1.25 * psi.amplitudes.nbytes, peak / psi.amplitudes.nbytes


def test_dense_path_reads_a_two_level_input_without_widening_it():
    # A two-level state over 5000 flags, interfered against other flags:
    # the dense path reads it block by block into the output.
    m = 20
    reg, cfg = Register(m), InterferenceConfig(0.05, 2)
    chosen = np.random.default_rng(8).choice(1 << m, 5000, replace=False)
    psi = interfere_repeated(uniform_superposition(reg),
                             Predicate(frozenset(chosen.tolist()), reg), cfg)
    pred = Predicate(parse_expr("b0 ^ b7"), reg)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        got = interfere_repeated(psi, pred, cfg)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(psi._values) == 2 and got._labels == _identity(m)
    # The output, the compiled flags and block scratch read 1.13 dense
    # states; a widened copy of the input would add at least one more.
    assert peak < 1.4 * (16 << m), peak / (16 << m)


def _kernel_or_collapse(psi, valid, cfg):
    try:
        return _interfere(psi, valid, cfg.leakage, cfg.passes,
                          cfg.collapse_tol)
    except NormCollapse:
        return None


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), m=st.integers(1, 12),
       eps=st.floats(0.0, 1.0, exclude_max=True),
       chain=st.lists(st.integers(1, 4), min_size=1, max_size=3),
       reflag=st.booleans())
def test_two_level_states_match_dense_reference_bitwise(seed, m, eps, chain,
                                                        reflag):
    # A chain of kernel calls from the uniform state on the same flags, the
    # last one on other flags if ``reflag`` (after the first call, the
    # dense fallback).
    rng = np.random.default_rng(seed)
    valid, other = _block_flags(rng, m), _block_flags(rng, m)
    reg = Register(m)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qic.state, "_BLOCK", 128)
        valid, other = PhaseMask(reg, valid), PhaseMask(reg, other)
        psi = uniform_superposition(reg)
        ref = StateVector(reg, psi.amplitudes)
        for i, passes in enumerate(chain):
            flags = other if reflag and i == len(chain) - 1 else valid
            cfg = InterferenceConfig(eps, passes)
            expected = reference.interfere(ref.amplitudes, flags.valid, cfg)
            psi = _kernel_or_collapse(psi, flags, cfg)
            assert (psi is None) == (expected is None)
            if psi is None:
                return
            # Two-level unless the input was, over other flags.
            assert (isinstance(psi._labels, PhaseMask)
                    == (i == 0 or flags is valid))
            ref = StateVector(reg, expected)
            assert norm_squared(psi).hex() == norm_squared(ref).hex()
            for index in rng.integers(0, 1 << m, 4):
                assert probability(psi, index) == probability(ref, index)
            cumulative = reference.sample(ref.amplitudes, 0.5)[1]
            ends = np.arange(min(127, (1 << m) - 1), 1 << m, 128)
            draws = [*rng.random(4).tolist(),
                     *_draws_on_running_sums(cumulative, ends)]
            for u in draws:
                assert (sample(psi, _FixedDraw(u))
                        == reference.sample(ref.amplitudes, u)[0]), u
            assert np.array_equal(psi.amplitudes.view(np.uint64),
                                  expected.view(np.uint64))


def _mixed_state(m):
    """A two-level state with flag-free blocks and mixed ones."""
    pred = Predicate(frozenset({3, (1 << m) - 2}), Register(m))
    return interfere_repeated(uniform_superposition(Register(m)), pred,
                              InterferenceConfig(0.2, 2))


@pytest.mark.parametrize("kind", ["fill", "mixed", "real", "complex"])
def test_gather_abs_matches_dense_gather_bitwise(kind, monkeypatch):
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    m = 10
    if kind == "fill":
        psi = uniform_superposition(Register(m))
    elif kind == "mixed":
        psi = _mixed_state(m)
        assert set(psi._labels._kinds) == {0, 2}
    else:
        psi = _state_of_kind(kind, 5, m)
    rng = np.random.default_rng(6)
    cases = [rng.random(1 << m) < 0.3, np.ones(1 << m, dtype=bool),
             np.zeros(1 << m, dtype=bool), np.arange(1 << m) == 900]
    got = [_gather_abs(psi, PhaseMask(psi.register, flags)) for flags in cases]
    if kind in ("fill", "mixed"):
        assert len(psi._values) == 2  # gathered without materialising
    for flags, mags in zip(cases, got):
        assert mags.dtype == np.float64
        assert np.array_equal(mags.view(np.uint64),
                              np.abs(psi.amplitudes[flags]).view(np.uint64))


class TestRemnantSweep:
    def test_rows_match_closed_form(self):
        reg = Register(3)
        rows = remnant_sweep(Predicate(frozenset({1, 3}), reg), [0.0, 0.2],
                             [1, 2])
        assert [row[:2] for row in rows] == [[0.0, 1], [0.0, 2],
                                             [0.2, 1], [0.2, 2]]
        for eps, r, predicted, measured, error in rows:
            assert predicted == (eps / (2.0 - eps)) ** r
            assert error == abs(measured - predicted) < 1e-12

    def test_all_valid_reads_zero(self):
        reg = Register(2)
        rows = remnant_sweep(Predicate(frozenset(range(4)), reg), [0.3], [1])
        assert rows == [[0.3, 1, 0.3 / 1.7, 0.0, 0.3 / 1.7]]

    def test_rows_match_per_cell_interference_bitwise(self, monkeypatch):
        # 128-amplitude blocks, so the 2^9 state spans several; the sparse
        # predicate leaves two of them flag-free.
        monkeypatch.setattr(qic.state, "_BLOCK", 128)
        epsilons = [0.3, 0.0, 0.05]
        for pred, passes in itertools.product(
                [_random_case(3, 9), Predicate(frozenset({5, 300}),
                                               Register(9))],
                [[3, 1, 3, 2], [2, 2], [4, 1], [1]]):
            valid = np.isin(np.arange(1 << 9), list(pred.source))
            rows = remnant_sweep(pred, epsilons, passes)
            expected = []
            for eps in epsilons:
                for r in passes:
                    mags = np.abs(reference.interfere(
                        uniform_superposition(pred.register).amplitudes,
                        valid, InterferenceConfig(eps, r)))
                    measured = float(np.mean(mags[~valid])
                                     / np.mean(mags[valid]))
                    predicted = (eps / (2.0 - eps)) ** r
                    expected.append([eps, r, predicted, measured,
                                     abs(measured - predicted)])
            assert ([[float(x).hex() for x in row] for row in rows]
                    == [[float(x).hex() for x in row] for row in expected])

    def test_peak_memory_is_below_one_dense_state_beside_the_buffer(
            self, monkeypatch):
        monkeypatch.setattr(qic.state, "_BLOCK", 1024)
        m = 14
        dense_bytes = 8 << m
        # Every chained state is two-level: the sweep holds its flags and
        # block scratch (0.28 and 0.16 dense states), far below the bounds.
        for expr, buffer_bytes in (("b13&b2", 8 << (m - 1)),
                                   ("b0", dense_bytes)):
            pred = Predicate(parse_expr(expr), Register(m))

            def run():
                return remnant_sweep(pred, [0.0, 0.1, 0.2], [1, 2, 3, 4])

            run()  # first calls import and compile
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            # Materialising each state and gathering complex copies read
            # 3.05 for "b13&b2".
            assert peak < buffer_bytes + dense_bytes, (expr,
                                                       peak / dense_bytes)

    def test_no_valid_component_is_an_error(self):
        reg = Register(2)
        with pytest.raises(QicError, match="no valid components"):
            remnant_sweep(Predicate(frozenset(), reg), [0.1], [1])
