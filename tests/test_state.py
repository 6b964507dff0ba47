import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qic.state
from qic.errors import IndexOutOfRange, NormCollapse, RegisterMismatch
from qic.state import (
    PhaseMask,
    Register,
    StateVector,
    apply_partial_bit_flip,
    apply_phase_mask,
    basis_state,
    fidelity,
    norm_squared,
    normalize,
    probability,
    sample,
    uniform_superposition,
)
from qic.state import _constant_run_end, _constant_sum, _select

from conftest import dense_partial_flip, random_state


class _FixedDraw:
    """Stands in for a Generator whose uniform draw is always ``u``."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


class TestRegister:
    def test_total_and_dimension(self):
        reg = Register(5)
        assert reg.total_qubits == 5
        assert reg.dimension == 32

    def test_rejects_zero_data_qubits(self):
        with pytest.raises(ValueError):
            Register(0)

    def test_rejects_oversized_register(self):
        for total in (27, 31):
            with pytest.raises(ValueError):
                Register(total)

    def test_max_qubits_is_the_one_limit(self):
        assert qic.state.MAX_QUBITS == 26
        assert Register(26).dimension == 1 << 26
        assert Register(26).total_qubits == 26
        with pytest.raises(ValueError, match="27 qubits exceeds the "
                                             "26-qubit cap"):
            Register(27)

    def test_bitstring_renders_msb_first(self):
        reg = Register(3)
        assert reg.bitstring(1) == "001"
        assert reg.bitstring(6) == "110"
        with pytest.raises(IndexOutOfRange):
            reg.bitstring(8)


class TestUniformSuperposition:
    def test_three_qubits(self):
        psi = uniform_superposition(Register(3))
        expected = 1.0 / math.sqrt(8)
        assert abs(norm_squared(psi) - 1.0) < 1e-15
        assert np.all(psi.amplitudes == expected + 0j)

    def test_single_qubit(self):
        psi = uniform_superposition(Register(1))
        assert np.allclose(psi.amplitudes, [1 / math.sqrt(2)] * 2, atol=1e-15)

    def test_two_qubits_probabilities_sum_to_one(self):
        psi = uniform_superposition(Register(2))
        probs = np.abs(psi.amplitudes) ** 2
        assert np.all(probs == 0.25)
        assert probs.sum() == 1.0


class TestNormSquared:
    def test_uniform_is_unit(self):
        assert abs(norm_squared(uniform_superposition(Register(3))) - 1.0) < 1e-12

    def test_zero_vector(self):
        psi = StateVector(Register(2), np.zeros(4))
        assert norm_squared(psi) == 0.0

    def test_unnormalized_vector(self):
        psi = StateVector(Register(2), [2, 0, 0, 0])
        assert norm_squared(psi) == 4.0


class TestNormalize:
    def test_rescales(self):
        psi = StateVector(Register(1), [2, 0])
        out = normalize(psi)
        assert np.all(out.amplitudes == np.array([1, 0], dtype=complex))
        assert norm_squared(out) == 1.0

    def test_zero_vector_collapses(self):
        psi = StateVector(Register(2), np.zeros(4))
        with pytest.raises(NormCollapse):
            normalize(psi, tol=1e-18)

    def test_bell_like_pair(self):
        psi = StateVector(Register(2), [1, 0, 0, 1])
        out = normalize(psi)
        r = 1 / math.sqrt(2)
        assert np.allclose(out.amplitudes, [r, 0, 0, r], atol=1e-15)

    def test_input_unchanged(self):
        amps = np.array([2.0, 0.0], dtype=complex)
        psi = StateVector(Register(1), amps)
        normalize(psi)
        assert np.all(psi.amplitudes == np.array([2, 0], dtype=complex))

    def test_rejects_nonpositive_tol(self):
        with pytest.raises(ValueError):
            normalize(uniform_superposition(Register(1)), tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_rejects_non_finite_tol(self, tol):
        with pytest.raises(ValueError):
            normalize(uniform_superposition(Register(1)), tol=tol)


class TestProbability:
    def test_two_component_state(self):
        r = 1 / math.sqrt(2)
        psi = StateVector(Register(3), [0, r, 0, r, 0, 0, 0, 0])
        assert abs(probability(psi, 1) - 0.5) < 1e-15
        assert probability(psi, 0) == 0.0

    def test_uniform(self):
        psi = uniform_superposition(Register(3))
        assert abs(probability(psi, 5) - 0.125) < 1e-15

    def test_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            probability(uniform_superposition(Register(2)), 4)


class TestSample:
    def test_basis_state_is_certain(self):
        psi = basis_state(Register(3), 5)
        rng = np.random.default_rng(0)
        assert all(sample(psi, rng) == 5 for _ in range(20))

    def test_two_component_frequencies(self):
        r = 1 / math.sqrt(2)
        psi = StateVector(Register(3), [0, r, 0, r, 0, 0, 0, 0])
        rng = np.random.default_rng(7)
        draws = [sample(psi, rng) for _ in range(10_000)]
        assert set(draws) <= {1, 3}
        # 4 sigma binomial bound around p = 0.5
        assert abs(draws.count(1) / 10_000 - 0.5) < 0.02

    def test_uniform_frequencies(self):
        psi = uniform_superposition(Register(2))
        rng = np.random.default_rng(11)
        draws = [sample(psi, rng) for _ in range(10_000)]
        for i in range(4):
            assert abs(draws.count(i) / 10_000 - 0.25) < 0.02

    def test_deterministic_given_seed(self):
        psi = uniform_superposition(Register(4))
        a = [sample(psi, np.random.default_rng(123)) for _ in range(1)]
        b = [sample(psi, np.random.default_rng(123)) for _ in range(1)]
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        seq1 = [sample(psi, rng1) for _ in range(50)]
        seq2 = [sample(psi, rng2) for _ in range(50)]
        assert a == b
        assert seq1 == seq2

    def test_collapsed_state_rejected(self):
        psi = StateVector(Register(2), np.zeros(4))
        with pytest.raises(NormCollapse):
            sample(psi, np.random.default_rng(0))

    def test_zero_state_flagged_normalized_rejected(self):
        # The unchecked two-level constructor: sample sums constant blocks
        # rather than scanning amplitudes, and must still see the collapse.
        psi = StateVector._two_level(Register(2), None, np.zeros(2), bytes(1))
        with pytest.raises(NormCollapse):
            sample(psi, np.random.default_rng(0))

    def test_tol_bounds_the_unnormalized_total(self):
        psi = StateVector(Register(2), [1e-6, 0, 0, 0])
        with pytest.raises(NormCollapse):
            sample(psi, np.random.default_rng(0))
        assert sample(psi, np.random.default_rng(0), tol=1e-13) == 0

    def test_ignores_overall_scale(self):
        rng = np.random.default_rng(5)
        for seed in range(40):
            m = 1 + seed % 6
            amps = random_state(rng, m).amplitudes
            k = int(rng.integers(-20, 21))
            scaled = StateVector(Register(m), amps * 2.0**k)
            for u in rng.random(8):
                # A tol below every scaled total: only the scale differs.
                assert (sample(scaled, _FixedDraw(u), tol=1e-300)
                        == sample(StateVector(Register(m), amps),
                                  _FixedDraw(u))), (seed, k, u)

    @pytest.mark.parametrize("u,amps,expected", [
        # The cumulative sum rounds to 1 - 1e-12, below the largest draw.
        (1 - 2**-53, [math.sqrt(0.3), math.sqrt(0.7 - 1e-12), 0, 0], 1),
        (0.0, [0, 1, 0, 0], 1),
    ])
    def test_never_returns_zero_probability_index(self, u, amps, expected):
        psi = StateVector(Register(2), amps)
        assert sample(psi, _FixedDraw(u)) == expected

    @pytest.mark.parametrize("tol", [0.0, math.nan, math.inf])
    def test_rejects_nonpositive_or_non_finite_tol(self, tol):
        psi = uniform_superposition(Register(1))
        with pytest.raises(ValueError):
            sample(psi, np.random.default_rng(0), tol=tol)


class TestFidelity:
    def test_self_fidelity(self, rng):
        psi = random_state(rng, 4)
        assert abs(fidelity(psi, psi) - 1.0) < 1e-12

    def test_orthogonal_states(self):
        reg = Register(2)
        assert fidelity(basis_state(reg, 0), basis_state(reg, 3)) == 0.0

    def test_half_overlap(self):
        reg = Register(1)
        plus = uniform_superposition(reg)
        assert abs(fidelity(basis_state(reg, 0), plus) - 0.5) < 1e-12

    def test_register_mismatch(self):
        with pytest.raises(RegisterMismatch):
            fidelity(basis_state(Register(1), 0), basis_state(Register(2), 0))


class TestPhaseMask:
    def test_sign_pattern(self):
        reg = Register(3)
        psi = uniform_superposition(reg)
        mask = PhaseMask.from_indices(reg, {1, 3})
        out = apply_phase_mask(psi, mask)
        signs = np.sign(out.amplitudes.real)
        assert list(signs) == [-1, 1, -1, 1, -1, -1, -1, -1]
        assert abs(norm_squared(out) - 1.0) < 1e-12

    def test_all_valid_is_identity(self, rng):
        psi = random_state(rng, 3)
        mask = PhaseMask.from_indices(psi.register, range(8))
        out = apply_phase_mask(psi, mask)
        assert np.all(out.amplitudes == psi.amplitudes)

    def test_involution_is_exact(self, rng):
        psi = random_state(rng, 5)
        mask = PhaseMask.from_indices(psi.register,
                                      rng.choice(32, size=10, replace=False))
        back = apply_phase_mask(apply_phase_mask(psi, mask), mask)
        assert np.all(back.amplitudes == psi.amplitudes)

    def test_register_mismatch(self):
        mask = PhaseMask.from_indices(Register(2), {0})
        with pytest.raises(RegisterMismatch):
            apply_phase_mask(uniform_superposition(Register(3)), mask)

    def test_index_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            PhaseMask.from_indices(Register(2), {4})

    def test_caller_array_is_copied(self):
        flags = np.array([True, False, False, True])
        mask = PhaseMask(Register(2), flags)
        flags[1] = True
        assert mask.valid_indices() == [0, 3]
        assert flags.flags.writeable and not mask.valid.flags.writeable

    def test_read_only_caller_array_is_copied(self):
        flags = np.array([True, False, False, True])
        flags.flags.writeable = False
        mask = PhaseMask(Register(2), flags)
        assert mask.valid is not flags
        flags.flags.writeable = True
        flags[1] = True
        assert mask.valid_indices() == [0, 3]


class TestPartialBitFlip:
    def test_quarter_turn_on_bit0(self):
        psi = basis_state(Register(3), 0)
        out = apply_partial_bit_flip(psi, 0, math.pi / 4)
        r = 1 / math.sqrt(2)
        expected = np.zeros(8, dtype=complex)
        expected[0] = r
        expected[1] = 1j * r
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_zero_angle_is_identity(self, rng):
        psi = random_state(rng, 4)
        out = apply_partial_bit_flip(psi, 2, 0.0)
        assert np.all(out.amplitudes == psi.amplitudes)

    def test_half_turn_flips_with_phase(self):
        psi = basis_state(Register(2), 0)
        out = apply_partial_bit_flip(psi, 1, math.pi / 2)
        expected = np.zeros(4, dtype=complex)
        expected[2] = 1j
        assert np.allclose(out.amplitudes, expected, atol=1e-12)

    @pytest.mark.parametrize("complex_state", [False, True])
    def test_matches_reversed_copy_reference_bitwise(self, rng, complex_state):
        m = 9
        psi = (random_state(rng, m) if complex_state
               else StateVector(Register(m), rng.normal(size=1 << m)))
        for qubit in range(m):
            # The reference materialises the partners in index order.
            paired = psi.amplitudes.reshape(-1, 2, 1 << qubit)
            flipped = paired[:, ::-1, :].reshape(-1)
            expected = (np.cos(0.5) * psi.amplitudes
                        + 1j * np.sin(0.5) * flipped)
            got = apply_partial_bit_flip(psi, qubit, 0.5).amplitudes
            assert np.array_equal(got.view(np.uint64),
                                  expected.view(np.uint64))

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            apply_partial_bit_flip(basis_state(Register(2), 0), 2, 0.3)


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 10),
    data=st.data(),
)
def test_norm_preserving_ops_hold_norm(seed, m, data):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, m)
    qubit = data.draw(st.integers(0, m - 1))
    theta = data.draw(st.floats(0.0, math.pi, allow_nan=False))
    n_valid = data.draw(st.integers(0, psi.register.dimension))
    mask = PhaseMask.from_indices(
        psi.register, rng.choice(psi.register.dimension, size=n_valid,
                                 replace=False))
    for out in (apply_phase_mask(psi, mask),
                apply_partial_bit_flip(psi, qubit, theta)):
        assert abs(norm_squared(out) - 1.0) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 8),
    theta=st.floats(-math.pi, math.pi, allow_nan=False),
    qubit_pick=st.integers(0, 1000),
)
def test_partial_flip_inverts_with_negated_angle(seed, m, theta, qubit_pick):
    rng = np.random.default_rng(seed)
    psi = random_state(rng, m)
    qubit = qubit_pick % m
    there = apply_partial_bit_flip(psi, qubit, theta)
    back = apply_partial_bit_flip(there, qubit, -theta)
    assert np.max(np.abs(back.amplitudes - psi.amplitudes)) < 1e-10


def _bits(amps):
    return amps.view(np.uint64)


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    complex_state=st.booleans(),
    data=st.data(),
)
def test_blocked_flip_matches_dense_reference_bitwise(seed, m, complex_state,
                                                      data):
    # 128-amplitude blocks: qubits 0-6 pair inside a block, qubits 7 and up
    # pair a block with the one 2^qubit above it.
    qubit = data.draw(st.integers(0, m - 1))
    theta = data.draw(st.floats(0.0, math.pi / 2, exclude_min=True))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << m)
    if complex_state:
        amps = amps + 1j * rng.normal(size=1 << m)
    amps[rng.random(1 << m) < 0.2] = -0.0
    psi = StateVector(Register(m), amps)
    before = psi.amplitudes.copy()
    expected = dense_partial_flip(psi.amplitudes, qubit, theta)
    in_place = psi.amplitudes.astype(np.complex128)
    expected_in_place = dense_partial_flip(in_place, qubit, theta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qic.state, "_BLOCK", 128)
        got = apply_partial_bit_flip(psi, qubit, theta).amplitudes
        qic.state._flip(in_place, in_place, qubit, theta)
    assert np.array_equal(_bits(got), _bits(expected))
    assert np.array_equal(_bits(in_place), _bits(expected_in_place))
    assert np.array_equal(_bits(psi.amplitudes), _bits(before))


def test_sampling_matches_distribution_within_tv_bound():
    rng = np.random.default_rng(424242)
    psi = random_state(rng, 4)
    probs = np.abs(psi.amplitudes) ** 2
    draws = np.array([sample(psi, rng) for _ in range(100_000)])
    counts = np.bincount(draws, minlength=16) / 100_000
    tv = 0.5 * np.sum(np.abs(counts - probs))
    assert tv <= 0.02


class TestDtypeRule:
    @pytest.mark.parametrize("amps", [[1, 0], [0.5, 0.5], np.ones(2, bool)])
    def test_real_input_stores_float64(self, amps):
        assert StateVector(Register(1), amps).amplitudes.dtype == np.float64

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_real_array_is_copied_to_float64(self, dtype):
        amps = np.array([1, 0], dtype=dtype)
        psi = StateVector(Register(1), amps)
        assert psi.amplitudes.dtype == np.float64
        assert not psi.amplitudes.flags.writeable
        assert amps.flags.writeable
        assert not np.shares_memory(psi.amplitudes, amps)

    @pytest.mark.parametrize("amps", [[1 + 0j, 0], np.zeros(2, np.complex64)])
    def test_complex_input_stores_complex128(self, amps):
        psi = StateVector(Register(1), amps)
        assert psi.amplitudes.dtype == np.complex128

    def test_prepared_states_are_real(self):
        assert uniform_superposition(Register(3)).amplitudes.dtype == np.float64
        assert basis_state(Register(3), 5).amplitudes.dtype == np.float64

    def test_partial_flip_promotes_to_complex(self):
        out = apply_partial_bit_flip(uniform_superposition(Register(3)), 1, 0.4)
        assert out.amplitudes.dtype == np.complex128

    def test_real_transforms_stay_real(self, rng):
        psi = uniform_superposition(Register(4))
        mask = PhaseMask.from_indices(psi.register, [1, 9])
        assert apply_phase_mask(psi, mask).amplitudes.dtype == np.float64
        assert normalize(psi).amplitudes.dtype == np.float64

    def test_transforms_match_complex_copy_bitwise(self, rng):
        amps = rng.normal(size=64)
        real = StateVector(Register(6), amps)
        cplx = StateVector(Register(6), amps.astype(np.complex128))
        other = random_state(rng, 6)
        for out_real, out_cplx in [
            (normalize(real), normalize(cplx)),
            (apply_partial_bit_flip(real, 2, 0.3),
             apply_partial_bit_flip(cplx, 2, 0.3)),
        ]:
            a = out_real.amplitudes.astype(np.complex128)
            b = out_cplx.amplitudes
            assert np.array_equal(a.real.view(np.uint64), b.real.view(np.uint64))
            assert np.array_equal(a.imag.view(np.uint64), b.imag.view(np.uint64))
        unit_real, unit_cplx = normalize(real), normalize(cplx)
        assert fidelity(unit_real, unit_real) == fidelity(unit_cplx, unit_cplx)
        assert fidelity(unit_real, other) == fidelity(unit_cplx, other)
        assert fidelity(other, unit_real) == fidelity(other, unit_cplx)
        assert norm_squared(real) == norm_squared(cplx)
        assert (sample(real, np.random.default_rng(3))
                == sample(cplx, np.random.default_rng(3)))


def _dense_sample(psi, u):
    """The whole-array sampler the blocked one replaced, kept as reference:
    a 2^m running sum searched for u times its last entry."""
    probs = np.abs(psi.amplitudes) ** 2
    cumulative = np.cumsum(probs)
    index = int(np.searchsorted(cumulative, u * cumulative[-1], side="right"))
    return index, cumulative


def _draws_on_running_sums(cumulative, indices):
    """Draws u with u * cumulative[-1] equal to cumulative[i], i in indices."""
    total = cumulative[-1]
    for end in cumulative[indices]:
        guess = end / total
        for u in (np.nextafter(guess, 0), guess, np.nextafter(guess, 2)):
            if u < 1 and u * total == end:
                yield float(u)


def _block_flags(rng, m):
    """2^m read-only flags whose aligned 128-blocks are each flag-free,
    all valid or mixed at random."""
    flags = rng.random(1 << m) < rng.random()
    for start in range(0, 1 << m, 128):
        kind = rng.integers(3)
        if kind < 2:
            flags[start:start + 128] = bool(kind)
    flags.flags.writeable = False
    return flags


class TestBlockedReductions:
    """The block loops against whole-array numpy, with 128-amplitude blocks
    so that registers from m = 8 up span several blocks."""

    @pytest.fixture(autouse=True)
    def small_blocks(self, monkeypatch):
        monkeypatch.setattr(qic.state, "_BLOCK", 128)

    def test_sample_matches_dense_reference(self):
        landed = 0
        for seed in range(500):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 13))
            amps = rng.normal(size=1 << m) * rng.random(1 << m) ** 4
            if seed % 3 == 0:
                amps = amps + 1j * rng.normal(size=1 << m)
            amps[rng.random(1 << m) < 0.2] = 0.0
            if not amps.any():
                continue
            psi = StateVector(Register(m), amps)
            u = float(rng.random())
            expected, cumulative = _dense_sample(psi, u)
            assert sample(psi, _FixedDraw(u)) == expected, seed
            # Every block end, and entries inside blocks.
            ends = np.arange(127, 1 << m, 128)
            inside = rng.integers(0, 1 << m, 8)
            for u in _draws_on_running_sums(cumulative,
                                            np.concatenate([ends, inside])):
                landed += 1
                assert sample(psi, _FixedDraw(u)) == _dense_sample(psi, u)[0]
        assert landed > 1000

    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_draws_on_exact_block_ends_start_the_next_block(self, m):
        # Every |amp|^2 is 2^-m, so every running sum and the total are exact.
        psi = uniform_superposition(Register(m))
        for end in range(128, 1 << m, 128):
            u = end / (1 << m)
            assert sample(psi, _FixedDraw(u)) == end
            assert _dense_sample(psi, u)[0] == end

    @pytest.mark.parametrize("m", [1, 7, 8, 12])
    def test_norm_squared_matches_np_sum(self, m, rng):
        for psi in (random_state(rng, m),
                    StateVector(Register(m), rng.normal(size=1 << m))):
            assert norm_squared(psi) == float(np.sum(np.abs(psi.amplitudes) ** 2))

    def test_fill_blocks_read_like_their_dense_copy(self):
        for seed in range(300):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(1, 13))
            # Flag-free, all-valid and mixed blocks over two values.
            flags = _block_flags(rng, m)
            values = rng.random(2) * 2.0 ** rng.integers(-8, 3, 2)
            if seed % 5 == 0:
                values[0] = 0.0
            if seed % 7 == 0:
                values[1] = values[0]
            psi = StateVector._two_level(Register(m), flags, values,
                                         qic.state._block_kinds(flags))
            dense = StateVector(psi.register, psi.amplitudes)
            assert psi.amplitudes.dtype == np.float64
            assert not psi.amplitudes.flags.writeable
            assert norm_squared(psi) == norm_squared(dense)
            for index in rng.integers(0, 1 << m, 5):
                assert probability(psi, index) == probability(dense, index)
            total = _dense_sample(dense, 0.5)[1][-1]
            if not total >= qic.state.DEFAULT_COLLAPSE_TOL:
                with pytest.raises(NormCollapse):
                    sample(psi, _FixedDraw(0.5))
                continue
            for draw in range(5):
                u = float(rng.random())
                assert (sample(psi, _FixedDraw(u))
                        == sample(dense, _FixedDraw(u))
                        == _dense_sample(dense, u)[0]), (seed, u)

    def test_one_fill_throughout_materialises_as_a_view(self):
        psi = uniform_superposition(Register(12))
        amps = psi.amplitudes
        assert amps.strides == (0,) and not amps.flags.writeable
        assert np.array_equal(amps, np.full(1 << 12, 2.0**-6))
        assert psi.amplitudes is amps


# Float64 words that a select must copy untouched: +-0.0, the smallest and
# largest subnormals (and a negative one), +-inf, and NaNs with payloads.
_SPECIAL_WORDS = (0, 1 << 63, 1, (1 << 52) - 1, (1 << 63) | 3,
                  0x7FF0 << 48, 0xFFF0 << 48, (0x7FF8 << 48) | 0xBEEF,
                  (0xFFF4 << 48) | 1)


@settings(max_examples=300, deadline=None)
@given(flags=st.lists(st.booleans(), max_size=300),
       words=st.tuples(*[st.sampled_from(_SPECIAL_WORDS)
                         | st.integers(0, 2**64 - 1)] * 2))
def test_select_is_indexing_by_flag_bitwise(flags, words):
    flags = np.array(flags, dtype=bool)
    pair = np.array(words, dtype=np.uint64).view(np.float64)
    out = np.empty(len(flags))
    assert _select(flags, pair, out) is out
    assert np.array_equal(out.view(np.uint64),
                          pair.view(np.uint64)[flags.astype(np.intp)])


def test_select_copies_every_pair_of_special_words():
    flags = np.arange(5) % 2 == 1
    for a in _SPECIAL_WORDS:
        for b in _SPECIAL_WORDS:
            pair = np.array([a, b], dtype=np.uint64).view(np.float64)
            got = _select(flags, pair, np.empty(5)).view(np.uint64)
            assert got.tolist() == [a, b, a, b, a]


def test_numpy_sum_is_the_pairwise_tree_of_its_128_blocks():
    rng = np.random.default_rng(7)
    for k in range(7, 21):
        x = rng.random(1 << k) * 2.0 ** rng.integers(-40, 40, 1 << k)
        sums = [np.sum(x[i:i + 128]) for i in range(0, 1 << k, 128)]
        while len(sums) > 1:
            sums = [a + b for a, b in zip(sums[::2], sums[1::2])]
        assert sums[0] == np.sum(x), (
            f"numpy contract broken at 2^{k} elements: np.sum of a contiguous "
            "float64 array is no longer the pairwise tree of its aligned "
            "128-element block sums, which the blocked reductions of "
            "qic.state (_BLOCK, _pairwise) rely on for unchanged bits")


def test_numpy_cumsum_adds_strictly_in_order():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 127, 128, 129, 1000, 65536, 65537, 70000):
        x = rng.random(n) * 2.0 ** rng.integers(-60, 60, n)
        expected, total = [], 0.0
        for value in x.tolist():
            total += value
            expected.append(total)
        np.cumsum(x, out=x)  # aliased, as sample scans its buffer
        assert np.array_equal(x.view(np.uint64),
                              np.array(expected).view(np.uint64)), (
            f"numpy contract broken at {n} elements: np.cumsum over a "
            "float64 array, written in place, no longer adds strictly in "
            "index order, which qic.state.sample (and the closed-form run "
            "ends of _constant_run_end) rely on for unchanged bits")


def test_constant_sum_matches_numpy_sum_and_mean_bitwise():
    rng = np.random.default_rng(13)
    counts = [*range(1, 1500), *rng.integers(1500, 1 << 21, 40).tolist(),
              1 << 20, (1 << 20) + 1, (1 << 20) - 1]
    for v in (0.1, 1 / 3, 2.0**-30 * 7, float(rng.random())):
        for n in counts:
            run = np.full(n, v)
            got = _constant_sum(v, n)
            assert got.hex() == np.sum(run).hex(), (v, n)
            assert float(got / n).hex() == float(np.mean(run)).hex(), (
                f"numpy contract broken for {n} copies of {v!r}: np.sum "
                "of a contiguous float64 array no longer follows the "
                "pairwise recursion (leaves of at most 128, halves rounded "
                "down to a multiple of 8) that qic.state._constant_sum, and "
                "with it the sweep's measured ratio, relies on")


def _cumsum_end(carry, v, count):
    run = np.full(count + 1, v)
    run[0] = carry
    return float(np.cumsum(run)[-1])


class TestConstantRunEnd:
    """The closed-form end of a constant run against np.cumsum, bitwise.

    A run with a tie returns None, and sample scans that block with
    np.cumsum instead, so a None must come from a run that ties.
    """

    def check(self, carry, v, count):
        got = _constant_run_end(carry, v, count)
        if got is None:
            assert _is_tie_somewhere(carry, v, count), (carry, v, count)
            return
        expected = _cumsum_end(carry, v, count)
        assert got.hex() == expected.hex(), (carry, v, count)

    @pytest.mark.parametrize("count", [1, 2, 3, 4, 5, 7, 64, 1000,
                                       2**16 - 1, 2**16, 2**16 + 1])
    def test_carry_of_zero(self, count):
        rng = np.random.default_rng(count)
        for v in [1.0, 0.1, 2.0**-23, 1 / 3, *rng.random(20).tolist()]:
            self.check(0.0, v, count)

    def test_every_count_up_to_a_few_hundred(self):
        for count in range(1, 300):
            self.check(0.0, 0.1, count)
            self.check(0.37, 1e-3 / 3, count)

    def test_carry_below_v(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = float(rng.random())
            self.check(v * float(rng.random()), v, int(rng.integers(1, 5000)))

    def test_carry_far_above_v_gets_stuck(self):
        # v below half an ulp of the carry: every add rounds back.
        self.check(1.0, 2.0**-54, 2**16 + 1)
        self.check(1.0, 2.0**-53 * 0.75, 2**16)
        assert _constant_run_end(1.0, 2.0**-60, 2**16) == 1.0
        # v just above half an ulp: every add moves by one ulp.
        self.check(1.0, 2.0**-53 * 1.25, 2**16 + 1)

    def test_subnormal_v(self):
        tiny = 5e-324
        for v in (tiny, 3 * tiny, 2.0**-1030, 2.0**-1022 - tiny):
            for carry in (0.0, tiny, 2.0**-1022, 1e-300):
                for count in (1, 2, 1000, 2**16 + 1):
                    self.check(carry, v, count)

    def test_exact_ties(self):
        # v an odd multiple of half the sum's ulp: rounding goes to even.
        for v, carry in [(2.0**-53, 1.0), (3 * 2.0**-53, 1.0),
                         (1 + 2.0**-52, 0.0), (2.0**-53, 1 + 2.0**-52)]:
            for count in (1, 2, 3, 100, 2**16 + 1):
                self.check(carry, v, count)
                assert ((_constant_run_end(carry, v, count) is None)
                        == _is_tie_somewhere(carry, v, count))

    def test_runs_across_several_binades(self):
        for v in (1.0, 0.3, 1e-5, 2.0**-40 * 3):
            self.check(0.0, v, 2**16 + 1)
            self.check(v / 7, v, 2**16)

    def test_random_cases(self):
        rng = np.random.default_rng(5)
        ties = 0
        for _ in range(3000):
            v = float(rng.random() * 2.0 ** rng.integers(-80, 4))
            if rng.random() < 0.3:
                # Round v to a few bits so that ties are common.
                v = float(np.round(v * 2.0**12) / 2.0**12) or 2.0**-12
            carry = float(rng.random() * 2.0 ** rng.integers(-90, 10))
            if rng.random() < 0.2:
                carry = 0.0
            count = int(rng.integers(1, 3000))
            self.check(carry, v, count)
            tie = _is_tie_somewhere(carry, v, count)
            assert (_constant_run_end(carry, v, count) is None) == tie
            ties += tie
        assert ties > 100


def _is_tie_somewhere(carry, v, count):
    """Whether some add of the run is a tie, checked one add at a time."""
    s = carry
    for _ in range(count):
        u = math.ulp(s)
        if math.fmod(v, u) * 2 == u:
            return True
        s += v
    return False


def test_sample_on_a_uniform_state_allocates_only_block_scratch():
    psi = uniform_superposition(Register(20))
    sample(psi, np.random.default_rng(0))  # first calls import what they need
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        draws = [sample(psi, np.random.default_rng(seed)) for seed in range(5)]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert draws == [sample(StateVector(psi.register, psi.amplitudes),
                            np.random.default_rng(seed)) for seed in range(5)]
    # One scan of a block plus its carry slot, and small change.
    assert peak < 8 * (qic.state._BLOCK + 1) + 4096


def test_sample_with_tying_fill_blocks_allocates_one_block_scan():
    reg = Register(20)
    step = qic.state._BLOCK
    fill = 0.001
    # The run of fill masses from carry 0 ties, so every block falls back
    # to a real scan, which must reuse sample's own buffer.
    assert _constant_run_end(0.0, fill * fill, step) is None
    psi = StateVector._two_level(reg, None, np.full(2, fill),
                                 bytes(len(qic.state._blocks(1 << 20))))
    sample(psi, np.random.default_rng(0))  # first calls import what they need
    rng = np.random.default_rng(1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        draws = [sample(psi, rng) for _ in range(5)]
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    dense = StateVector(reg, psi.amplitudes)
    rng = np.random.default_rng(1)
    assert draws == [sample(dense, rng) for _ in range(5)]
    assert peak < 8 * (step + 1) + 4096
