import itertools
import math
import random
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qic.state
from qic.ecc import NoiseModel
from qic.enumeration import RunConfig
from qic.errors import IndexOutOfRange, NormCollapse, RegisterMismatch
from qic.interference import InterferenceConfig
from qic.state import (
    Classes,
    PhaseMask,
    Register,
    StateVector,
    apply_partial_bit_flip,
    apply_phase_mask,
    basis_state,
    fidelity,
    norm_squared,
    probability,
    sample,
    uniform_superposition,
)
from qic.state import (_constant_run_end, _constant_sum, _gather,
                       _identity, _interfere, _interfere_classes, _select,
                       _Stream)

import reference
from conftest import bits_of, random_state


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


@pytest.mark.parametrize("build,field", [
    (Register, "total_qubits"),
    (lambda n: InterferenceConfig(passes=n), "passes"),
    (lambda n: NoiseModel(events=n), "events"),
    (lambda n: RunConfig(seed=n), "seed"),
    (lambda n: RunConfig(seed=1, max_runs=n), "max_runs"),
], ids=["qubits", "passes", "events", "seed", "max_runs"])
def test_counts_are_refused_unless_integers(build, field):
    # At construction, not later inside a shift, a range or numpy's seeding.
    for value in (1.5, 2.0, "2", np.float64(2.0)):
        with pytest.raises(TypeError):
            build(value)
    stored = getattr(build(np.int64(2)), field)
    assert stored == 2 and type(stored) is int


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

    def test_table_forms_match_their_amplitudes_bitwise(self, monkeypatch):
        # Class forms over random columns (a real and a complex table) and
        # a two-level form, each spanning four 128-index blocks.
        monkeypatch.setattr(qic.state, "_BLOCK", 128)
        m, k, rng = 9, 4, np.random.default_rng(29)
        reg = Register(m)
        columns = tuple(int(c) for c in rng.integers(0, 1 << k, m))
        real = rng.normal(size=1 << k)
        states = [StateVector._table(reg, Classes(columns), table)
                  for table in (real, real + 1j * rng.normal(size=1 << k))]
        states.append(StateVector._table(
            reg, PhaseMask(reg, _block_flags(rng, m)), rng.normal(size=2)))
        for psi in states:
            amps = psi.amplitudes
            for i in range(reg.dimension):
                want = float(abs(amps[i]) ** 2)
                assert probability(psi, i).hex() == want.hex(), i


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
        psi = StateVector._table(Register(2), None, np.zeros(2))
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


def _stream_seeds():
    """Word-boundary seeds, then seeds of one and of two 32-bit words."""
    draws = random.Random(30)
    return [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1,
            *(draws.getrandbits(bits) for bits in (16, 32, 33, 64) * 3)]


class TestStream:
    """The seeded stream is ``np.random.default_rng(seed)``'s, bit for bit."""

    # None is a random() draw; h = 1 draws nothing, 2^31 + 7 rejects about
    # half its draws, 2^32 takes a 32-bit half as it is.
    DRAWS = (None, 1, 2, 3, 22, 2**26, 2**31 + 7, 2**32)

    @pytest.mark.parametrize("seed", _stream_seeds())
    def test_draws_match_numpy_in_any_order(self, seed):
        order = list(self.DRAWS * 12)
        random.Random(seed).shuffle(order)
        # Odd 32-bit draws around random() keep numpy's buffered half.
        order = [3, None, 3, None, None, 2**32, 22, *order]
        ours, numpy_s = _Stream(seed), np.random.default_rng(seed)
        for step, h in enumerate(order):
            if h is None:
                got, want = ours.random(), numpy_s.random()
            else:
                got, want = ours.integers(0, h), int(numpy_s.integers(0, h))
            assert type(got) is type(want)
            assert got == want, (step, h)

    @pytest.mark.parametrize("low,high", [(0, 0), (0, 2**32 + 1), (1, 3)])
    def test_refuses_ranges_it_does_not_reproduce(self, low, high):
        with pytest.raises(ValueError):
            _Stream(0).integers(low, high)


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

    @staticmethod
    def _pairs(rng, m):
        """Overlapping random states: unit-norm x, and x plus noise, with
        signed zeros among the words of both."""
        dim = 1 << m
        for _ in range(4):
            x = rng.normal(size=dim) + 1j * rng.normal(size=dim)
            y = x + 0.5 * (rng.normal(size=dim) + 1j * rng.normal(size=dim))
            for amps in (x, y):
                words = amps.view(np.float64)
                pick = rng.random(words.size)
                words[pick < 0.05] = 0.0
                words[(0.05 <= pick) & (pick < 0.1)] = -0.0
                amps /= np.sqrt(np.sum(np.abs(amps) ** 2))
            yield x, y

    @pytest.mark.parametrize("block", [128, None])
    def test_matches_the_reference_bitwise_and_fsum(self, block, monkeypatch):
        if block:
            monkeypatch.setattr(qic.state, "_BLOCK", block)
        reg = Register(12)
        for x, y in self._pairs(np.random.default_rng(12), 12):
            got = fidelity(StateVector(reg, x), StateVector(reg, y))
            assert got.hex() == reference.fidelity(x, y).hex()
            real = math.fsum([*(x.real * y.real), *(x.imag * y.imag)])
            imag = math.fsum([*(x.real * y.imag), *(-x.imag * y.real)])
            exact = real * real + imag * imag
            assert abs(got - exact) <= 1e-15 * exact

    @pytest.mark.parametrize("block", [128, None])
    def test_two_level_argument_matches_its_dense_copy(self, block,
                                                       monkeypatch):
        # A two-level state's imaginary parts are zero, and its terms with
        # them are skipped: a sign of zero may move, the result's bits not.
        if block:
            monkeypatch.setattr(qic.state, "_BLOCK", block)
        reg, rng = Register(12), np.random.default_rng(13)
        flags = rng.random(reg.dimension) < 0.3
        flags[:256] = False
        flags[-256:] = True
        mask = PhaseMask(reg, flags)
        levels = [StateVector._table(reg, None, np.array([0.4, 0.4]))]
        for values in ([0.0, 0.6], [-0.0, -0.5], [-0.2, 0.7]):
            levels.append(StateVector._table(reg, mask, np.array(values)))
        for x, y in self._pairs(rng, 12):
            dense = StateVector(reg, y)
            for level in levels:
                copy = StateVector(reg, level.amplitudes)
                for got, want in (((level, dense), (copy, dense)),
                                  ((dense, level), (dense, copy)),
                                  ((level, levels[2]), (copy, levels[2]))):
                    assert fidelity(*got).hex() == fidelity(*want).hex()
                assert fidelity(dense, level).hex() == reference.fidelity(
                    y, level.amplitudes).hex()
        # Same-label pairs (uniform x uniform, and two-level x two-level
        # over one mask) take the per-label path.
        uniform = StateVector._table(reg, None, np.array([0.3, 0.3]))
        pairs = [(levels[0], uniform), *itertools.product(levels[1:], repeat=2)]
        for psi, phi in pairs:
            assert psi._labels is phi._labels
            assert fidelity(psi, phi).hex() == reference.fidelity(
                psi.amplitudes, phi.amplitudes).hex()


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
        assert reference.valid_indices(mask.valid) == [0, 3]
        assert flags.flags.writeable and not mask.valid.flags.writeable

    def test_read_only_caller_array_is_copied(self):
        flags = np.array([True, False, False, True])
        flags.flags.writeable = False
        mask = PhaseMask(Register(2), flags)
        assert mask.valid is not flags
        flags.flags.writeable = True
        flags[1] = True
        assert reference.valid_indices(mask.valid) == [0, 3]


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
            expected = reference.flip(psi.amplitudes, qubit, 0.5)
            got = apply_partial_bit_flip(psi, qubit, 0.5).amplitudes
            assert np.array_equal(got.view(np.uint64),
                                  expected.view(np.uint64))

    @pytest.mark.parametrize("block", [128, None])
    def test_two_level_input_flips_like_its_dense_copy(self, block,
                                                       monkeypatch):
        # The uniform state and a two-level state over sparse flags, whose
        # fill blocks hold one value: both are written block by block into
        # the output, never made dense themselves.
        if block:
            monkeypatch.setattr(qic.state, "_BLOCK", block)
        for m in (3, 9, 12, 18):
            reg = Register(m)
            flags = np.isin(np.arange(1 << m), [1, 5, (1 << m) - 1])
            uniform = uniform_superposition(reg)
            level = _interfere(uniform, PhaseMask(reg, flags), 0.1, 2, 1e-9)
            qubits = [0, m - 1, 1, 0, m // 2]
            for psi in (uniform, level):
                tracemalloc.start()
                try:
                    got = apply_partial_bit_flip(psi, qubits, 0.7).amplitudes
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert len(psi._values) == 2  # still its two values
                if m == 18:
                    # The output and block scratch: well below two states.
                    assert peak < 1.5 * got.nbytes
                expected = np.array(psi.amplitudes)
                for qubit in qubits:
                    expected = reference.flip(expected, qubit, 0.7)
                assert np.array_equal(reference.bits(got),
                                      reference.bits(expected))

    def test_qubit_out_of_range(self):
        with pytest.raises(IndexOutOfRange):
            apply_partial_bit_flip(basis_state(Register(2), 0), 2, 0.3)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_angle_is_refused(self, theta):
        with pytest.raises(ValueError, match="theta must be finite"):
            apply_partial_bit_flip(basis_state(Register(2), 0), 1, theta)

    @pytest.mark.parametrize("qubit,error", [
        (1.0, TypeError), (np.float64(2.0), TypeError),
        ([0, 1, 20], IndexOutOfRange)])
    def test_bad_qubit_is_refused_before_the_output_exists(self, qubit,
                                                           error):
        # The uniform state holds no amplitude array, so the only
        # state-sized allocation would be the output.
        psi = uniform_superposition(Register(20))
        tracemalloc.start()
        try:
            with pytest.raises(error):
                apply_partial_bit_flip(psi, qubit, 0.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 << 20, peak / (16 << 20)


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


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 12),
    complex_state=st.booleans(),
    data=st.data(),
)
def test_blocked_flip_matches_dense_reference_bitwise(seed, m, complex_state,
                                                      data):
    # 128-amplitude blocks make 32-amplitude pieces: from qubit 5 on a
    # piece holds a column range of both halves of one row of pairs.
    qubit = data.draw(st.integers(0, m - 1))
    theta = data.draw(st.floats(0.0, math.pi / 2, exclude_min=True))
    rng = np.random.default_rng(seed)
    amps = rng.normal(size=1 << m)
    if complex_state:
        amps = amps + 1j * rng.normal(size=1 << m)
    amps[rng.random(1 << m) < 0.2] = -0.0
    psi = StateVector(Register(m), amps)
    before = psi.amplitudes.copy()
    expected = reference.flip(psi.amplitudes, qubit, theta)
    in_place = psi.amplitudes.astype(np.complex128)
    expected_in_place = reference.flip(in_place, qubit, theta)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qic.state, "_BLOCK", 128)
        got = apply_partial_bit_flip(psi, qubit, theta).amplitudes
        qic.state._flips(in_place, in_place, [1 << qubit], theta)
    assert np.array_equal(reference.bits(got), reference.bits(expected))
    assert np.array_equal(reference.bits(in_place), reference.bits(expected_in_place))
    assert np.array_equal(reference.bits(psi.amplitudes), reference.bits(before))


@st.composite
def _class_forms(draw):
    """A class form on at most 12 qubits over 2^k classes, k <= 5: random
    columns, and a real or complex table with signed zeros among its
    words; with its classes per index, computed one index at a time."""
    m, k = draw(st.integers(1, 12)), draw(st.integers(1, 5))
    columns = tuple(draw(st.lists(st.integers(0, (1 << k) - 1),
                                  min_size=m, max_size=m)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    values = rng.normal(size=1 << k)
    if draw(st.booleans()):
        values = values + 1j * rng.normal(size=1 << k)
    words = values.view(np.float64)
    words[rng.random(words.size) < 0.2] = -0.0
    classes = [0] * (1 << m)
    for i in range(1 << m):
        for bit, column in zip(bits_of(i, m), columns):
            classes[i] ^= column * bit
    return StateVector._table(Register(m), Classes(columns), values), classes


@settings(max_examples=150, deadline=None)
@given(form=_class_forms(), block=st.sampled_from([128, None]),
       theta=st.one_of(st.just(math.pi / 2),
                       st.floats(0.0, math.pi / 2, exclude_min=True)),
       eps=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       passes=st.integers(1, 3), data=st.data())
def test_class_form_matches_its_dense_copy_bitwise(form, block, theta, eps,
                                                   passes, data):
    psi, classes = form
    m, size = psi.register.total_qubits, len(psi._values)
    expected = psi._values.astype(np.complex128)[classes]
    qubits = data.draw(st.lists(st.integers(0, m - 1), max_size=8))
    valid = np.array(data.draw(st.lists(st.booleans(), min_size=size,
                                        max_size=size)))
    rng = np.random.default_rng(len(qubits))
    other = random_state(rng, m)
    with pytest.MonkeyPatch.context() as patch:
        if block:
            patch.setattr(qic.state, "_BLOCK", block)
        flipped = apply_partial_bit_flip(psi, qubits, theta)
        try:
            passed = _interfere_classes(psi, valid, eps, passes, 1e-9)
        except NormCollapse:
            passed = None
        forms = [x for x in (psi, flipped, passed) if x is not None]
        copies = [StateVector(x.register, x.amplitudes) for x in forms]
        for x, copy in zip(forms, copies):
            assert x._labels == psi._labels
            assert norm_squared(x).hex() == norm_squared(copy).hex()
            for index in rng.integers(0, 1 << m, 4):
                assert probability(x, index) == probability(copy, index)
            for u in rng.random(3):
                if norm_squared(copy) >= 1e-9:
                    assert (sample(x, _FixedDraw(u))
                            == sample(copy, _FixedDraw(u)))
            for y, y_copy in [*zip(forms, copies), (other, other)]:
                want = fidelity(copy, y_copy).hex()
                assert fidelity(x, y).hex() == want
                assert fidelity(y, x).hex() == fidelity(y_copy, copy).hex()

    assert np.array_equal(reference.bits(psi.amplitudes),
                          reference.bits(expected))
    for qubit in qubits:
        expected = reference.flip(expected, qubit, theta)
    assert np.array_equal(reference.bits(flipped.amplitudes),
                          reference.bits(expected))
    cfg = SimpleNamespace(leakage=eps, passes=passes, collapse_tol=1e-9)
    want = reference.interfere(psi.amplitudes, valid[classes], cfg)
    assert (passed is None) == (want is None)
    if passed is not None:
        assert np.array_equal(reference.bits(passed.amplitudes),
                              reference.bits(want))


def test_dense_amplitudes_are_the_table_itself():
    # A dense state is a table over the identity columns: its amplitudes
    # are that table, read-only, never copied, from any transform.
    rng = np.random.default_rng(17)
    psi = random_state(rng, 6)
    mask = PhaseMask.from_indices(psi.register, [3, 40])
    states = [psi, apply_partial_bit_flip(psi, [0, 5], 0.3),
              apply_phase_mask(psi, mask), basis_state(psi.register, 9),
              _interfere(psi, mask, 0.1, 2, 1e-9),
              apply_partial_bit_flip(uniform_superposition(psi.register), 2,
                                     0.4)]
    for state in states:
        assert state._labels == _identity(6)
        amps = state.amplitudes
        assert amps is state._values and state.amplitudes is amps
        assert amps.dtype == np.complex128 and not amps.flags.writeable


def _classes_of(columns, m):
    """The class of every index on m qubits, by doubling."""
    classes = np.zeros(1 << m, np.int64)
    for q in range(m):
        np.bitwise_xor(classes[:1 << q], columns[q],
                       out=classes[1 << q:2 << q])
    return classes


def test_gather_slices_a_run_of_labels(monkeypatch):
    # 128-index blocks: a dense block is a view of its table.  Over the
    # identity's low columns, a high column with low bits of its own
    # (3, 261) moves the block off a run, and its labels are taken.
    monkeypatch.setattr(qic.state, "_BLOCK", 128)
    psi = random_state(np.random.default_rng(5), 10)
    out = np.empty(128, np.complex128)
    for b in range(8):
        got = _gather(psi._values, psi._labels, b, out)
        assert got.base is psi._values
        assert np.array_equal(got, psi._values[128 * b:128 * (b + 1)])
    labels = Classes(_identity(7).columns + (128, 3, 261))
    classes = _classes_of(labels.columns, 10)
    table = np.random.default_rng(6).normal(size=512)
    runs = 0
    for b in range(8):
        got = _gather(table, labels, b, np.empty(128))
        assert np.array_equal(reference.bits(got),
                              reference.bits(table[classes[128 * b:][:128]]))
        run = classes[128 * b] % 128 == 0
        assert (got.base is table) == run
        runs += run
    assert runs == 2
    # A table longer than a block is read through the block's labels, XOR
    # the constant, never permuted whole.
    out = np.empty(128)
    tracemalloc.start()
    try:
        _gather(table, labels, 2, out)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < table.nbytes, peak


@pytest.mark.parametrize("block", [128, None])
def test_dense_flips_longer_than_a_block_match_the_reference(block,
                                                             monkeypatch):
    # A low qubit's pieces are whole rows, a high one's a column range of
    # one row; the identity table spans 8 blocks at m = 10 with 128-index
    # blocks, 4 at m = 18 with the default 2^16.
    if block:
        monkeypatch.setattr(qic.state, "_BLOCK", block)
    m = 10 if block else 18
    rng = np.random.default_rng(m)
    amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
    amps.view(np.float64)[rng.random(2 << m) < 0.1] = -0.0
    psi = StateVector(Register(m), amps)
    qubits = [0, m - 1, 5, 1, m - 2, 6, 0, m - 1]
    got = apply_partial_bit_flip(psi, qubits, 0.6)
    assert got._labels == _identity(m)
    expected = psi.amplitudes
    for qubit in qubits:
        expected = reference.flip(expected, qubit, 0.6)
    assert np.array_equal(reference.bits(got.amplitudes),
                          reference.bits(expected))
    assert np.array_equal(reference.bits(psi.amplitudes), reference.bits(amps))


@pytest.mark.parametrize("block", [128, None])
def test_wide_class_tables_match_their_dense_copy_bitwise(block, monkeypatch):
    # Tables longer than a block (2^8 classes over 128-index blocks, 2^17
    # over the default 2^16), on random columns with lower bits set, as
    # grouped parity gives, and on the identity's low columns followed by
    # random ones.  Flips, norms, probabilities, samples and overlaps hold
    # the dense copy's bits.
    if block:
        monkeypatch.setattr(qic.state, "_BLOCK", block)
    k, m = (8, 10) if block else (17, 18)
    low = (qic.state._BLOCK).bit_length() - 1
    rng = np.random.default_rng(k)
    draws = rng.integers(1, 1 << k, m).tolist()
    for columns in (tuple(draws),
                    _identity(low).columns + tuple(draws[low:])):
        values = rng.normal(size=1 << k) + 1j * rng.normal(size=1 << k)
        psi = StateVector._table(Register(m), Classes(columns), values)
        expected = values[_classes_of(columns, m)]
        assert np.array_equal(reference.bits(psi.amplitudes),
                              reference.bits(expected))
        qubits = [*rng.integers(0, m, 5).tolist(), m - 1, 0]
        flipped = apply_partial_bit_flip(psi, qubits, 0.9)
        assert flipped._labels == psi._labels
        for qubit in qubits:
            expected = reference.flip(expected, qubit, 0.9)
        assert np.array_equal(reference.bits(flipped.amplitudes),
                              reference.bits(expected))
        other = random_state(rng, m)
        for x in (psi, flipped):
            copy = StateVector(x.register, x.amplitudes)
            assert norm_squared(x).hex() == norm_squared(copy).hex()
            for index in rng.integers(0, 1 << m, 4):
                assert probability(x, index) == probability(copy, index)
            for u in rng.random(3):
                assert sample(x, _FixedDraw(u)) == sample(copy, _FixedDraw(u))
            for y in (other, psi, flipped):
                y_copy = StateVector(y.register, y.amplitudes)
                assert fidelity(x, y).hex() == fidelity(copy, y_copy).hex()


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
    def test_real_input_stores_complex128(self, amps):
        stored = StateVector(Register(1), amps).amplitudes
        assert stored.dtype == np.complex128
        assert np.array_equal(stored.real, np.asarray(amps, dtype=float))
        assert np.array_equal(reference.bits(stored.imag), [0, 0])  # +0.0

    @pytest.mark.parametrize("dtype", [np.int64, np.float64])
    def test_real_array_is_copied_to_complex128(self, dtype):
        amps = np.array([-1, 0], dtype=dtype)
        psi = StateVector(Register(1), amps)
        assert psi.amplitudes.dtype == np.complex128
        assert np.array_equal(psi.amplitudes.real, amps)
        assert np.array_equal(reference.bits(psi.amplitudes.imag), [0, 0])
        assert not psi.amplitudes.flags.writeable
        assert amps.flags.writeable
        assert not np.shares_memory(psi.amplitudes, amps)

    @pytest.mark.parametrize("amps", [[1 + 0j, 0], np.zeros(2, np.complex64)])
    def test_complex_input_stores_complex128(self, amps):
        psi = StateVector(Register(1), amps)
        assert psi.amplitudes.dtype == np.complex128

    def test_prepared_states_are_real(self):
        uniform = uniform_superposition(Register(3))
        assert uniform._values.dtype == np.float64
        for psi in (uniform, basis_state(Register(3), 5)):
            assert psi.amplitudes.dtype == np.complex128
            assert not np.any(psi.amplitudes.imag)

    def test_partial_flip_promotes_to_complex(self):
        out = apply_partial_bit_flip(uniform_superposition(Register(3)), 1, 0.4)
        assert out.amplitudes.dtype == np.complex128

    def test_real_transforms_stay_real(self):
        psi = uniform_superposition(Register(4))
        mask = PhaseMask.from_indices(psi.register, [1, 9])
        out = apply_phase_mask(psi, mask)
        assert out.amplitudes.dtype == np.complex128
        assert not np.any(out.amplitudes.imag)


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
            expected, cumulative = reference.sample(psi.amplitudes, u)
            assert sample(psi, _FixedDraw(u)) == expected, seed
            # Every block end, and entries inside blocks.
            ends = np.arange(127, 1 << m, 128)
            inside = rng.integers(0, 1 << m, 8)
            for u in _draws_on_running_sums(cumulative,
                                            np.concatenate([ends, inside])):
                landed += 1
                assert (sample(psi, _FixedDraw(u))
                        == reference.sample(psi.amplitudes, u)[0])
        assert landed > 1000

    @pytest.mark.parametrize("m", [8, 10, 12])
    def test_draws_on_exact_block_ends_start_the_next_block(self, m):
        # Every |amp|^2 is 2^-m, so every running sum and the total are exact.
        psi = uniform_superposition(Register(m))
        for end in range(128, 1 << m, 128):
            u = end / (1 << m)
            assert sample(psi, _FixedDraw(u)) == end
            assert reference.sample(psi.amplitudes, u)[0] == end

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
            psi = StateVector._table(Register(m),
                                     PhaseMask(Register(m), flags), values)
            dense = StateVector(psi.register, psi.amplitudes)
            assert psi.amplitudes.dtype == np.complex128
            assert np.array_equal(reference.bits(psi.amplitudes.real),
                                  reference.bits(values)[flags.astype(np.intp)])
            assert not reference.bits(psi.amplitudes.imag).any()
            assert not psi.amplitudes.flags.writeable
            assert norm_squared(psi) == norm_squared(dense)
            for index in rng.integers(0, 1 << m, 5):
                assert probability(psi, index) == probability(dense, index)
            total = reference.sample(dense.amplitudes, 0.5)[1][-1]
            if not total >= qic.state.DEFAULT_COLLAPSE_TOL:
                with pytest.raises(NormCollapse):
                    sample(psi, _FixedDraw(0.5))
                continue
            for draw in range(5):
                u = float(rng.random())
                assert (sample(psi, _FixedDraw(u))
                        == sample(dense, _FixedDraw(u))
                        == reference.sample(dense.amplitudes, u)[0]), (seed, u)

    def test_one_fill_throughout_materialises_as_a_view(self):
        psi = uniform_superposition(Register(12))
        amps = psi.amplitudes
        assert amps.strides == (0,) and not amps.flags.writeable
        assert np.array_equal(amps, np.full(1 << 12, 2.0**-6))
        # Each read is a fresh zero-stride view: nothing is kept.
        again = psi.amplitudes
        assert again.strides == (0,) and np.array_equal(again, amps)

    @pytest.mark.parametrize("ties", [False, True])
    def test_leakage_zero_draws_match_the_full_scan(self, ties, monkeypatch):
        # At leakage 0 a mixed block the draw does not land in ends in closed
        # form over its valid count.  With ``ties`` every closed form reports
        # a tie, so such a block takes its count + 1 cumsum instead.
        if ties:
            monkeypatch.setattr(qic.state, "_constant_run_end",
                                lambda *args: None)
        draws = last = 0
        for seed in range(120):
            rng = np.random.default_rng(seed)
            m = int(rng.integers(8, 13))
            # Flag-free, all-valid and mixed blocks, and blocks of one
            # valid flag, the last block among them on every other seed.
            flags = _block_flags(rng, m).copy()
            starts = list(rng.choice(range(0, 1 << m, 128), 2))
            for start in starts + [(1 << m) - 128] * (seed % 2):
                flags[start:start + 128] = False
                flags[start + int(rng.integers(128))] = True
            if not flags.any():
                continue
            mask = PhaseMask(Register(m), flags)
            psi = _interfere(uniform_superposition(Register(m)), mask, 0.0,
                             int(rng.integers(1, 4)),
                             qic.state.DEFAULT_COLLAPSE_TOL)
            assert psi._labels is mask and not psi._values[0]
            cumulative = reference.sample(psi.amplitudes, 0.5)[1]
            valid = np.flatnonzero(flags)
            at = np.concatenate([valid[-3:], rng.choice(valid, 5)])
            for u in [float(rng.random()) for _ in range(4)] + list(
                    _draws_on_running_sums(cumulative, at)):
                index = sample(psi, _FixedDraw(u))
                assert index == reference.sample(psi.amplitudes, u)[0], (
                    seed, u)
                draws += 1
                last += index >= (1 << m) - 128
        assert draws > 1000 and last > 100

    def test_leakage_zero_draws_select_only_the_landing_block(
            self, monkeypatch):
        # Eight mixed blocks: at leakage 0 a draw bit-selects the one it
        # lands in; with leakage every block is selected before the draw.
        reg = Register(10)
        mask = PhaseMask(reg, np.arange(1 << 10) % 3 == 0)
        selected = []

        def counted(flags, pair, out):
            selected.append(len(flags))
            return _select(flags, pair, out)
        monkeypatch.setattr(qic.state, "_select", counted)
        for leakage in (0.0, 0.05):
            psi = _interfere(uniform_superposition(reg), mask, leakage, 1,
                             qic.state.DEFAULT_COLLAPSE_TOL)
            selected.clear()
            for u in (0.0, 0.3, 0.99):
                sample(psi, _FixedDraw(u))
            assert set(selected) == {128}
            if leakage:
                assert len(selected) > 3 * 8
            else:
                assert len(selected) == 3


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


def test_two_level_amplitudes_hold_the_values_bits_in_real():
    flags = np.arange(8) % 2 == 1
    for a in _SPECIAL_WORDS:
        for b in _SPECIAL_WORDS:
            values = np.array([a, b], dtype=np.uint64).view(np.float64)
            for f, expected in ((PhaseMask(Register(3), flags), [a, b] * 4),
                                (None, [a] * 8)):
                amps = StateVector._table(Register(3), f,
                                          values).amplitudes
                assert amps.dtype == np.complex128
                assert reference.bits(amps.real).tolist() == expected
                assert not reference.bits(amps.imag).any()


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
    psi = StateVector._table(reg, None, np.full(2, fill))
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
