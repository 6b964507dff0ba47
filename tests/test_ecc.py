import math
import tracemalloc

import numpy as np
import pytest

import qic.ecc
import qic.state

from qic.ecc import (
    ChecksumScheme,
    NoiseModel,
    checksum_predicate,
    checksum_valid_mass,
    correct,
    ecc_experiment,
    encode,
    inject_noise,
    parse_scheme,
    search_predicate,
)
from qic.errors import NormCollapse, ParseError, RegisterMismatch, SchemeInvalid
from qic.interference import InterferenceConfig, interfere_repeated
from qic.predicate import Predicate, compile_mask
from qic.state import (
    Register,
    StateVector,
    _flip,
    _interfere,
    apply_partial_bit_flip,
    basis_state,
    fidelity,
    norm_squared,
    uniform_superposition,
)

from conftest import dense_partial_flip


def valid_set(scheme):
    pred = checksum_predicate(scheme)
    return set(compile_mask(pred, scheme.register()).valid_indices())


class TestChecksumScheme:
    def test_single_group_pair(self):
        scheme = ChecksumScheme(2, ((0, 1),))
        assert valid_set(scheme) == {0, 3, 5, 6}

    def test_one_data_bit(self):
        scheme = ChecksumScheme(1, ((0,),))
        assert valid_set(scheme) == {0, 3}

    def test_two_groups(self):
        scheme = ChecksumScheme(2, ((0,), (1,)))
        assert valid_set(scheme) == {0, 5, 10, 15}

    def test_global_parity_helper(self):
        scheme = ChecksumScheme.global_parity(3)
        assert scheme.groups == ((0, 1, 2),)
        assert scheme.register() == Register(4)

    def test_checksum_of(self):
        scheme = ChecksumScheme(3, ((0, 1), (2,)))
        assert scheme.checksum_of(0b011) == 0b00
        assert scheme.checksum_of(0b001) == 0b01
        assert scheme.checksum_of(0b100) == 0b10

    @pytest.mark.parametrize("data_bits,groups", [
        (2, ()),                  # no groups
        (2, ((),)),               # empty group
        (3, ((0, 1),)),           # bit 2 uncovered
        (2, ((0, 2),)),           # member out of range
        (0, ((0,),)),             # no data bits
    ])
    def test_invalid_schemes(self, data_bits, groups):
        with pytest.raises(SchemeInvalid):
            ChecksumScheme(data_bits, groups)


class TestParseScheme:
    def test_global(self):
        assert parse_scheme("global", 4) == ChecksumScheme.global_parity(4)

    def test_groups(self):
        assert parse_scheme("groups:0,1;2,3", 4) == ChecksumScheme(
            4, ((0, 1), (2, 3)))

    def test_malformed(self):
        with pytest.raises(ParseError):
            parse_scheme("parity", 3)
        with pytest.raises(ParseError):
            parse_scheme("groups:0,x", 3)

    def test_semantic_errors_surface(self):
        with pytest.raises(SchemeInvalid):
            parse_scheme("groups:0,1", 3)  # bit 2 uncovered


class TestEncode:
    def test_bell_like_pair(self):
        reg = Register(2)
        r = 1 / math.sqrt(2)
        psi = StateVector(reg, [r, 0, 0, r])
        out = encode(psi, ChecksumScheme(2, ((0, 1),)))
        expected = np.zeros(8, dtype=complex)
        expected[0b000] = r
        expected[0b011] = r
        assert np.allclose(out.amplitudes, expected, atol=1e-15)

    def test_single_bit(self):
        out = encode(basis_state(Register(1), 1), ChecksumScheme(1, ((0,),)))
        assert np.allclose(out.amplitudes, [0, 0, 0, 1], atol=1e-15)

    def test_uniform_spreads_over_valid_indices(self):
        scheme = ChecksumScheme(2, ((0, 1),))
        out = encode(uniform_superposition(Register(2)), scheme)
        for i in range(8):
            expected = 0.5 if i in {0, 3, 5, 6} else 0.0
            assert abs(abs(out.amplitudes[i]) - expected) < 1e-15
        assert abs(norm_squared(out) - 1.0) < 1e-12

    def test_every_component_is_checksum_valid(self, rng):
        scheme = ChecksumScheme(4, ((0, 2), (1, 3), (0, 1)))
        from conftest import random_state

        out = encode(random_state(rng, 4), scheme)
        flags = compile_mask(checksum_predicate(scheme),
                             scheme.register()).valid
        assert np.all(out.amplitudes[~flags] == 0)

    def test_register_mismatch(self):
        with pytest.raises(RegisterMismatch):
            encode(uniform_superposition(Register(3)),
                   ChecksumScheme(2, ((0, 1),)))

    def test_keeps_input_dtype(self):
        scheme = ChecksumScheme(2, ((0, 1),))
        real = uniform_superposition(Register(2))
        cplx = StateVector(real.register, real.amplitudes.astype(complex))
        assert encode(real, scheme).amplitudes.dtype == np.float64
        assert encode(cplx, scheme).amplitudes.dtype == np.complex128
        assert np.array_equal(encode(real, scheme).amplitudes,
                              encode(cplx, scheme).amplitudes)


class TestInjectNoise:
    def test_no_events_is_identity(self):
        scheme = ChecksumScheme.global_parity(3)
        psi = encode(uniform_superposition(Register(3)), scheme)
        out, log = inject_noise(psi, NoiseModel(events=0),
                                np.random.default_rng(0))
        assert log == ()
        assert np.all(out.amplitudes == psi.amplitudes)

    @pytest.mark.parametrize("theta", [0.2, 0.5, 1.0])
    def test_single_event_mass_is_cos_squared(self, theta):
        # any covered single flip lands entirely outside the valid subspace
        scheme = ChecksumScheme.global_parity(3)
        psi = encode(uniform_superposition(Register(3)), scheme)
        for qubit in range(4):
            noisy = apply_partial_bit_flip(psi, qubit, theta)
            mass = checksum_valid_mass(noisy, scheme)
            assert abs(mass - math.cos(theta) ** 2) < 1e-10

    def test_full_flip_kills_valid_mass(self):
        scheme = ChecksumScheme.global_parity(2)
        psi = encode(uniform_superposition(Register(2)), scheme)
        noisy, _ = inject_noise(psi, NoiseModel(events=1, theta=math.pi / 2),
                                np.random.default_rng(1))
        assert checksum_valid_mass(noisy, scheme) < 1e-20

    def test_norm_preserved_and_log_recorded(self, rng):
        scheme = ChecksumScheme(3, ((0, 1), (1, 2)))
        psi = encode(uniform_superposition(Register(3)), scheme)
        noisy, log = inject_noise(psi, NoiseModel(events=5, theta=0.7), rng)
        assert len(log) == 5
        assert all(0 <= e.qubit < 5 and e.theta == 0.7 for e in log)
        assert abs(norm_squared(noisy) - 1.0) < 1e-10

    def test_model_validation(self):
        with pytest.raises(ValueError):
            NoiseModel(events=-1)
        with pytest.raises(ValueError):
            NoiseModel(events=1, theta=0.0)
        with pytest.raises(ValueError):
            NoiseModel(events=1, theta=2.0)


class TestCorrect:
    def test_clean_state_unchanged(self):
        scheme = ChecksumScheme.global_parity(3)
        psi = encode(uniform_superposition(Register(3)), scheme)
        out = correct(psi, scheme)
        assert np.max(np.abs(out.amplitudes - psi.amplitudes)) < 1e-12

    @pytest.mark.parametrize("theta", [0.2, 0.5, 1.0, 1.4])
    def test_single_event_fully_restored(self, theta):
        scheme = ChecksumScheme.global_parity(3)
        psi = encode(uniform_superposition(Register(3)), scheme)
        for qubit in range(4):
            noisy = apply_partial_bit_flip(psi, qubit, theta)
            restored = correct(noisy, scheme)
            assert abs(fidelity(restored, psi) - 1.0) < 1e-9
            assert abs(checksum_valid_mass(restored, scheme) - 1.0) < 1e-9

    def test_two_distinct_flips_on_basis_data(self):
        # the double-flip error passes the parity check; for a basis data
        # state it survives orthogonally to the ideal, costing fidelity
        theta = math.pi / 6
        c, s = math.cos(theta), math.sin(theta)
        law = c**4 / (c**4 + s**4)
        scheme = ChecksumScheme.global_parity(3)
        psi = encode(basis_state(Register(3), 0b101), scheme)
        for q1, q2 in [(0, 1), (0, 3), (2, 3), (1, 2)]:
            noisy = apply_partial_bit_flip(
                apply_partial_bit_flip(psi, q1, theta), q2, theta)
            restored = correct(noisy, scheme)
            assert abs(fidelity(restored, psi) - law) < 1e-6
            assert abs(law - 0.9) < 1e-12

    def test_two_distinct_flips_on_uniform_data(self):
        # the uniform encoded state is invariant under any double flip, so
        # the surviving error term coincides with the ideal state
        theta = math.pi / 6
        scheme = ChecksumScheme.global_parity(3)
        psi = encode(uniform_superposition(Register(3)), scheme)
        for q1, q2 in [(0, 1), (0, 3), (2, 3)]:
            noisy = apply_partial_bit_flip(
                apply_partial_bit_flip(psi, q1, theta), q2, theta)
            restored = correct(noisy, scheme)
            assert abs(fidelity(restored, psi) - 1.0) < 1e-9

    def test_repeated_flip_on_same_qubit_restored(self):
        theta = math.pi / 6
        scheme = ChecksumScheme.global_parity(3)
        for data in (uniform_superposition(Register(3)),
                     basis_state(Register(3), 0b010)):
            psi = encode(data, scheme)
            noisy = apply_partial_bit_flip(
                apply_partial_bit_flip(psi, 2, theta), 2, theta)
            restored = correct(noisy, scheme)
            assert abs(fidelity(restored, psi) - 1.0) < 1e-9

    def test_full_flip_collapses(self):
        scheme = ChecksumScheme.global_parity(2)
        psi = encode(uniform_superposition(Register(2)), scheme)
        noisy = apply_partial_bit_flip(psi, 0, math.pi / 2)
        with pytest.raises(NormCollapse):
            correct(noisy, scheme)


class TestEccExperiment:
    def test_no_noise(self):
        report = ecc_experiment(ChecksumScheme.global_parity(3),
                                NoiseModel(events=0),
                                InterferenceConfig(), seed=1)
        assert report.status == "ok"
        assert abs(report.valid_mass_before - 1.0) < 1e-12
        assert abs(report.valid_mass_after - 1.0) < 1e-12
        assert abs(report.fidelity_before - 1.0) < 1e-12
        assert abs(report.fidelity_after - 1.0) < 1e-12

    def test_single_event_restoration(self):
        report = ecc_experiment(ChecksumScheme.global_parity(3),
                                NoiseModel(events=1, theta=0.5),
                                InterferenceConfig(), seed=7)
        assert abs(report.valid_mass_before - math.cos(0.5) ** 2) < 1e-10
        assert abs(report.valid_mass_after - 1.0) < 1e-9
        assert abs(report.fidelity_after - 1.0) < 1e-9

    def test_two_events_case_split_on_basis_data(self):
        theta = math.pi / 6
        data = basis_state(Register(3), 0)
        seen_distinct = seen_same = False
        for seed in range(40):
            report = ecc_experiment(ChecksumScheme.global_parity(3),
                                    NoiseModel(events=2, theta=theta),
                                    InterferenceConfig(), seed,
                                    data_state=data)
            q1, q2 = report.events[0].qubit, report.events[1].qubit
            if q1 != q2:
                seen_distinct = True
                assert abs(report.fidelity_after - 0.9) < 1e-6
            else:
                seen_same = True
                assert abs(report.fidelity_after - 1.0) < 1e-9
        assert seen_distinct and seen_same

    def test_two_events_on_uniform_data_always_restore(self):
        theta = math.pi / 6
        for seed in range(20):
            report = ecc_experiment(ChecksumScheme.global_parity(3),
                                    NoiseModel(events=2, theta=theta),
                                    InterferenceConfig(), seed)
            assert abs(report.fidelity_after - 1.0) < 1e-9

    def test_full_flip_reports_collapse(self):
        report = ecc_experiment(ChecksumScheme.global_parity(3),
                                NoiseModel(events=1, theta=math.pi / 2),
                                InterferenceConfig(), seed=3)
        assert report.status == "norm_collapse"
        assert report.valid_mass_after is None
        assert report.fidelity_after is None

    def test_oversized_register_fails_before_any_state_exists(self,
                                                               monkeypatch):
        import qic.ecc
        import qic.state

        def no_state(*args):
            raise AssertionError("amplitudes allocated before the cap check")

        monkeypatch.setattr(qic.state, "MAX_QUBITS", 3)
        monkeypatch.setattr(qic.ecc, "uniform_superposition", no_state)
        monkeypatch.setattr(qic.ecc, "encode", no_state)
        with pytest.raises(ValueError, match="4 qubits exceeds the 3-qubit"):
            ecc_experiment(ChecksumScheme.global_parity(3),
                           NoiseModel(events=1), InterferenceConfig(), seed=1)

    @pytest.mark.parametrize("seed", [-1, 2**64])
    def test_seed_outside_64_bits_fails_before_any_state_exists(self, seed,
                                                                 monkeypatch):
        import qic.ecc

        def no_state(*args):
            raise AssertionError("amplitudes allocated before the seed check")

        monkeypatch.setattr(qic.ecc, "uniform_superposition", no_state)
        monkeypatch.setattr(qic.ecc, "encode", no_state)
        with pytest.raises(ValueError, match="seed must be a 64-bit integer"):
            ecc_experiment(ChecksumScheme.global_parity(3),
                           NoiseModel(events=1), InterferenceConfig(), seed)

    def test_event_log_echoed(self):
        report = ecc_experiment(ChecksumScheme.global_parity(2),
                                NoiseModel(events=3, theta=0.4),
                                InterferenceConfig(), seed=11)
        assert len(report.events) == 3
        assert report.config["events"] == 3
        assert report.config["theta"] == 0.4


class TestSearchPredicate:
    def test_conjunction_over_encoded_register(self):
        scheme = ChecksumScheme.global_parity(3)
        data_pred = Predicate(frozenset({1, 3}), Register(3))
        combined = search_predicate(data_pred, scheme)
        # 001 carries parity 1, 011 carries parity 0
        assert set(compile_mask(combined, scheme.register())
                   .valid_indices()) == {0b1001, 0b0011}

    def test_end_to_end_enumeration_on_encoded_register(self):
        from qic.enumeration import RunConfig, Termination, enumerate_solutions

        scheme = ChecksumScheme.global_parity(3)
        data_pred = Predicate(frozenset({1, 3}), Register(3))
        combined = search_predicate(data_pred, scheme)
        report = enumerate_solutions(combined, scheme.register(),
                                     RunConfig(seed=21))
        assert set(report.found) == {"1001", "0011"}
        assert report.termination is Termination.EXHAUSTED

    def test_register_mismatch(self):
        scheme = ChecksumScheme.global_parity(3)
        with pytest.raises(RegisterMismatch):
            search_predicate(Predicate(frozenset({0}), Register(2)), scheme)

    def test_exclusions_lift_to_encoded_indices(self):
        scheme = ChecksumScheme.global_parity(2)
        data_pred = Predicate(frozenset({0, 1}), Register(2),
                              exclusions=frozenset({1}))
        combined = search_predicate(data_pred, scheme)
        assert compile_mask(combined, scheme.register()).valid_indices() == [0]


def _random_full_coverage_scheme(rng, data_bits):
    groups = []
    remaining = set(range(data_bits))
    while remaining or not groups:
        size = int(rng.integers(1, data_bits + 1))
        group = set(int(b) for b in rng.choice(data_bits, size=size,
                                               replace=False))
        remaining -= group
        groups.append(tuple(sorted(group)))
        if len(groups) >= 4 and remaining:
            groups.append(tuple(sorted(remaining)))
            remaining = set()
    return ChecksumScheme(data_bits, tuple(groups))


def test_any_single_event_detected_on_random_schemes():
    rng = np.random.default_rng(555)
    for _ in range(30):
        data_bits = int(rng.integers(1, 6))
        scheme = _random_full_coverage_scheme(rng, data_bits)
        if scheme.register().total_qubits > 10:
            continue
        psi = encode(uniform_superposition(Register(data_bits)), scheme)
        theta = float(rng.uniform(0.05, 1.5))
        for qubit in range(scheme.register().total_qubits):
            noisy = apply_partial_bit_flip(psi, qubit, theta)
            mass = checksum_valid_mass(noisy, scheme)
            assert abs(mass - math.cos(theta) ** 2) < 1e-10


def test_correction_never_decreases_fidelity_or_mass():
    # 500 randomized trials, perfect cancellation
    rng = np.random.default_rng(31337)
    collapsed = 0
    for _ in range(500):
        data_bits = int(rng.integers(1, 6))
        scheme = _random_full_coverage_scheme(rng, data_bits)
        if scheme.register().total_qubits > 10:
            continue
        model = NoiseModel(events=int(rng.integers(0, 5)),
                           theta=float(rng.uniform(0.1, 1.3)))
        report = ecc_experiment(scheme, model, InterferenceConfig(),
                                seed=int(rng.integers(2**32)))
        if report.status != "ok":
            collapsed += 1
            continue
        assert report.fidelity_after >= report.fidelity_before - 1e-12
        assert report.valid_mass_after >= report.valid_mass_before - 1e-12
        assert report.valid_mass_after <= 1 + 1e-9
        assert report.fidelity_after <= 1 + 1e-9
    assert collapsed < 50


# Dense references for the streamed ecc path: the whole-array expressions
# that the blocked kernels replaced.


def _dense_noise(psi, model, seed):
    rng = np.random.default_rng(seed)
    amps, qubits = psi.amplitudes, []
    for _ in range(model.events):
        qubits.append(int(rng.integers(0, psi.register.total_qubits)))
        amps = dense_partial_flip(amps, qubits[-1], model.theta)
    return amps, qubits


def _dense_mass(amps, scheme):
    valid = compile_mask(checksum_predicate(scheme), scheme.register()).valid
    return float(np.sum((np.abs(amps) ** 2)[valid]))


def _per_index_encode(amps, scheme):
    n = scheme.data_bits
    out = np.zeros(scheme.register().dimension, dtype=amps.dtype)
    for x in range(1 << n):
        out[(scheme.checksum_of(x) << n) | x] = amps[x]
    return out


def _bits(amps):
    return np.asarray(amps).view(np.uint64)


def _random_data(rng, n, complex_state):
    amps = rng.normal(size=1 << n)
    if complex_state:
        amps = amps + 1j * rng.normal(size=1 << n)
    amps[rng.random(1 << n) < 0.2] = -0.0
    return StateVector(Register(n), amps)


@pytest.fixture
def small_blocks(monkeypatch):
    # 128-amplitude blocks, so registers from m = 8 up span several blocks.
    monkeypatch.setattr(qic.state, "_BLOCK", 128)


class TestStreamedEcc:
    def test_checksum_of_is_the_parity_of_each_group(self):
        rng = np.random.default_rng(2)
        for _ in range(40):
            scheme = _random_full_coverage_scheme(rng, int(rng.integers(1, 9)))
            for x in range(1 << scheme.data_bits):
                expected = sum(
                    (sum(x >> bit & 1 for bit in group) & 1) << g
                    for g, group in enumerate(scheme.groups))
                assert scheme.checksum_of(x) == expected

    def test_columns_do_not_enter_equality(self):
        assert ChecksumScheme(2, ((1, 0),)) == ChecksumScheme(2, ((0, 1),))
        assert ChecksumScheme(3, ((0, 1), (1, 2))).columns == (1, 3, 2)

    def test_encode_matches_per_index_checksums(self, small_blocks):
        rng = np.random.default_rng(3)
        overlapping = 0
        for trial in range(60):
            n = int(rng.integers(1, 11))
            scheme = _random_full_coverage_scheme(rng, n)
            if scheme.register().total_qubits > 16:
                continue
            members = [b for group in scheme.groups for b in group]
            overlapping += len(members) > len(set(members))
            psi = _random_data(rng, n, bool(trial % 2))
            out = encode(psi, scheme).amplitudes
            expected = _per_index_encode(psi.amplitudes, scheme)
            assert out.dtype == expected.dtype
            assert np.array_equal(_bits(out), _bits(expected))
        assert overlapping > 10

    def test_encode_with_many_checksum_bits(self):
        # Nine groups need a uint16 checksum.
        scheme = ChecksumScheme(3, ((0,), (1,), (2,), (0, 1), (1, 2),
                                    (0, 2), (0, 1, 2), (0,), (1,)))
        psi = _random_data(np.random.default_rng(4), 3, True)
        assert np.array_equal(
            _bits(encode(psi, scheme).amplitudes),
            _bits(_per_index_encode(psi.amplitudes, scheme)))

    def test_inject_noise_matches_chained_dense_flips(self, small_blocks):
        rng = np.random.default_rng(5)
        for trial in range(40):
            n = int(rng.integers(1, 10))
            scheme = _random_full_coverage_scheme(rng, n)
            if scheme.register().total_qubits > 12:
                continue
            psi = encode(_random_data(rng, n, bool(trial % 3 == 0)), scheme)
            before = psi.amplitudes.copy()
            model = NoiseModel(events=int(rng.integers(1, 7)),
                               theta=float(rng.uniform(0.01, math.pi / 2)))
            seed = int(rng.integers(2**32))
            noisy, log = inject_noise(psi, model, np.random.default_rng(seed))
            expected, qubits = _dense_noise(psi, model, seed)
            assert [e.qubit for e in log] == qubits
            assert np.array_equal(_bits(noisy.amplitudes), _bits(expected))
            assert not noisy.amplitudes.flags.writeable
            assert np.array_equal(_bits(psi.amplitudes), _bits(before))

    def test_checksum_valid_mass_matches_dense_sum(self, small_blocks):
        rng = np.random.default_rng(6)
        for trial in range(40):
            n = int(rng.integers(1, 10))
            scheme = _random_full_coverage_scheme(rng, n)
            m = scheme.register().total_qubits
            if m > 14:
                continue
            psi = _random_data(rng, m, bool(trial % 2))
            psi = StateVector(scheme.register(), psi.amplitudes)
            assert (checksum_valid_mass(psi, scheme)
                    == _dense_mass(psi.amplitudes, scheme))

    def test_correct_leaves_its_input_unchanged(self, small_blocks):
        scheme = ChecksumScheme(8, ((0, 1, 2, 3), (4, 5, 6, 7)))
        psi = encode(_random_data(np.random.default_rng(8), 8, True), scheme)
        noisy, _ = inject_noise(psi, NoiseModel(events=3, theta=0.4),
                                np.random.default_rng(9))
        before = noisy.amplitudes.copy()
        out = correct(noisy, scheme, InterferenceConfig(0.05, 2))
        assert not np.shares_memory(out.amplitudes, noisy.amplitudes)
        assert np.array_equal(_bits(noisy.amplitudes), _bits(before))

    @pytest.mark.parametrize("theta", [1e-3, 0.5, 1.0, math.pi / 2])
    def test_flip_of_real_source_matches_its_complex_copy(self, theta,
                                                          small_blocks):
        # ecc_experiment makes the ideal state complex before the first flip.
        rng = np.random.default_rng(10)
        m = 9
        src = rng.normal(size=1 << m)
        src[rng.random(1 << m) < 0.2] = 0.0
        src[rng.random(1 << m) < 0.2] = -0.0
        as_complex = src.astype(np.complex128)
        for qubit in range(m):
            real_out = np.empty(1 << m, dtype=np.complex128)
            _flip(src, real_out, qubit, theta)
            complex_out = as_complex.copy()
            _flip(complex_out, complex_out, qubit, theta)
            assert np.array_equal(_bits(real_out), _bits(complex_out)), qubit


def test_ecc_experiment_without_events_keeps_report_and_ideal_state(
        monkeypatch):
    scheme = ChecksumScheme(10, (tuple(range(5)), tuple(range(5, 10))))
    cfg = InterferenceConfig(0.05, 2)
    calls = []

    def spy(psi, valid, leakage, passes, tol, out=None):
        before = psi.amplitudes.copy()
        result = _interfere(psi, valid, leakage, passes, tol, out=out)
        calls.append((out, np.array_equal(_bits(psi.amplitudes),
                                          _bits(before))))
        return result

    monkeypatch.setattr(qic.ecc, "_interfere", spy)
    report = ecc_experiment(scheme, NoiseModel(events=0), cfg, seed=3)
    assert calls == [(None, True)]

    # The float64 ideal state, corrected as a fresh state, as before the
    # ideal state became complex ahead of the noise.
    ideal = encode(uniform_superposition(Register(10)), scheme)
    assert ideal.amplitudes.dtype == np.float64
    as_complex = StateVector(ideal.register,
                             ideal.amplitudes.astype(np.complex128))
    corrected = correct(ideal, scheme, cfg)
    expected = [checksum_valid_mass(ideal, scheme),
                fidelity(ideal, as_complex),
                checksum_valid_mass(corrected, scheme),
                fidelity(corrected, as_complex)]
    got = [report.valid_mass_before, report.fidelity_before,
           report.valid_mass_after, report.fidelity_after]
    assert [x.hex() for x in got] == [x.hex() for x in expected]


def test_ecc_report_matches_dense_reference_at_full_block_size():
    # m = 18 with the real 2^16-amplitude blocks: flips on qubits 16 and 17
    # pair whole blocks.
    scheme = ChecksumScheme(16, (tuple(range(8)), tuple(range(8, 16))))
    model = NoiseModel(events=6, theta=0.5)
    cfg = InterferenceConfig(0.05, 2)
    seed = 4
    report = ecc_experiment(scheme, model, cfg, seed)

    data = uniform_superposition(Register(16))
    ideal = StateVector(scheme.register(),
                        _per_index_encode(data.amplitudes, scheme))
    noisy_amps, qubits = _dense_noise(ideal, model, seed)
    assert max(qubits) >= 16
    noisy = StateVector(scheme.register(), noisy_amps)
    corrected = interfere_repeated(noisy, checksum_predicate(scheme), cfg)
    assert [e.qubit for e in report.events] == qubits
    assert report.valid_mass_before == _dense_mass(noisy_amps, scheme)
    assert report.fidelity_before == fidelity(noisy, ideal)
    assert report.valid_mass_after == _dense_mass(corrected.amplitudes, scheme)
    assert report.fidelity_after == fidelity(corrected, ideal)


def test_ecc_experiment_peak_memory(monkeypatch):
    # Two complex arrays coexist: the ideal state (complex for fidelity)
    # and the noise buffer, which correction overwrites; nothing else is
    # state-sized.
    monkeypatch.setattr(qic.state, "_BLOCK", 1024)
    scheme = ChecksumScheme(12, (tuple(range(6)), tuple(range(6, 12))))
    state_bytes = 16 << scheme.register().total_qubits

    def run():
        ecc_experiment(scheme, NoiseModel(events=6, theta=0.5),
                       InterferenceConfig(0.05, 2), seed=7)

    run()  # leaves the scheme's compiled flags in the cache
    tracemalloc.start()
    try:
        run()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * state_bytes, peak / state_bytes
