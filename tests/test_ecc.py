import math
import tracemalloc
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

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
)
from qic.errors import NormCollapse, ParseError, RegisterMismatch, SchemeInvalid
from qic.interference import InterferenceConfig
from qic.predicate import compile_mask
from qic.reports import render_json
from qic.state import (
    Classes,
    Register,
    StateVector,
    _interfere_classes,
    apply_partial_bit_flip,
    basis_state,
    fidelity,
    norm_squared,
    uniform_superposition,
)

import reference


def valid_set(scheme):
    pred = checksum_predicate(scheme)
    return set(reference.valid_indices(
        compile_mask(pred, scheme.register()).valid))


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

    @pytest.mark.parametrize("member", [1.7, 1.0, "1", np.float64(1.0)])
    def test_non_integer_member_is_refused(self, member):
        with pytest.raises(TypeError):
            ChecksumScheme(3, ((0, member), (2,)))

    def test_numpy_integer_members_become_ints(self):
        scheme = ChecksumScheme(3, ((np.int64(0), np.uint8(1)), (2,)))
        assert scheme.groups == ((0, 1), (2,))
        assert all(type(bit) is int for group in scheme.groups for bit in group)


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

    def test_output_is_complex128(self):
        scheme = ChecksumScheme(2, ((0, 1),))
        two_level = uniform_superposition(Register(2))
        dense = StateVector(two_level.register, two_level.amplitudes)
        outs = [encode(psi, scheme).amplitudes for psi in (two_level, dense)]
        assert outs[0].dtype == outs[1].dtype == np.complex128
        assert np.array_equal(outs[0].view(np.uint64), outs[1].view(np.uint64))


class TestInjectNoise:
    def test_no_events_is_identity(self):
        scheme = ChecksumScheme.global_parity(3)
        psi = encode(uniform_superposition(Register(3)), scheme)
        out, log = inject_noise(psi, NoiseModel(events=0),
                                np.random.default_rng(0))
        assert log == ()
        assert np.all(out.amplitudes == psi.amplitudes)

    def test_no_events_yields_a_fresh_copy(self, small_blocks):
        # Correction overwrites the noise step's output, so even without
        # events it must not be the input's array.
        scheme = ChecksumScheme(7, ((0, 1, 2), (3, 4, 5, 6)))
        psi = encode(_random_data(np.random.default_rng(2), 7, True), scheme)
        out, log = inject_noise(psi, NoiseModel(events=0),
                                np.random.default_rng(0))
        assert log == ()
        assert not np.shares_memory(out.amplitudes, psi.amplitudes)
        assert not out.amplitudes.flags.writeable
        assert np.array_equal(reference.bits(out.amplitudes),
                              reference.bits(psi.amplitudes))

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
            expected = reference.encode(psi.amplitudes, scheme)
            assert out.dtype == expected.dtype
            assert np.array_equal(reference.bits(out),
                                  reference.bits(expected))
            # Uniform data encodes as a class form over the scheme's
            # syndromes, one value per syndrome and no flags, with the
            # dense scatter's amplitudes.
            uniform = uniform_superposition(Register(n))
            ideal = encode(uniform, scheme)
            assert np.array_equal(
                reference.bits(ideal.amplitudes),
                reference.bits(reference.encode(uniform.amplitudes, scheme)))
            # Reading the amplitudes leaves the class form as it was.
            assert ideal._labels == Classes(scheme.qubit_columns())
            assert len(ideal._values) == 1 << scheme.checksum_bits
        assert overlapping > 10

    def test_encode_with_many_checksum_bits(self):
        # Nine groups need a uint16 checksum.
        scheme = ChecksumScheme(3, ((0,), (1,), (2,), (0, 1), (1, 2),
                                    (0, 2), (0, 1, 2), (0,), (1,)))
        psi = _random_data(np.random.default_rng(4), 3, True)
        assert np.array_equal(
            reference.bits(encode(psi, scheme).amplitudes),
            reference.bits(reference.encode(psi.amplitudes, scheme)))

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
            expected, qubits = reference.noise(psi.amplitudes, model, seed)
            assert [e.qubit for e in log] == qubits
            assert np.array_equal(reference.bits(noisy.amplitudes),
                                  reference.bits(expected))
            assert not noisy.amplitudes.flags.writeable
            assert np.array_equal(reference.bits(psi.amplitudes),
                                  reference.bits(before))

    def test_inject_noise_reads_a_class_form_ideal_without_densifying(
            self, small_blocks):
        rng = np.random.default_rng(15)
        for trial in range(30):
            n = int(rng.integers(1, 10))
            scheme = _random_full_coverage_scheme(rng, n)
            if scheme.register().total_qubits > 12:
                continue
            ideal = encode(uniform_superposition(Register(n)), scheme)
            model = NoiseModel(events=int(rng.integers(0, 7)),
                               theta=float(rng.uniform(0.01, math.pi / 2)))
            seed = int(rng.integers(2**32))
            noisy, log = inject_noise(ideal, model, np.random.default_rng(seed))
            assert ideal._labels == Classes(scheme.qubit_columns())
            assert noisy._labels == ideal._labels
            assert len(noisy._values) == len(ideal._values) == (
                1 << scheme.checksum_bits)
            expected, qubits = reference.noise(
                reference.encode(np.full(1 << n, 1 / np.sqrt(1 << n), complex),
                                 scheme), model, seed)
            assert [e.qubit for e in log] == qubits
            assert np.array_equal(reference.bits(noisy.amplitudes),
                                  reference.bits(expected))

    @pytest.mark.parametrize("m,qubits", [
        *(pytest.param(m, None, id=str(m)) for m in range(1, 13)),
        pytest.param(9, [], id="no-events"),
        # Halves of 2^6 and 2^11 amplitudes: each larger than a piece.
        pytest.param(12, [11, 6, 0, 11, 6], id="halves-across-pieces"),
    ])
    def test_fused_flips_match_chained_dense_flips(self, m, qubits,
                                                   small_blocks):
        # Pieces hold 32 amplitudes (a quarter of a 128-amplitude block), so
        # a flip on qubit 5 or higher splits each row's halves over pieces.
        rng = np.random.default_rng(40 + m)
        theta = float(rng.uniform(0.01, math.pi / 2))
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        words = amps.view(np.float64)
        pick = rng.random(words.size)
        words[pick < 0.15] = 0.0
        words[(0.15 <= pick) & (pick < 0.3)] = -0.0
        tiny = (0.3 <= pick) & (pick < 0.45)
        words[tiny] = np.ldexp(rng.uniform(-1, 1, np.count_nonzero(tiny)),
                               -1030)  # subnormal
        if qubits is None:
            qubits = [0, m - 1, 0, *rng.permutation(m).tolist(),
                      *rng.integers(0, m, 6).tolist(), m - 1]
        before = amps.copy()
        expected = amps
        for qubit in qubits:
            expected = reference.flip(expected, qubit, theta)

        columns = [1 << qubit for qubit in qubits]
        out = np.empty_like(amps)
        qic.state._flips(amps, out, columns, theta)
        in_place = amps.copy()
        qic.state._flips(in_place, in_place, columns, theta)
        chained = StateVector(Register(m), amps)
        for qubit in qubits:
            chained = apply_partial_bit_flip(chained, qubit, theta)
        sequence = apply_partial_bit_flip(StateVector(Register(m), amps),
                                          np.array(qubits), theta)
        for got in (out, in_place, chained.amplitudes, sequence.amplitudes):
            assert np.array_equal(reference.bits(got),
                                  reference.bits(expected))
        assert np.array_equal(reference.bits(amps), reference.bits(before))

        model = NoiseModel(events=40, theta=theta)
        noisy, log = inject_noise(StateVector(Register(m), amps), model,
                                  np.random.default_rng(m))
        expected, drawn = reference.noise(amps, model, m)
        assert [e.qubit for e in log] == drawn
        assert np.array_equal(reference.bits(noisy.amplitudes),
                              reference.bits(expected))

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
                    == reference.mass(psi.amplitudes, scheme))

    def test_correct_leaves_its_input_unchanged(self, small_blocks):
        scheme = ChecksumScheme(8, ((0, 1, 2, 3), (4, 5, 6, 7)))
        psi = encode(_random_data(np.random.default_rng(8), 8, True), scheme)
        noisy, _ = inject_noise(psi, NoiseModel(events=3, theta=0.4),
                                np.random.default_rng(9))
        before = noisy.amplitudes.copy()
        out = correct(noisy, scheme, InterferenceConfig(0.05, 2))
        assert not np.shares_memory(out.amplitudes, noisy.amplitudes)
        assert np.array_equal(reference.bits(noisy.amplitudes),
                              reference.bits(before))


def test_ecc_experiment_without_events_keeps_report_and_ideal_state(
        monkeypatch):
    scheme = ChecksumScheme(10, (tuple(range(5)), tuple(range(5, 10))))
    cfg = InterferenceConfig(0.05, 2)
    calls, encoded = [], []

    def encode_spy(psi_data, scheme):
        psi = encode(psi_data, scheme)
        encoded.append((psi, psi._values.copy()))
        return psi

    def spy(psi, valid, leakage, passes, tol):
        calls.append((psi._labels.columns, valid.tolist()))
        return _interfere_classes(psi, valid, leakage, passes, tol)

    monkeypatch.setattr(qic.ecc, "encode", encode_spy)
    monkeypatch.setattr(qic.ecc, "_interfere_classes", spy)
    report = ecc_experiment(scheme, NoiseModel(events=0), cfg, seed=3)
    # On the noise step's class form, against one flag per syndrome; the
    # ideal state stays a class form, is never made dense and keeps its
    # values.
    assert calls == [(scheme.qubit_columns(), [True, False, False, False])]
    [(psi_ideal, before)] = encoded
    assert psi_ideal._labels == Classes(scheme.qubit_columns())
    assert np.array_equal(reference.bits(psi_ideal._values),
                          reference.bits(before))

    # The ideal state, corrected as a fresh state.
    ideal = encode(uniform_superposition(Register(10)), scheme)
    corrected = correct(ideal, scheme, cfg)
    expected = [checksum_valid_mass(ideal, scheme),
                fidelity(ideal, ideal),
                checksum_valid_mass(corrected, scheme),
                fidelity(corrected, ideal)]
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
    ideal = reference.encode(data.amplitudes, scheme)
    noisy, qubits = reference.noise(ideal, model, seed)
    assert max(qubits) >= 16
    valid = compile_mask(checksum_predicate(scheme), scheme.register()).valid
    corrected = reference.interfere(noisy, valid, cfg)
    assert [e.qubit for e in report.events] == qubits
    assert report.valid_mass_before == reference.mass(noisy, scheme)
    assert report.fidelity_before == reference.fidelity(noisy, ideal)
    assert report.valid_mass_after == reference.mass(corrected, scheme)
    assert report.fidelity_after == reference.fidelity(corrected, ideal)


@st.composite
def _schemes(draw):
    """1-5 parity groups over at most 12 qubits in all."""
    n = draw(st.integers(1, 9))
    k = draw(st.integers(1, min(5, 12 - n)))
    columns = draw(st.lists(st.integers(1, (1 << k) - 1), min_size=n,
                            max_size=n))
    return ChecksumScheme(n, tuple(
        tuple(b for b in range(n) if columns[b] >> g & 1 or b == g % n)
        for g in range(k)))


@settings(max_examples=100, deadline=None)
@given(scheme=_schemes(), events=st.integers(0, 8),
       theta=st.one_of(st.just(math.pi / 2),
                       st.floats(0.0, math.pi / 2, exclude_min=True)),
       eps=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       passes=st.integers(1, 3), seed=st.integers(0, 2**64 - 1))
# One full flip leaves no valid mass: at eps 0 correction collapses.
@example(scheme=ChecksumScheme(3, ((0, 1, 2),)), events=1,
         theta=math.pi / 2, eps=0.0, passes=1, seed=0)
# Six distinct qubits of twelve, data and checksum bits alike: the flips
# move the class form's values between classes of every parity group.
@example(scheme=ChecksumScheme(9, ((0, 1, 2), (3, 4, 5), (6, 7, 8))),
         events=8, theta=0.5, eps=0.05, passes=2, seed=1)
def test_ecc_report_matches_the_dense_reference_bytewise(scheme, events, theta,
                                                         eps, passes, seed):
    model = NoiseModel(events, theta)
    cfg = InterferenceConfig(eps, passes)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(qic.state, "_BLOCK", 128)
        got = render_json(asdict(ecc_experiment(scheme, model, cfg, seed)))

    n = scheme.data_bits
    ideal = reference.encode(np.full(1 << n, 1 / np.sqrt(1 << n), complex),
                             scheme)
    noisy, qubits = reference.noise(ideal, model, seed)
    # Uniform data is nonzero everywhere, so the ideal state's support is
    # the checksum-valid set.
    corrected = reference.interfere(noisy, ideal != 0, cfg)
    after = (None, None) if corrected is None else (
        reference.mass(corrected, scheme), reference.fidelity(corrected, ideal))
    expected = {
        "status": "norm_collapse" if corrected is None else "ok",
        "valid_mass_before": reference.mass(noisy, scheme),
        "fidelity_before": reference.fidelity(noisy, ideal),
        "valid_mass_after": after[0],
        "fidelity_after": after[1],
        "events": [{"qubit": qubit, "theta": theta} for qubit in qubits],
        "config": {"data_bits": n, "groups": [list(g) for g in scheme.groups],
                   "events": events, "theta": theta, "epsilon": eps,
                   "passes": passes, "collapse_tol": cfg.collapse_tol,
                   "seed": seed},
    }
    assert got == render_json(expected)


@settings(max_examples=100, deadline=None)
@given(scheme=_schemes(), events=st.integers(0, 8),
       theta=st.one_of(st.just(math.pi / 2),
                       st.floats(0.0, math.pi / 2, exclude_min=True)),
       eps=st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True)),
       passes=st.integers(1, 3), seed=st.integers(0, 2**64 - 1),
       block=st.sampled_from([128, None]))
# One full flip leaves class 0 empty: at eps 0 correction collapses.
@example(scheme=ChecksumScheme(3, ((0, 1, 2),)), events=1,
         theta=math.pi / 2, eps=0.0, passes=1, seed=0, block=None)
# Eight events on three qubits: repeated qubits, 32 classes.
@example(scheme=ChecksumScheme(1, ((0,),) * 5), events=8, theta=0.5,
         eps=0.0, passes=2, seed=5, block=128)
def test_class_form_states_match_the_dense_reference_bitwise(
        scheme, events, theta, eps, passes, seed, block):
    # The uniform path's encoded, noisy and corrected states, each a class
    # form (``correct`` keeps one), against the whole-array reference, and
    # their reductions against the same functions on a dense copy.
    model, cfg = NoiseModel(events, theta), InterferenceConfig(eps, passes)
    n = scheme.data_bits
    with pytest.MonkeyPatch.context() as patch:
        if block:
            patch.setattr(qic.state, "_BLOCK", block)
        ideal = encode(uniform_superposition(Register(n)), scheme)
        noisy, log = inject_noise(ideal, model, np.random.default_rng(seed))
        try:
            corrected = correct(noisy, scheme, cfg)
        except NormCollapse:
            corrected = None
        states = [psi for psi in (ideal, noisy, corrected) if psi is not None]
        dense = [StateVector(psi.register, psi.amplitudes) for psi in states]
        for psi, copy in zip(states, dense):
            assert psi._labels == Classes(scheme.qubit_columns())
            assert norm_squared(psi).hex() == norm_squared(copy).hex()
            assert (checksum_valid_mass(psi, scheme).hex()
                    == checksum_valid_mass(copy, scheme).hex())
            for other, other_copy in zip(states, dense):
                want = fidelity(copy, other_copy).hex()
                assert fidelity(psi, other).hex() == want
                assert fidelity(psi, other_copy).hex() == want

    expected_ideal = reference.encode(
        np.full(1 << n, 1 / np.sqrt(1 << n), complex), scheme)
    expected_noisy, qubits = reference.noise(expected_ideal, model, seed)
    expected_corrected = reference.interfere(expected_noisy,
                                             expected_ideal != 0, cfg)
    assert [e.qubit for e in log] == qubits
    assert (corrected is None) == (expected_corrected is None)
    for psi, expected in zip(states, (expected_ideal, expected_noisy,
                                      expected_corrected)):
        assert np.array_equal(reference.bits(psi.amplitudes),
                              reference.bits(expected))


def test_ecc_experiment_peak_memory():
    # Uniform data: every state is 2^k = 4 values, and each sum walks the
    # state in one block of scratch (512 KiB at the default _BLOCK), at
    # any register size.  One dense state would be 16 MiB at m = 20 and
    # 256 MiB at m = 24; 2^m valid flags 1 and 16 MiB.
    for data_bits in (18, 22):
        half = data_bits // 2
        scheme = ChecksumScheme(data_bits, (tuple(range(half)),
                                            tuple(range(half, data_bits))))

        def run():
            ecc_experiment(scheme, NoiseModel(events=6, theta=0.5),
                           InterferenceConfig(0.05, 2), seed=7)

        run()  # leaves the block's class labels in their cache
        tracemalloc.start()
        try:
            run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, (data_bits, peak / (1 << 20))


def test_default_ecc_experiment_compiles_no_mask(monkeypatch):
    # The uniform path reads syndrome 0 as checksum-valid; only an
    # explicit data state, encoded dense, compiles the checksum predicate.
    calls = []

    def counting(pred, register):
        calls.append(pred)
        return compile_mask(pred, register)

    monkeypatch.setattr(qic.ecc, "compile_mask", counting)
    scheme = ChecksumScheme(6, ((0, 1, 2), (3, 4, 5)))
    args = (scheme, NoiseModel(events=3), InterferenceConfig(0.05, 2), 1)
    ecc_experiment(*args)
    assert calls == []
    ecc_experiment(*args, data_state=basis_state(Register(6), 5))
    assert calls


def test_inject_noise_peaks_below_one_state_and_one_block(monkeypatch):
    # 40 events on 14 qubits, more distinct ones than a quarter block has
    # index bits, so high flips split each row's halves over pieces.  Each
    # flip is one pass of pieces through a quarter-block scratch: the noisy
    # state is the only state-sized allocation, and block-sized scratch per
    # flip would fail.
    block = 8192
    monkeypatch.setattr(qic.state, "_BLOCK", block)
    m = 14
    rng = np.random.default_rng(9)
    psi = StateVector(Register(m), rng.normal(size=1 << m)
                      + 1j * rng.normal(size=1 << m))
    model, draws = NoiseModel(events=40, theta=0.5), np.random.default_rng(3)
    tracemalloc.start()
    try:
        noisy, events = inject_noise(psi, model, draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    tile_bits = (block // 4).bit_length() - 1
    assert len({e.qubit for e in events}) > tile_bits
    state = noisy.amplitudes.nbytes
    assert peak < state + 16 * block, (peak - state) / (16 * block)
