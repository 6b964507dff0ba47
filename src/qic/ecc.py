"""Checksum qubits, a unitary bit-flip noise channel, and interference
removal of corrupted components.

A scheme attaches one parity qubit per group of data bits: checksum qubit
``n + g`` holds the XOR of the data bits in group ``g``.  Noise spreads
amplitude into parity-violating components via partial bit flips
(cos(theta) I + i sin(theta) X_j); correction removes those components by
interfering against the checksum-validity predicate, exactly as invalid
solutions are removed during search.  Corrupted components are discarded,
never decoded back.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import NormCollapse, ParseError, RegisterMismatch, SchemeInvalid
from .interference import InterferenceConfig, interfere_repeated
from .predicate import (
    And,
    Not,
    Predicate,
    Var,
    Xor,
    compile_mask,
    parse_int,
)
from .state import (
    Classes,
    Register,
    StateVector,
    _Stream,
    _class_mass,
    _constant_value,
    _gather_abs,
    _interfere_classes,
    _over_classes,
    apply_partial_bit_flip,
    check_seed,
    fidelity,
    uniform_superposition,
)


@dataclass(frozen=True)
class ChecksumScheme:
    """Parity groups over data bits; group g is checked by qubit n + g."""

    data_bits: int
    groups: tuple[tuple[int, ...], ...]
    # columns[b]: the checksum bits that data bit b flips, one per group
    # that holds b.  A checksum is the XOR of its set bits' columns.
    columns: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.data_bits < 1:
            raise SchemeInvalid(f"data_bits must be >= 1, got {self.data_bits}")
        groups = tuple(tuple(sorted(set(map(operator.index, g)))) for g in self.groups)
        if not groups:
            raise SchemeInvalid("at least one parity group is required")
        for group in groups:
            if not group:
                raise SchemeInvalid("empty parity group")
            for bit in group:
                if not 0 <= bit < self.data_bits:
                    raise SchemeInvalid(
                        f"group member {bit} outside data bits 0..{self.data_bits - 1}"
                    )
        columns = tuple(
            sum(1 << g for g, group in enumerate(groups) if bit in group)
            for bit in range(self.data_bits))
        missing = [bit for bit, column in enumerate(columns) if not column]
        if missing:
            raise SchemeInvalid(f"data bits not covered by any group: {missing}")
        object.__setattr__(self, "groups", groups)
        object.__setattr__(self, "columns", columns)

    @property
    def checksum_bits(self) -> int:
        return len(self.groups)

    def register(self) -> Register:
        return Register(self.data_bits + self.checksum_bits)

    def qubit_columns(self) -> tuple[int, ...]:
        """Per qubit of the register, the checksum bits it flips: a data
        bit's column, then checksum qubit g's own bit 1 << g.  The XOR
        over an index's set bits is its syndrome, 0 when checksum-valid."""
        return self.columns + tuple(1 << g for g in range(self.checksum_bits))

    @classmethod
    def global_parity(cls, data_bits: int) -> "ChecksumScheme":
        """One checksum qubit holding the parity of every data bit."""
        return cls(data_bits, (tuple(range(data_bits)),))


def parse_scheme(text: str, data_bits: int) -> ChecksumScheme:
    """Parse the CLI scheme form: "global" or "groups:0,1;2,3"."""
    if text == "global":
        return ChecksumScheme.global_parity(data_bits)
    prefix = "groups:"
    if not text.startswith(prefix):
        raise ParseError(
            f"expected 'global' or 'groups:...', got {text!r}", 0
        )
    groups = []
    pos = len(prefix)  # offset of the next item
    for part in text[len(prefix):].split(";"):
        members = []
        for item in part.split(","):
            members.append(parse_int(item, pos,
                                     "expected a data bit index, got {!r}"))
            pos += len(item) + 1
        groups.append(tuple(members))
    return ChecksumScheme(data_bits, tuple(groups))


def checksum_predicate(scheme: ChecksumScheme) -> Predicate:
    """Predicate over n + k qubits: every group parity matches its qubit."""
    n = scheme.data_bits
    expr = None
    for g, group in enumerate(scheme.groups):
        chain = Var(group[0])
        for bit in group[1:]:
            chain = Xor(chain, Var(bit))
        relation = Not(Xor(Var(n + g), chain))
        expr = relation if expr is None else And(expr, relation)
    return Predicate(expr, scheme.register())


def encode(psi_data: StateVector, scheme: ChecksumScheme) -> StateVector:
    """Attach checksum qubits: data index x moves to (checksum(x) << n) | x.

    A data state of one value a (the uniform default) encodes as a class
    form over the scheme's ``qubit_columns``: a on syndrome 0, the
    checksum-valid indices, and 0.0 on the other 2^k - 1 syndromes, so
    neither a 2^m array nor any valid flags are built.  Any other data
    state is scattered into a fresh dense one.
    """
    n = scheme.data_bits
    if psi_data.register.total_qubits != n:
        raise RegisterMismatch(
            f"data state has {psi_data.register.total_qubits} qubits, "
            f"scheme expects {n}"
        )
    full = scheme.register()
    value = _constant_value(psi_data)
    if value is not None:
        values = np.zeros(1 << scheme.checksum_bits)
        values[0] = value
        return StateVector._table(full, Classes(scheme.qubit_columns()),
                                  values)
    # By doubling: indices with top bit b are those below 2^b plus bit b.
    checksums = np.zeros(
        1 << n, dtype=np.min_scalar_type((1 << scheme.checksum_bits) - 1))
    for bit, column in enumerate(scheme.columns):
        np.bitwise_xor(checksums[:1 << bit], column,
                       out=checksums[1 << bit:2 << bit])
    amps = np.zeros(full.dimension, np.complex128)
    # Row checksum, column data index: one scatter of every data amplitude.
    rows = amps.reshape(-1, 1 << n)
    rows[checksums, np.arange(1 << n)] = psi_data.amplitudes
    return StateVector._adopt(full, amps)


@dataclass(frozen=True)
class NoiseModel:
    """A count of partial-flip events at a fixed angle on random qubits."""

    events: int
    theta: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "events", operator.index(self.events))
        if self.events < 0:
            raise ValueError(f"events must be >= 0, got {self.events}")
        if not 0.0 < self.theta <= np.pi / 2:
            raise ValueError(
                f"theta must be in (0, pi/2], got {self.theta}"
            )


@dataclass(frozen=True)
class NoiseEvent:
    qubit: int
    theta: float


def inject_noise(psi: StateVector, model: NoiseModel,
                 rng: _Stream | np.random.Generator
                 ) -> tuple[StateVector, tuple[NoiseEvent, ...]]:
    """Apply the model's partial flips on qubits drawn by
    ``rng.integers(0, m)``, one draw per event.

    Returns the evolved state and the event log; ``psi`` is not changed.
    All the flips are one ``apply_partial_bit_flip`` call, so they run in
    one fresh array, which with no events is a copy of ``psi``.
    """
    m = psi.register.total_qubits
    qubits = [int(rng.integers(0, m)) for _ in range(model.events)]
    return (apply_partial_bit_flip(psi, qubits, model.theta),
            tuple(NoiseEvent(qubit, model.theta) for qubit in qubits))


def checksum_valid_mass(psi: StateVector, scheme: ChecksumScheme) -> float:
    """Squared mass carried by checksum-valid components.

    Of a class form over the scheme's syndromes, that is 2^n copies of
    class 0's |value|^2, summed in closed form with np.sum's bits.
    """
    if _over_classes(psi, Classes(scheme.qubit_columns())):
        return _class_mass(psi, 1 << scheme.data_bits)
    mask = compile_mask(checksum_predicate(scheme), psi.register)
    # Gather, then square: np.sum sees the values and order of squaring all.
    mags = _gather_abs(psi, mask)
    return float(np.sum(np.square(mags, out=mags)))


def correct(psi: StateVector, scheme: ChecksumScheme,
            cfg: InterferenceConfig = InterferenceConfig()) -> StateVector:
    """Remove checksum-violating components by interference: ecc's one
    correction step.

    A class form over the scheme's syndromes is passed on its 2^k values,
    where syndrome 0 alone is checksum-valid, and stays a class form; any
    other state is passed against the compiled checksum predicate.  Pure,
    like every transform: ``psi`` is not changed.
    """
    if _over_classes(psi, Classes(scheme.qubit_columns())):
        syndromes = np.arange(1 << scheme.checksum_bits)
        return _interfere_classes(psi, syndromes == 0, cfg.leakage,
                                  cfg.passes, cfg.collapse_tol)
    return interfere_repeated(psi, checksum_predicate(scheme), cfg)


@dataclass(frozen=True)
class EccReport:
    """Before/after masses and fidelities of one noise-correction run; an
    ``ecc`` report's results are its asdict, fields in this order.

    ``status`` is "ok", or "norm_collapse" when correction cancelled the
    whole state (after-metrics are then None).
    """

    status: str
    valid_mass_before: float
    fidelity_before: float
    valid_mass_after: float | None
    fidelity_after: float | None
    events: tuple[NoiseEvent, ...]
    config: dict


def ecc_experiment(scheme: ChecksumScheme, model: NoiseModel,
                   cfg: InterferenceConfig, seed: int,
                   data_state: StateVector | None = None) -> EccReport:
    """Encode, corrupt, measure, correct, measure again.

    The ideal state encodes ``data_state`` (uniform superposition over the
    data qubits by default).  Masses and fidelities are taken against the
    ideal encoded state before and after the correction pass.

    With the default uniform data every state is a class form: 2^k
    values, one per syndrome.  The flips, masses, overlaps and passes run
    on those values, with block scratch for the sums, so no 2^m array
    (neither amplitudes nor valid flags) is built and nothing is compiled.
    An explicit ``data_state`` is encoded dense instead: then the ideal,
    noisy and corrected states are three 2^m complex128 arrays at the
    peak, as ``correct``, like every transform, is pure.
    """
    # Refuses an oversized register, and a bad seed, before any state exists.
    scheme.register()
    seed = check_seed(seed)
    if data_state is None:
        data_state = uniform_superposition(Register(scheme.data_bits))
    psi_ideal = encode(data_state, scheme)
    rng = _Stream(seed)  # np.random.default_rng(seed)'s draws
    psi_noisy, events = inject_noise(psi_ideal, model, rng)

    mass_before = checksum_valid_mass(psi_noisy, scheme)
    fid_before = fidelity(psi_noisy, psi_ideal)
    try:
        psi_corrected = correct(psi_noisy, scheme, cfg)
        del psi_noisy
        status = "ok"
        mass_after = checksum_valid_mass(psi_corrected, scheme)
        fid_after = fidelity(psi_corrected, psi_ideal)
    except NormCollapse:
        status = "norm_collapse"
        mass_after = None
        fid_after = None

    config_echo = {
        "data_bits": scheme.data_bits,
        "groups": [list(g) for g in scheme.groups],
        "events": model.events,
        "theta": model.theta,
        "epsilon": cfg.leakage,
        "passes": cfg.passes,
        "collapse_tol": cfg.collapse_tol,
        "seed": seed,
    }
    return EccReport(
        status=status,
        valid_mass_before=mass_before,
        fidelity_before=fid_before,
        valid_mass_after=mass_after,
        fidelity_after=fid_after,
        events=events,
        config=config_echo,
    )
