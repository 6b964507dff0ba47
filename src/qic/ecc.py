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

from dataclasses import asdict, dataclass, field

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
    Register,
    StateVector,
    _blocks,
    _flip,
    _gather_abs,
    _interfere,
    apply_partial_bit_flip,  # noqa: F401  (tracers wrap qic.ecc's binding)
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
        groups = tuple(tuple(sorted(set(int(b) for b in g))) for g in self.groups)
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

    def checksum_of(self, data_index: int) -> int:
        """Checksum bit pattern for one data-bit assignment."""
        value = 0
        for bit, column in enumerate(self.columns):
            if data_index >> bit & 1:
                value ^= column
        return value

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


def search_predicate(data_pred: Predicate,
                     scheme: ChecksumScheme) -> Predicate:
    """Conjunction of a data-bit solution predicate with checksum validity.

    The result classifies full-register indices: valid iff the checksum
    relation holds and the data bits satisfy ``data_pred``.  Lets the
    enumeration loop search an encoded register end to end.
    """
    if data_pred.register != Register(scheme.data_bits):
        raise RegisterMismatch(
            f"data predicate bound to {data_pred.register}, scheme expects "
            f"{Register(scheme.data_bits)}"
        )
    full = scheme.register()
    check_flags = compile_mask(checksum_predicate(scheme), full).valid
    data_flags = compile_mask(data_pred, data_pred.register).valid
    combined = check_flags & np.tile(data_flags, 1 << scheme.checksum_bits)
    return Predicate(frozenset(int(i) for i in np.flatnonzero(combined)), full)


def encode(psi_data: StateVector, scheme: ChecksumScheme) -> StateVector:
    """Attach checksum qubits: data index x moves to (checksum(x) << n) | x."""
    n = scheme.data_bits
    if psi_data.register.total_qubits != n:
        raise RegisterMismatch(
            f"data state has {psi_data.register.total_qubits} qubits, "
            f"scheme expects {n}"
        )
    full = scheme.register()
    # By doubling: indices with top bit b are those below 2^b plus bit b.
    checksums = np.zeros(
        1 << n, dtype=np.min_scalar_type((1 << scheme.checksum_bits) - 1))
    for bit, column in enumerate(scheme.columns):
        np.bitwise_xor(checksums[:1 << bit], column,
                       out=checksums[1 << bit:2 << bit])
    amps = np.zeros(full.dimension, dtype=psi_data.amplitudes.dtype)
    # Row checksum, column data index; scattered a block of columns at a time.
    rows = amps.reshape(-1, 1 << n)
    blocks = _blocks(1 << n)
    columns = np.arange(blocks[0].stop)
    for block in blocks:
        rows[:, block][checksums[block], columns] = psi_data.amplitudes[block]
    return StateVector._adopt(full, amps)


@dataclass(frozen=True)
class NoiseModel:
    """A count of partial-flip events at a fixed angle on random qubits."""

    events: int
    theta: float = 0.5

    def __post_init__(self):
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

    def to_dict(self) -> dict:
        return asdict(self)


def _inject_noise(psi: StateVector, model: NoiseModel,
                  rng: np.random.Generator
                  ) -> tuple[StateVector, np.ndarray | None,
                             tuple[NoiseEvent, ...]]:
    """``inject_noise`` that also returns the buffer the flips ran in.

    The state views that buffer read-only while the buffer stays writable,
    so the caller owns the state's memory and may overwrite it, as
    correction does.  With no events the buffer is None and the state is
    ``psi``.
    """
    m = psi.register.total_qubits
    qubits = [int(rng.integers(0, m)) for _ in range(model.events)]
    events = tuple(NoiseEvent(qubit, model.theta) for qubit in qubits)
    if not qubits:
        return psi, None, events
    buf = np.empty(psi.register.dimension, dtype=np.complex128)
    for i, qubit in enumerate(qubits):
        _flip(buf if i else psi.amplitudes, buf, qubit, model.theta)
    return StateVector._adopt(psi.register, buf.view()), buf, events


def inject_noise(psi: StateVector, model: NoiseModel,
                 rng: np.random.Generator
                 ) -> tuple[StateVector, tuple[NoiseEvent, ...]]:
    """Apply the model's partial flips on qubits drawn from ``rng``.

    Returns the evolved state and the event log; ``psi`` is not changed.
    The flips run in one fresh buffer, with the bits of chained
    ``apply_partial_bit_flip`` calls.
    """
    noisy, _, events = _inject_noise(psi, model, rng)
    return noisy, events


def checksum_valid_mass(psi: StateVector, scheme: ChecksumScheme) -> float:
    """Squared mass carried by checksum-valid components."""
    mask = compile_mask(checksum_predicate(scheme), psi.register)
    # Gather, then square: np.sum sees the values and order of squaring all.
    mags = _gather_abs(psi, mask.valid)
    return float(np.sum(np.square(mags, out=mags)))


def correct(psi: StateVector, scheme: ChecksumScheme,
            cfg: InterferenceConfig = InterferenceConfig()) -> StateVector:
    """Remove checksum-violating components by interference.

    Pure: the result owns a fresh array.  ``ecc_experiment`` runs the same
    passes in its noise buffer instead.
    """
    return interfere_repeated(psi, checksum_predicate(scheme), cfg)


@dataclass(frozen=True)
class EccReport:
    """Before/after masses and fidelities of one noise-correction run.

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

    def to_dict(self) -> dict:
        return {**asdict(self), "events": [e.to_dict() for e in self.events]}


def ecc_experiment(scheme: ChecksumScheme, model: NoiseModel,
                   cfg: InterferenceConfig, seed: int,
                   data_state: StateVector | None = None) -> EccReport:
    """Encode, corrupt, measure, correct, measure again.

    The ideal state encodes ``data_state`` (uniform superposition over the
    data qubits by default).  Masses and fidelities are taken against the
    ideal encoded state before and after the correction pass.

    Two 2^m complex128 arrays are live at the peak: the ideal state, made
    complex before the noise runs, and one buffer that this function owns.
    The noise flips run in that buffer and the correction passes then
    overwrite it, so the corrected state is the buffer.  With no noise
    events there is no buffer, and correction writes a fresh array rather
    than the ideal state.
    """
    # Refuses an oversized register, and a bad seed, before any state exists.
    register = scheme.register()
    check_seed(seed)
    if data_state is None:
        data_state = uniform_superposition(Register(scheme.data_bits))
    psi_ideal = encode(data_state, scheme)
    # fidelity takes complex128 overlaps: convert once, and before the noise
    # buffer exists, so the real encoding is gone by then.  The first flip
    # gives the same bits from either dtype.
    psi_ideal = StateVector._adopt(
        register, psi_ideal.amplitudes.astype(np.complex128, copy=False))
    rng = np.random.default_rng(seed)
    psi_noisy, buf, events = _inject_noise(psi_ideal, model, rng)

    mass_before = checksum_valid_mass(psi_noisy, scheme)
    fid_before = fidelity(psi_noisy, psi_ideal)
    try:
        # In place in the noise buffer (fresh without one), which also
        # overwrites psi_noisy: it is not read again.
        mask = compile_mask(checksum_predicate(scheme), register)
        psi_corrected = _interfere(psi_noisy, mask.valid, cfg.leakage,
                                   cfg.passes, cfg.collapse_tol, out=buf)
        del psi_noisy, buf
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
