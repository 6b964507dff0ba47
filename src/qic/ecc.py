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

from dataclasses import dataclass

import numpy as np

from .errors import NormCollapse, ParseError, RegisterMismatch, SchemeInvalid
from .interference import InterferenceConfig, interfere_repeated
from .predicate import (
    And,
    Not,
    Predicate,
    Var,
    Xor,
    check_compile_cap,
    compile_mask,
)
from .state import (
    Register,
    StateVector,
    apply_partial_bit_flip,
    fidelity,
    uniform_superposition,
)


@dataclass(frozen=True)
class ChecksumScheme:
    """Parity groups over data bits; group g is checked by qubit n + g."""

    data_bits: int
    groups: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.data_bits < 1:
            raise SchemeInvalid(f"data_bits must be >= 1, got {self.data_bits}")
        groups = tuple(tuple(sorted(set(int(b) for b in g))) for g in self.groups)
        if not groups:
            raise SchemeInvalid("at least one parity group is required")
        covered = set()
        for group in groups:
            if not group:
                raise SchemeInvalid("empty parity group")
            for bit in group:
                if not 0 <= bit < self.data_bits:
                    raise SchemeInvalid(
                        f"group member {bit} outside data bits 0..{self.data_bits - 1}"
                    )
            covered.update(group)
        missing = set(range(self.data_bits)) - covered
        if missing:
            raise SchemeInvalid(
                f"data bits not covered by any group: {sorted(missing)}"
            )
        object.__setattr__(self, "groups", groups)

    @property
    def checksum_bits(self) -> int:
        return len(self.groups)

    def register(self) -> Register:
        return Register(self.data_bits, self.checksum_bits)

    def checksum_of(self, data_index: int) -> int:
        """Checksum bit pattern for one data-bit assignment."""
        value = 0
        for g, group in enumerate(self.groups):
            mask = 0
            for bit in group:
                mask |= 1 << bit
            value |= ((data_index & mask).bit_count() & 1) << g
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
    pos = len(prefix)
    for part in text[len(prefix):].split(";"):
        members = []
        for item in part.split(","):
            try:
                members.append(int(item))
            except ValueError:
                raise ParseError(
                    f"expected a data bit index, got {item.strip()!r}",
                    pos + part.index(item),
                ) from None
        groups.append(tuple(members))
        pos += len(part) + 1
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
    data_part = np.arange(full.dimension) & (data_pred.register.dimension - 1)
    combined = check_flags & data_flags[data_part]
    return Predicate(frozenset(int(i) for i in np.flatnonzero(combined)), full)


def _parity(values: np.ndarray) -> np.ndarray:
    # XOR-fold; sufficient for indices below 2^32.
    values = values.copy()
    for shift in (16, 8, 4, 2, 1):
        values ^= values >> shift
    return values & 1


def encode(psi_data: StateVector, scheme: ChecksumScheme) -> StateVector:
    """Attach checksum qubits: data index x moves to (checksum(x) << n) | x."""
    n = scheme.data_bits
    if psi_data.register.total_qubits != n:
        raise RegisterMismatch(
            f"data state has {psi_data.register.total_qubits} qubits, "
            f"scheme expects {n}"
        )
    full = scheme.register()
    xs = np.arange(1 << n, dtype=np.int64)
    checksums = np.zeros(1 << n, dtype=np.int64)
    for g, group in enumerate(scheme.groups):
        mask = 0
        for bit in group:
            mask |= 1 << bit
        checksums |= _parity(xs & mask) << g
    amps = np.zeros(full.dimension, dtype=psi_data.amplitudes.dtype)
    amps[(checksums << n) | xs] = psi_data.amplitudes
    return StateVector(full, amps, normalized=psi_data.normalized, copy=False)


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
        return {"qubit": self.qubit, "theta": self.theta}


def inject_noise(psi: StateVector, model: NoiseModel,
                 rng: np.random.Generator
                 ) -> tuple[StateVector, tuple[NoiseEvent, ...]]:
    """Apply the model's partial flips on qubits drawn from ``rng``.

    Returns the evolved state and the event log.
    """
    m = psi.register.total_qubits
    log = []
    for _ in range(model.events):
        qubit = int(rng.integers(0, m))
        psi = apply_partial_bit_flip(psi, qubit, model.theta)
        log.append(NoiseEvent(qubit, model.theta))
    return psi, tuple(log)


def checksum_valid_mass(psi: StateVector, scheme: ChecksumScheme) -> float:
    """Squared mass carried by checksum-valid components."""
    mask = compile_mask(checksum_predicate(scheme), psi.register)
    probs = np.abs(psi.amplitudes) ** 2
    return float(np.sum(probs[mask.valid]))


def correct(psi: StateVector, scheme: ChecksumScheme,
            cfg: InterferenceConfig = InterferenceConfig()) -> StateVector:
    """Remove checksum-violating components by interference."""
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
        return {
            "status": self.status,
            "valid_mass_before": self.valid_mass_before,
            "fidelity_before": self.fidelity_before,
            "valid_mass_after": self.valid_mass_after,
            "fidelity_after": self.fidelity_after,
            "events": [e.to_dict() for e in self.events],
            "config": dict(self.config),
        }


def ecc_experiment(scheme: ChecksumScheme, model: NoiseModel,
                   cfg: InterferenceConfig, seed: int,
                   data_state: StateVector | None = None) -> EccReport:
    """Encode, corrupt, measure, correct, measure again.

    The ideal state encodes ``data_state`` (uniform superposition over the
    data qubits by default).  Masses and fidelities are taken against the
    ideal encoded state before and after the correction pass.
    """
    check_compile_cap(scheme.register())
    if data_state is None:
        data_state = uniform_superposition(Register(scheme.data_bits))
    psi_ideal = encode(data_state, scheme)
    rng = np.random.default_rng(seed)
    psi_noisy, events = inject_noise(psi_ideal, model, rng)
    # fidelity takes complex128 overlaps: convert the ideal state once here
    # rather than on each call, and only after the noise has run.
    psi_ideal = StateVector(psi_ideal.register,
                            psi_ideal.amplitudes.astype(np.complex128),
                            normalized=psi_ideal.normalized, copy=False)

    mass_before = checksum_valid_mass(psi_noisy, scheme)
    fid_before = fidelity(psi_noisy, psi_ideal)
    try:
        psi_corrected = correct(psi_noisy, scheme, cfg)
        # Freed so that the ideal state's complex copy adds no peak memory.
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
