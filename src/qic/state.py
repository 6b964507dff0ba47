"""Amplitude vectors over qubit registers and their core transforms.

Bit convention, used everywhere: basis index ``i`` spells the qubits in
binary with qubit 0 as the least significant bit.  Bitstrings render most
significant qubit first, so index 1 on a 3-qubit register is ``"001"``.
Checksum qubits, when present, occupy the high indices ``n .. m-1``.

All transforms are pure: the input state is never mutated and outputs own
fresh amplitude arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NormCollapse, RegisterMismatch

MAX_QUBITS = 30

# Guards accumulated rounding only; perfect cancellation yields exact zeros.
DEFAULT_COLLAPSE_TOL = 1e-9


@dataclass(frozen=True)
class Register:
    """An m-qubit register split into data and checksum qubits (m = n + k)."""

    data_qubits: int
    checksum_qubits: int = 0

    def __post_init__(self):
        if self.data_qubits < 1:
            raise ValueError(f"data_qubits must be >= 1, got {self.data_qubits}")
        if self.checksum_qubits < 0:
            raise ValueError(
                f"checksum_qubits must be >= 0, got {self.checksum_qubits}"
            )
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(
                f"register of {self.total_qubits} qubits exceeds the "
                f"{MAX_QUBITS}-qubit cap (2^m amplitudes must fit in memory)"
            )

    @property
    def total_qubits(self) -> int:
        return self.data_qubits + self.checksum_qubits

    @property
    def dimension(self) -> int:
        return 1 << self.total_qubits

    def bitstring(self, index: int) -> str:
        """Render a basis index most-significant qubit first."""
        if not 0 <= index < self.dimension:
            raise IndexOutOfRange(f"index {index} outside [0, {self.dimension})")
        return format(index, f"0{self.total_qubits}b")


class StateVector:
    """2^m amplitudes over a register, with a normalized flag.

    Amplitudes are float64 for real input and complex128 for complex input;
    the transforms give a real state the same bits in either dtype.
    """

    __slots__ = ("register", "amplitudes", "normalized")

    def __init__(self, register: Register, amplitudes, normalized: bool = False,
                 copy: bool = True):
        arr = np.asarray(amplitudes)
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype, copy=copy)
        if arr.shape != (register.dimension,):
            raise ValueError(
                f"expected {register.dimension} amplitudes, got {arr.shape}"
            )
        arr.flags.writeable = False
        self.register = register
        self.amplitudes = arr
        self.normalized = normalized

    def __repr__(self):
        m = self.register.total_qubits
        return f"StateVector(m={m}, normalized={self.normalized})"


@dataclass(frozen=True, eq=False)
class PhaseMask:
    """Sign pattern over basis indices: +1 on valid components, -1 elsewhere.

    ``valid`` is a dense boolean array of 2^m flags.
    """

    register: Register
    valid: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.valid, dtype=bool)
        if flags.shape != (self.register.dimension,):
            raise ValueError(
                f"expected {self.register.dimension} flags, got {flags.shape}"
            )
        flags = flags.copy()
        flags.flags.writeable = False
        object.__setattr__(self, "valid", flags)

    @classmethod
    def _adopt(cls, register: Register, flags: np.ndarray) -> "PhaseMask":
        """Wrap 2^m bool flags that no caller holds: no copy, no checks."""
        flags.flags.writeable = False
        mask = cls.__new__(cls)
        object.__setattr__(mask, "register", register)
        object.__setattr__(mask, "valid", flags)
        return mask

    @classmethod
    def from_indices(cls, register: Register, indices) -> "PhaseMask":
        flags = np.zeros(register.dimension, dtype=bool)
        for i in indices:
            if not 0 <= i < register.dimension:
                raise IndexOutOfRange(
                    f"index {i} outside [0, {register.dimension})"
                )
            flags[i] = True
        return cls._adopt(register, flags)

    def valid_indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.valid)]


def uniform_superposition(register: Register) -> StateVector:
    """Equal-amplitude state: every component is 2^(-m/2)."""
    dim = register.dimension
    amps = np.full(dim, 1.0 / np.sqrt(dim))
    return StateVector(register, amps, normalized=True, copy=False)


def basis_state(register: Register, index: int) -> StateVector:
    """The single basis component |index>."""
    if not 0 <= index < register.dimension:
        raise IndexOutOfRange(f"index {index} outside [0, {register.dimension})")
    amps = np.zeros(register.dimension)
    amps[index] = 1.0
    return StateVector(register, amps, normalized=True, copy=False)


def norm_squared(psi: StateVector) -> float:
    # np.sum over the fixed index order keeps reductions deterministic.
    return float(np.sum(np.abs(psi.amplitudes) ** 2))


def check_tolerance(tol: float, name: str = "tol") -> None:
    """Reject a norm-collapse tolerance that is not a finite number > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {tol}")


def normalize(psi: StateVector, tol: float = DEFAULT_COLLAPSE_TOL) -> StateVector:
    """Rescale to unit norm. Raises NormCollapse if norm_squared < tol."""
    check_tolerance(tol)
    n2 = norm_squared(psi)
    if n2 < tol:
        raise NormCollapse(n2, tol)
    # As numpy's complex / real does, up to the sign of a zero amplitude.
    amps = psi.amplitudes * (1.0 / np.sqrt(n2))
    return StateVector(psi.register, amps, normalized=True, copy=False)


def probability(psi: StateVector, index: int) -> float:
    if not 0 <= index < psi.register.dimension:
        raise IndexOutOfRange(
            f"index {index} outside [0, {psi.register.dimension})"
        )
    return float(abs(psi.amplitudes[index]) ** 2)


def sample(psi: StateVector, rng: np.random.Generator,
           tol: float = DEFAULT_COLLAPSE_TOL) -> int:
    """Draw one basis index with probability |amp_i|^2.

    Consumes exactly one uniform draw from ``rng``; the outcome is a pure
    function of the draw and the amplitudes (cumulative scan in index
    order), so identical seeds give identical indices.  The returned
    index always has nonzero probability.
    """
    check_tolerance(tol)
    # One owned buffer holds |amp|^2, then its running sum.
    probs = np.abs(psi.amplitudes)
    np.square(probs, out=probs)
    if not psi.normalized:
        total = float(np.sum(probs))
        if total < tol:
            raise NormCollapse(total, tol)
        probs /= total
    cumulative = np.cumsum(probs, out=probs)
    if not cumulative[-1] > 0:
        raise NormCollapse(float(cumulative[-1]), tol)
    # Scaling by the rounded total keeps u below cumulative[-1], so the
    # first entry above u ends a step of nonzero probability.
    u = rng.random() * cumulative[-1]
    return int(np.searchsorted(cumulative, u, side="right"))


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 for two normalized states on the same register."""
    if psi.register != phi.register:
        raise RegisterMismatch(
            f"registers differ: {psi.register} vs {phi.register}"
        )
    # A real vdot sums in another order; complex keeps bits dtype-independent.
    overlap = np.vdot(psi.amplitudes.astype(np.complex128, copy=False),
                      phi.amplitudes)
    return float(abs(overlap) ** 2)


def apply_phase_mask(psi: StateVector, mask: PhaseMask) -> StateVector:
    """Flip the sign of every component outside the mask's valid set."""
    if psi.register != mask.register:
        raise RegisterMismatch(
            f"registers differ: {psi.register} vs {mask.register}"
        )
    amps = np.where(mask.valid, psi.amplitudes, -psi.amplitudes)
    return StateVector(psi.register, amps, normalized=psi.normalized, copy=False)


def apply_partial_bit_flip(psi: StateVector, qubit: int,
                           theta: float) -> StateVector:
    """Apply the unitary cos(theta) I + i sin(theta) X_qubit.

    Mixes each amplitude with its bit-flipped partner:
    amp_i' = cos(theta) amp_i + i sin(theta) amp_{i xor 2^qubit}.
    """
    m = psi.register.total_qubits
    if not 0 <= qubit < m:
        raise IndexOutOfRange(f"qubit {qubit} outside [0, {m})")
    block = 1 << qubit
    # View as (high bits, flipped bit, low bits); reversing the middle
    # axis pairs every index with its partner.
    paired = psi.amplitudes.reshape(-1, 2, block)
    flipped = paired[:, ::-1, :].reshape(-1)
    amps = np.cos(theta) * psi.amplitudes + 1j * np.sin(theta) * flipped
    return StateVector(psi.register, amps, normalized=psi.normalized, copy=False)
