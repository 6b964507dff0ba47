"""Amplitude vectors over qubit registers and their core transforms.

Bit convention, used everywhere: basis index ``i`` spells the qubits in
binary with qubit 0 as the least significant bit.  Bitstrings render most
significant qubit first, so index 1 on a 3-qubit register is ``"001"``.
Checksum qubits, when present, occupy the high indices ``n .. m-1``.

All public transforms are pure: the input state is never mutated and
outputs own fresh amplitude arrays.  Two private kernels may write over
their source instead: ``_flip``, so that a chain of noise events runs in
one owned buffer, and ``_interfere`` given ``out``, so that correction
runs in that same buffer.

A state holds one of two forms: a read-only dense array, or privately a
*two-level* form of valid flags, an invalid and a valid value, and per
aligned block whether its flags are unset, set or mixed.  Interference
from the uniform state keeps that form, so an enumeration or sweep state
holds no 2^m amplitudes.  This module alone knows the forms, so it owns
the pass kernel ``_interfere`` and the one walk (``_masses``) under the
squared norm, the kernel's surviving mass and ``sample``.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NormCollapse, RegisterMismatch

# The one size limit: every command compiles 2^m dense valid flags.
MAX_QUBITS = 26

# Guards accumulated rounding only; perfect cancellation yields exact zeros.
DEFAULT_COLLAPSE_TOL = 1e-9


@dataclass(frozen=True)
class Register:
    """An m-qubit register; checksum qubits, if any, are its high ones."""

    total_qubits: int

    def __post_init__(self):
        if self.total_qubits < 1:
            raise ValueError(f"total_qubits must be >= 1, got {self.total_qubits}")
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(
                f"register of {self.total_qubits} qubits exceeds the "
                f"{MAX_QUBITS}-qubit cap (2^m amplitudes must fit in memory)"
            )

    @property
    def dimension(self) -> int:
        return 1 << self.total_qubits

    def indices(self, values) -> frozenset:
        """``values`` as a frozenset of ints, each a basis index.

        Raises TypeError on a value that is not an integer, and
        IndexOutOfRange unless every one lies in [0, 2^m); only the
        smallest and largest are tested.
        """
        found = frozenset(map(operator.index, values))
        for i in (min(found, default=0), max(found, default=0)):
            if not 0 <= i < self.dimension:
                raise IndexOutOfRange(f"index {i} outside [0, {self.dimension})")
        return found

    def index(self, value) -> int:
        """``value`` as an int basis index, as ``indices`` checks it."""
        (i,) = self.indices((value,))
        return i

    def bitstring(self, index: int) -> str:
        """Render a basis index most-significant qubit first."""
        return format(self.index(index), f"0{self.total_qubits}b")


class StateVector:
    """2^m amplitudes over a register.

    Amplitudes are float64 for real input and complex128 for complex input;
    the transforms give a real state the same bits in either dtype.
    """

    __slots__ = ("register", "_dense", "_flags", "_values", "_kinds")

    def __init__(self, register: Register, amplitudes):
        arr = np.asarray(amplitudes)
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype)
        if arr.shape != (register.dimension,):
            raise ValueError(
                f"expected {register.dimension} amplitudes, got {arr.shape}"
            )
        arr.flags.writeable = False
        self.register, self._dense = register, arr
        self._flags = self._values = self._kinds = None  # see _two_level

    @classmethod
    def _adopt(cls, register: Register, amps: np.ndarray) -> "StateVector":
        """Wrap 2^m float64 or complex128 amplitudes that no caller writes
        through: no copy, no checks."""
        amps.flags.writeable = False
        psi = cls.__new__(cls)
        psi.register, psi._dense = register, amps
        psi._flags = psi._values = psi._kinds = None
        return psi

    @classmethod
    def _two_level(cls, register: Register, flags: np.ndarray | None,
                   values: np.ndarray, kinds: bytes) -> "StateVector":
        """A state whose amplitude i is ``values[flags[i]]``, or
        ``values[0]`` if flags is None; ``kinds[b]`` is 0 or 1 if aligned
        block b holds only that flag, else 2.  No checks."""
        psi = cls.__new__(cls)
        psi.register, psi._dense = register, None
        psi._flags, psi._values, psi._kinds = flags, values, kinds
        return psi

    @property
    def amplitudes(self) -> np.ndarray:
        """The 2^m amplitudes, read-only; a two-level state builds them on
        first access, without flags as a zero-stride view."""
        if self._dense is None:
            dim, values = self.register.dimension, self._values
            self._dense = (np.broadcast_to(values[0], dim) if self._flags is None
                           else _select(self._flags, values, np.empty(dim)))
            self._dense.flags.writeable = False
        return self._dense

    def __repr__(self):
        return f"StateVector(m={self.register.total_qubits})"


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
        flags[list(register.indices(indices))] = True
        return cls._adopt(register, flags)

    def valid_indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.valid)]


def uniform_superposition(register: Register) -> StateVector:
    """Equal-amplitude state: every component is 2^(-m/2).

    A two-level state without flags, so it allocates no amplitude array.
    """
    dim = register.dimension
    return StateVector._two_level(register, None,
                                  np.full(2, 1.0 / np.sqrt(dim)),
                                  bytes(dim // min(_BLOCK, dim)))


def basis_state(register: Register, index: int) -> StateVector:
    """The single basis component |index>."""
    amps = np.zeros(register.dimension)
    amps[register.index(index)] = 1.0
    return StateVector._adopt(register, amps)


# Full-state reductions walk aligned blocks of _BLOCK amplitudes with
# block-sized scratch, never a 2^m temporary.  np.sum over a contiguous
# float64 array is pairwise with 128-element leaves and halves 2^k elements
# exactly, so _pairwise over the np.sums of aligned power-of-two blocks of
# at least 128 elements gives np.sum's bits for the whole array.
_BLOCK = 1 << 16


def _blocks(dim: int) -> list[slice]:
    """The aligned blocks that cover ``dim`` (a power of two) amplitudes."""
    step = min(_BLOCK, dim)
    return [slice(start, start + step) for start in range(0, dim, step)]


def _step(psi: StateVector) -> int:
    """psi's block length; a two-level state's is that of its kinds."""
    dim = psi.register.dimension
    return dim // len(psi._kinds) if psi._kinds else min(_BLOCK, dim)


def _block_kinds(flags: np.ndarray) -> bytes:
    """Per aligned block of flags: 0 if none is set, 1 if all are, else 2."""
    step = min(_BLOCK, len(flags))
    counts = [np.count_nonzero(flags[block]) for block in _blocks(len(flags))]
    return bytes(2 if 0 < count < step else int(count > 0) for count in counts)


def _mass(amps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|amps|^2 into the float64 array ``out``, which is returned."""
    if amps.dtype == np.float64:
        # Equal to squaring np.abs(amps), bit for bit.
        return np.square(amps, out=out)
    np.abs(amps, out=out)
    return np.square(out, out=out)


def _select(flags: np.ndarray, pair: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``pair[flags]`` (bool flags, two float64 values) into float64
    ``out`` and return it, bit for bit: on the words, flag * (a ^ b) ^ a."""
    words, bits = pair.view(np.uint64), out.view(np.uint64)
    np.multiply(flags.view(np.uint8), words[:1] ^ words[1:], out=bits)
    np.bitwise_xor(bits, words[:1], out=bits)
    return out


def _masses(psi: StateVector, buf: np.ndarray, start: int = 0):
    """Yield |amp|^2 of psi's aligned blocks from block ``start`` on: a
    float64 for a block of one value, else ``buf`` (block-sized float64,
    owned by the caller) written with it."""
    step = len(buf)
    if psi._values is None:
        for lo in range(start * step, len(psi._dense), step):
            yield _mass(psi._dense[lo:lo + step], buf)
        return
    squares = np.square(psi._values)
    for b in range(start, len(psi._kinds)):
        kind = psi._kinds[b]
        yield (squares[kind] if kind < 2 else
               _select(psi._flags[b * step:(b + 1) * step], squares, buf))


def _pairwise(sums: list) -> float:
    """Combine a power-of-two count of block sums as np.sum's tree does."""
    while len(sums) > 1:
        sums = [left + right for left, right in zip(sums[::2], sums[1::2])]
    return float(sums[0])


@functools.lru_cache
def _constant_sum(v: float, count: int) -> float:
    """np.sum of ``count`` copies of v, bit for bit, by numpy's pairwise
    recursion: a run of at most 128 is summed as such, a longer one split
    at half its length less that half modulo 8."""
    if count <= 128:
        return np.sum(np.full(count, v))
    half = count // 2 - count // 2 % 8
    return _constant_sum(v, half) + _constant_sum(v, count - half)


def norm_squared(psi: StateVector) -> float:
    # np.sum of |amp|^2, bit for bit, in block-sized scratch.
    buf = np.empty(_step(psi))
    return _pairwise([np.sum(buf) if mass is buf
                      else _constant_sum(mass, len(buf))
                      for mass in _masses(psi, buf)])


def _gather_abs(psi: StateVector, flags: np.ndarray) -> np.ndarray:
    """``np.abs(psi.amplitudes[flags])`` as one float64 array, gathered
    block by block from a dense state."""
    if psi._values is not None:
        pair = np.abs(psi._values)
        if psi._flags is None:
            return np.full(np.count_nonzero(flags), pair[0])
        chosen = psi._flags[flags]
        return _select(chosen, pair, np.empty(len(chosen)))
    out = np.empty(np.count_nonzero(flags))
    start = 0
    for block in _blocks(len(flags)):
        chosen = flags[block]
        stop = start + np.count_nonzero(chosen)
        np.abs(psi._dense[block][chosen], out=out[start:stop])
        start = stop
    return out


def _scale(surviving: float, tol: float):
    """The factor that renormalises ``surviving`` >= ``tol`` mass."""
    if surviving < tol:
        raise NormCollapse(surviving, tol)
    # As numpy's complex / real does, up to the sign of a zero amplitude.
    return 1.0 / np.sqrt(surviving)


def _interfere(psi: StateVector, valid: np.ndarray, leakage: float,
               passes: int, tol: float, out: np.ndarray | None = None
               ) -> StateVector:
    """``passes`` interference passes against 2^m bool ``valid`` flags.

    Each pass scales valid amplitudes by 2 - leakage and invalid ones by
    leakage and renormalises (NormCollapse below ``tol``), with the rounding
    steps of whole-array passes: times the weight, then per later pass
    times the previous 1/sqrt(surviving) and the weight; the last factor
    comes once the last surviving mass is known.

    From the uniform state, or a two-level state over these very flags,
    the passes run on the two values and return a two-level state.  Any
    other input, never made dense, is passed block by block into one
    buffer: ``out`` if given, a writable, contiguous 2^m array of the
    input's dtype (psi's own memory too, as each element is read first).
    """
    # Indexed by a flag: leakage for invalid, 2 - leakage for valid.
    levels = np.array([leakage, 2.0 - leakage])
    if psi._values is not None and (psi._flags is None
                                     or psi._flags is valid):
        if out is not None:
            raise ValueError("out must be None for a two-level input")
        kinds = psi._kinds if psi._flags is valid else _block_kinds(valid)
        values, scale = psi._values, None
        for _ in range(passes):
            values = (values if scale is None else values * scale) * levels
            scale = _scale(norm_squared(StateVector._two_level(
                psi.register, valid, values, kinds)), tol)
        return StateVector._two_level(psi.register, valid, values * scale,
                                      kinds)
    amps, dim = psi._dense, psi.register.dimension
    dtype = (psi._values if amps is None else amps).dtype
    step = min(_BLOCK, dim)
    if out is None:
        out = np.empty(dim, dtype=dtype)
    elif out.dtype != dtype or out.shape != (dim,):
        raise ValueError("out must be 2^m amplitudes of the input's dtype")
    weights, mass, scale = np.empty(step), np.empty(step), None
    for _ in range(passes):
        sums = []
        for lo in range(0, dim, step):
            row = out[lo:lo + step]
            if scale is not None:
                src = np.multiply(row, scale, out=row)
            elif amps is None:
                src = _select(psi._flags[lo:lo + step], psi._values, row)
            else:
                src = amps[lo:lo + step]
            np.multiply(src, _select(valid[lo:lo + step], levels, weights),
                        out=row)
            sums.append(np.sum(_mass(row, mass)))
        scale = _scale(_pairwise(sums), tol)
    out *= scale
    return StateVector._adopt(psi.register, out.view())


def check_tolerance(tol: float, name: str = "tol") -> None:
    """Reject a norm-collapse tolerance that is not a finite number > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {tol}")


def check_seed(seed: int) -> None:
    """Reject a seed outside [0, 2^64), the range every run accepts."""
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit integer, got {seed}")


def normalize(psi: StateVector, tol: float = DEFAULT_COLLAPSE_TOL) -> StateVector:
    """Rescale to unit norm. Raises NormCollapse if norm_squared < tol."""
    check_tolerance(tol)
    amps = psi.amplitudes * _scale(norm_squared(psi), tol)
    return StateVector._adopt(psi.register, amps)


def probability(psi: StateVector, index: int) -> float:
    index = psi.register.index(index)
    if psi._values is None:
        return float(abs(psi._dense[index]) ** 2)
    flag = 0 if psi._flags is None else int(psi._flags[index])
    return float(abs(psi._values[flag]) ** 2)


def _constant_run_end(carry: float, v: float, count: int) -> float | None:
    """``np.cumsum([carry, v, ..., v])[-1]`` for ``count`` copies of v >= 0,
    or None if some add of the run is a tie.

    While the running sum s stays below 2^53 u, where u is its ulp, every
    sum is a multiple of u, so fl(s + v) is s plus v rounded to a multiple
    of u.  That step does not depend on s unless v is a tie (an odd
    multiple of u/2, rounded to even), so such a stretch is jumped in
    exact integer multiples of u.  The add that leaves it is done in
    floats.
    """
    s, v = float(carry), float(v)
    while count:
        q = math.frexp(math.ulp(s))[1] - 1  # u = 2^q
        num, den = v.as_integer_ratio()
        shift = den.bit_length() - 1 + q  # v / u = num / 2^shift
        if shift <= 0:
            step = num << -shift
        else:
            rest, half = num & ((1 << shift) - 1), 1 << (shift - 1)
            if rest == half:
                return None
            step = (num >> shift) + (rest > half)
        if step == 0:
            return s  # every add rounds back to s
        units = int(math.ldexp(s, -q))
        jumps = min(count, ((1 << 53) - 1 - units) // step)
        s = math.ldexp(units + jumps * step, q)
        count -= jumps
        if count:
            s += v
            count -= 1
    return s


def sample(psi: StateVector, rng: np.random.Generator,
           tol: float = DEFAULT_COLLAPSE_TOL) -> int:
    """Draw one basis index with probability |amp_i|^2.

    Consumes exactly one uniform draw from ``rng``; the outcome is a pure
    function of the draw and the amplitudes (cumulative scan in index
    order), so identical seeds give identical indices.  The state need
    not be normalized: the draw scales by the total of the running sums,
    and NormCollapse is raised when that total is below ``tol``.  The
    returned index always has nonzero probability.
    """
    check_tolerance(tol)
    # Only the running sum into each block and at the end is kept.
    scan = np.empty(_step(psi) + 1)
    masses = scan[1:]
    ends = [0.0]
    for mass in _masses(psi, masses):
        ends.append(_block_end(scan, mass, ends[-1]))
    if not ends[-1] >= tol:
        raise NormCollapse(ends[-1], tol)
    # Scaling by the rounded total keeps u below ends[-1], so the first
    # entry above u ends a step of nonzero probability.
    u = rng.random() * ends[-1]
    b = bisect.bisect_right(ends, u) - 1
    if b < len(ends) - 2 or mass is not masses:  # else the scan holds it
        _block_end(scan, next(_masses(psi, masses, b)), ends[b], closed=False)
    return b * len(masses) + int(np.searchsorted(masses, u, side="right"))


def _block_end(scan: np.ndarray, mass, carry: float,
               closed: bool = True) -> float:
    """The running sum from ``carry`` to the end of a block whose |amp|^2
    is ``mass``: ``scan[1:]`` itself, or a value the whole block holds,
    whose end comes in closed form unless it ties or ``closed`` is false.
    Else ``scan`` is left holding the run."""
    if not isinstance(mass, np.ndarray):
        end = _constant_run_end(carry, mass, len(scan) - 1) if closed else None
        if end is not None:
            return end
        scan[1:] = mass
    # Slot 0 carries the running sum into the block, so np.cumsum, which
    # adds strictly in order, continues the whole state's running sum.
    scan[0] = carry
    np.cumsum(scan, out=scan)
    return float(scan[-1])


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
    return StateVector._adopt(psi.register, amps)


def _flip(src: np.ndarray, out: np.ndarray, qubit: int, theta: float) -> None:
    """Partial flip of ``src`` into complex128 ``out``, which may be ``src``.

    out_i = cos(theta) src_i + i sin(theta) src_{i xor 2^qubit}, by the
    whole-array expression's ufunc steps.  As (high bits, flipped bit, low
    bits), reversing the middle axis pairs partners; each unit is a block of
    rows, or of low bits when a row is longer than a block.
    """
    c, s = np.cos(theta), 1j * np.sin(theta)
    half = 1 << qubit
    pairs, outs = src.reshape(-1, 2, half), out.reshape(-1, 2, half)
    step = min(_BLOCK, len(src))
    rows, width = max(1, step // (2 * half)), min(half, step)
    a = np.empty((rows, 2, width), dtype=np.complex128)
    b = np.empty_like(a)
    for i in range(0, len(pairs), rows):
        for j in range(0, half, width):
            unit = pairs[i:i + rows, :, j:j + width]
            np.multiply(c, unit, out=a)
            np.multiply(s, unit[:, ::-1, :], out=b)
            np.add(a, b, out=outs[i:i + rows, :, j:j + width])


def apply_partial_bit_flip(psi: StateVector, qubit: int,
                           theta: float) -> StateVector:
    """Apply the unitary cos(theta) I + i sin(theta) X_qubit.

    Mixes each amplitude with its bit-flipped partner:
    amp_i' = cos(theta) amp_i + i sin(theta) amp_{i xor 2^qubit}.
    """
    m = psi.register.total_qubits
    if not 0 <= qubit < m:
        raise IndexOutOfRange(f"qubit {qubit} outside [0, {m})")
    amps = np.empty(psi.register.dimension, dtype=np.complex128)
    _flip(psi.amplitudes, amps, qubit, theta)
    return StateVector._adopt(psi.register, amps)
