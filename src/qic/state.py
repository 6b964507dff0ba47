"""Amplitude vectors over qubit registers and their core transforms.

Bit convention, used everywhere: basis index ``i`` spells the qubits in
binary with qubit 0 as the least significant bit.  Bitstrings render most
significant qubit first, so index 1 on a 3-qubit register is ``"001"``.
Checksum qubits, when present, occupy the high indices ``n .. m-1``.

All public transforms are pure: the input state is never mutated and
outputs own fresh amplitude arrays.  Two private kernels may write over
their source instead: ``_flip``, so that a chain of noise events runs in
one owned buffer, and ``_interfere`` given ``out``, so that correction
runs in that same buffer and a sweep's pass chains share one.

A state may hold its aligned blocks privately, each an array or a *fill*
scalar that every amplitude of the block equals.  This module alone knows
that format, so it also owns the interference pass kernel ``_interfere``.
The uniform state is all fill, and the kernel keeps a flag-free fill block
a scalar, so an enumeration run over a sparse solution set stores, squares
and scans only the blocks that hold a solution.  ``amplitudes``
materialises the dense array on first access.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NormCollapse, RegisterMismatch

# The one size limit: every command compiles 2^m dense valid flags.
MAX_QUBITS = 26

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

    def indices(self, values) -> frozenset:
        """``values`` as a frozenset of ints, each a basis index.

        Raises IndexOutOfRange unless every one lies in [0, 2^m); only the
        smallest and largest are tested.
        """
        found = frozenset(map(int, values))
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
    """2^m amplitudes over a register, with a normalized flag.

    Amplitudes are float64 for real input and complex128 for complex input;
    the transforms give a real state the same bits in either dtype.
    """

    __slots__ = ("register", "normalized", "_dense", "_parts")

    def __init__(self, register: Register, amplitudes, normalized: bool = False):
        arr = np.asarray(amplitudes)
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        arr = np.array(arr, dtype=dtype)
        if arr.shape != (register.dimension,):
            raise ValueError(
                f"expected {register.dimension} amplitudes, got {arr.shape}"
            )
        arr.flags.writeable = False
        self.register = register
        self.normalized = normalized
        self._dense = arr
        # For a state built in blocks: (block, array or float64 fill) pairs.
        self._parts = None

    @classmethod
    def _adopt(cls, register: Register, amps: np.ndarray,
               normalized: bool) -> "StateVector":
        """Wrap 2^m float64 or complex128 amplitudes that no caller writes
        through: no copy, no checks."""
        amps.flags.writeable = False
        psi = cls._of_parts(register, None, normalized)
        psi._dense = amps
        return psi

    @classmethod
    def _of_parts(cls, register: Register, parts: list,
                  normalized: bool) -> "StateVector":
        """Wrap read-only block parts that no caller holds: no checks."""
        psi = cls.__new__(cls)
        psi.register = register
        psi.normalized = normalized
        psi._dense = None
        psi._parts = parts
        return psi

    @property
    def amplitudes(self) -> np.ndarray:
        """The 2^m amplitudes, read-only; built on first access."""
        if self._dense is None:
            self._dense = _materialise(self._parts, self.register.dimension)
        return self._dense

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
        flags[list(register.indices(indices))] = True
        return cls._adopt(register, flags)

    def valid_indices(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.valid)]


def uniform_superposition(register: Register) -> StateVector:
    """Equal-amplitude state: every component is 2^(-m/2).

    Every block is a fill, so the state allocates no amplitude array.
    """
    dim = register.dimension
    fill = 1.0 / np.sqrt(dim)
    return StateVector._of_parts(register, [(block, fill)
                                            for block in _blocks(dim)],
                                 normalized=True)


def basis_state(register: Register, index: int) -> StateVector:
    """The single basis component |index>."""
    amps = np.zeros(register.dimension)
    amps[register.index(index)] = 1.0
    return StateVector._adopt(register, amps, normalized=True)


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


def _parts(psi: StateVector) -> list:
    """psi's aligned blocks, each paired with an array or a fill scalar."""
    if psi._parts is not None:
        return psi._parts
    amps = psi._dense
    return [(block, amps[block]) for block in _blocks(len(amps))]


def _is_fill(part) -> bool:
    return not isinstance(part, np.ndarray)


def _materialise(parts: list, dim: int) -> np.ndarray:
    """The read-only dense array of block parts.

    One fill throughout becomes a zero-stride view, which allocates nothing.
    """
    fill = parts[0][1]
    if all(_is_fill(part) and part.tobytes() == fill.tobytes()
           for _, part in parts):
        return np.broadcast_to(fill, dim)
    dtypes = {part.dtype for _, part in parts if not _is_fill(part)}
    amps = np.empty(dim, dtype=np.result_type(np.float64, *dtypes))
    for block, part in parts:
        amps[block] = part
    amps.flags.writeable = False
    return amps


def _mass(amps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|amps|^2 into the float64 array ``out``, which is returned."""
    if amps.dtype == np.float64:
        # Equal to squaring np.abs(amps), bit for bit.
        return np.square(amps, out=out)
    np.abs(amps, out=out)
    return np.square(out, out=out)


def _pairwise(sums: list) -> float:
    """Combine a power-of-two count of block sums as np.sum's tree does."""
    while len(sums) > 1:
        sums = [left + right for left, right in zip(sums[::2], sums[1::2])]
    return float(sums[0])


def _block_mass(part, scratch: np.ndarray, fill_sums: dict):
    """np.sum of |part|^2 in the block-sized float64 ``scratch``.

    A fill's sum is taken once per value and kept in ``fill_sums``.
    """
    if not _is_fill(part):
        return np.sum(_mass(part, scratch))
    if part not in fill_sums:
        scratch.fill(part * part)
        fill_sums[part] = np.sum(scratch)
    return fill_sums[part]


def norm_squared(psi: StateVector) -> float:
    # np.sum of |amp|^2, bit for bit, in block-sized scratch.
    parts = _parts(psi)
    scratch = np.empty(parts[0][0].stop)
    fill_sums = {}
    return _pairwise([_block_mass(part, scratch, fill_sums)
                      for _, part in parts])


def _gather_abs(psi: StateVector, flags: np.ndarray) -> np.ndarray:
    """``np.abs(psi.amplitudes[flags])``, gathered block by block into one
    float64 array; a fill block contributes its scalar."""
    out = np.empty(np.count_nonzero(flags))
    start = 0
    for block, part in _parts(psi):
        chosen = flags[block]
        stop = start + np.count_nonzero(chosen)
        if _is_fill(part):
            out[start:stop] = abs(part)
        else:
            np.abs(part[chosen], out=out[start:stop])
        start = stop
    return out


def _interfere(psi: StateVector, valid: np.ndarray, leakage: float,
               passes: int, tol: float, out: np.ndarray | None = None
               ) -> StateVector:
    """``passes`` interference passes against 2^m bool ``valid`` flags.

    Each pass scales valid amplitudes by 2 - leakage and invalid ones by
    leakage and renormalises (NormCollapse below ``tol``), with the rounding
    steps of whole-array passes: times the weight, then per later pass
    times the previous 1/sqrt(surviving) and the weight; the last factor
    comes once the last surviving mass is known.  A flag-free fill block
    stays a scalar through the same steps; every other block is a row of
    one owned buffer, the output's dense array if no block stayed a scalar.

    When no block stays a scalar, ``out`` may name a writable, contiguous
    2^m array of the output's dtype to serve as that buffer, even psi's own
    memory: each element is read before it is written.  Whatever else views
    ``out`` is then overwritten.
    """
    parts = _parts(psi)
    step = parts[0][0].stop
    scalar = [_is_fill(part) and not valid[block].any()
              for block, part in parts]
    dtypes = {part.dtype for _, part in parts if not _is_fill(part)}
    dtype = np.result_type(np.float64, *dtypes)
    if out is None:
        buf = np.empty((scalar.count(False), step), dtype=dtype)
    else:
        if (any(scalar) or out.dtype != dtype
                or out.shape != (psi.register.dimension,)):
            raise ValueError("out must be 2^m amplitudes of the output's "
                             "dtype, for an input that keeps no scalar block")
        buf = out.reshape(-1, step)
    rows = iter(buf)
    segs = [part if keep else next(rows)
            for (_, part), keep in zip(parts, scalar)]
    weights, mass = np.empty(step), np.empty(step)
    # Indexed by a flag: leakage for invalid, 2 - leakage for valid.
    levels = np.array([leakage, 2.0 - leakage])
    scale = None
    for _ in range(passes):
        sums, fill_sums = [], {}
        for i, (block, part) in enumerate(parts):
            seg = segs[i]
            if _is_fill(seg):
                seg = segs[i] = (seg if scale is None
                                 else seg * scale) * levels[0]
            else:
                if scale is not None:
                    seg *= scale
                levels.take(valid[block].view(np.uint8), out=weights,
                            mode="clip")
                np.multiply(part if scale is None else seg, weights, out=seg)
            sums.append(_block_mass(seg, mass, fill_sums))
        surviving = _pairwise(sums)
        if surviving < tol:
            raise NormCollapse(surviving, tol)
        # As numpy's complex / real does, up to the sign of a zero amplitude.
        scale = 1.0 / np.sqrt(surviving)
    buf *= scale
    buf.flags.writeable = False
    if not any(scalar):
        return StateVector._adopt(psi.register, buf.reshape(-1),
                                  normalized=True)
    rows = iter(buf)
    return StateVector._of_parts(
        psi.register, [(block, seg * scale if keep else next(rows))
                       for (block, _), seg, keep in zip(parts, segs, scalar)],
        normalized=True)


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
    n2 = norm_squared(psi)
    if n2 < tol:
        raise NormCollapse(n2, tol)
    # As numpy's complex / real does, up to the sign of a zero amplitude.
    amps = psi.amplitudes * (1.0 / np.sqrt(n2))
    return StateVector._adopt(psi.register, amps, normalized=True)


def probability(psi: StateVector, index: int) -> float:
    index = psi.register.index(index)
    parts = _parts(psi)
    block, part = parts[index // parts[0][0].stop]
    value = part if _is_fill(part) else part[index - block.start]
    return float(abs(value) ** 2)


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
    order), so identical seeds give identical indices.  The returned
    index always has nonzero probability.
    """
    check_tolerance(tol)
    parts = _parts(psi)
    total = None
    if not psi.normalized:
        total = norm_squared(psi)
        if total < tol:
            raise NormCollapse(total, tol)
    # Slot 0 carries the running sum into the block, so np.cumsum, which
    # adds strictly in order, continues the whole state's running sum.
    step = parts[0][0].stop
    scan = np.empty(step + 1)

    def fill_mass(fill) -> float:
        w = fill * fill
        return w if total is None else w / total

    def running_sum(part, carry: float) -> float:
        scan[0] = carry
        if _is_fill(part):
            scan[1:] = fill_mass(part)
        else:
            _mass(part, scan[1:])
            if total is not None:
                scan[1:] /= total
        np.cumsum(scan, out=scan)
        return float(scan[-1])

    # Only the running sum into each block and at the end is kept; a fill
    # block's end comes in closed form unless it ties.
    ends = [0.0]
    for _, part in parts:
        end = (_constant_run_end(ends[-1], fill_mass(part), step)
               if _is_fill(part) else None)
        ends.append(running_sum(part, ends[-1]) if end is None else end)
    if not ends[-1] > 0:
        raise NormCollapse(ends[-1], tol)
    # Scaling by the rounded total keeps u below ends[-1], so the first
    # entry above u ends a step of nonzero probability.
    u = rng.random() * ends[-1]
    b = bisect.bisect_right(ends, u) - 1
    block, part = parts[b]
    if b < len(parts) - 1 or _is_fill(part):  # else the scan holds it
        running_sum(part, ends[b])
    return block.start + int(np.searchsorted(scan[1:], u, side="right"))


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
    return StateVector._adopt(psi.register, amps, normalized=psi.normalized)


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
    return StateVector._adopt(psi.register, amps, normalized=psi.normalized)
