"""Amplitude vectors over qubit registers and their core transforms.

Bit convention, used everywhere: basis index ``i`` spells the qubits in
binary with qubit 0 as the least significant bit.  Bitstrings render most
significant qubit first, so index 1 on a 3-qubit register is ``"001"``.
Checksum qubits, when present, occupy the high indices ``n .. m-1``.

Every transform of a state, public or private, is pure: the input state
is never mutated and the output owns a fresh table.

A state is a read-only float64 or complex128 table ``_values`` read
through labels ``_labels``: amplitude i is ``_values[_labels._label(i)]``.
A label source also gives, by ``_block(b, step)``, block b's labels as an
array XOR a constant, or as the run of the table that the block reads.
``Classes(columns)``, one int per qubit, labels an index by its class,
the XOR of the columns of its set bits.  Over the identity columns
(``_identity``: 1, 2, 4, ...) index i is its own class, so the table is
the 2^m complex128 amplitudes: the *dense* state that
``StateVector(register, amplitudes)`` builds.  ``qic.ecc.encode`` builds
uniform data over the scheme's columns (a class is then a syndrome), so
ecc's noise, correction, masses and overlaps run on 2^k values.  A
compiled ``PhaseMask`` labels an index by its flag, so a table over it is
the *two-level* form that interference from the uniform state keeps: an
enumeration or sweep state holds no 2^m array.  Privately a mask is a
*block form*: per aligned block, whether its flags are all unset, all set
or mixed, and the flags of the mixed blocks only.  None labels every index
0: the uniform state.  A partial flip maps class c onto c ^ column, so one
routine (``_flips``) flips every class form, the dense one included.  One
gather (``_gather``) reads a block of any table, and each operation takes
the dense steps, in the same order, on the table, so the bits are those of
the dense state.  Beside ``qic.ecc.encode``, ``qic.predicate`` (masks) and
``qic.interference.remnant_sweep`` (two-level values), only this module
reads the forms: its kernels, one walk (``_masses``) under the squared
norm and ``sample``, and a blocked overlap that calls no BLAS.
"""

from __future__ import annotations

import bisect
import functools
import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import IndexOutOfRange, NormCollapse, RegisterMismatch

# The one size limit: a dense state holds 2^m amplitudes, and a mask whose
# blocks all mix, each in its own pattern, holds 2^m flags.
MAX_QUBITS = 26

# Guards accumulated rounding only; perfect cancellation yields exact zeros.
DEFAULT_COLLAPSE_TOL = 1e-9


@dataclass(frozen=True)
class Register:
    """An m-qubit register; checksum qubits, if any, are its high ones."""

    total_qubits: int

    def __post_init__(self):
        object.__setattr__(self, "total_qubits", operator.index(self.total_qubits))
        if self.total_qubits < 1:
            raise ValueError(f"total_qubits must be >= 1, got {self.total_qubits}")
        if self.total_qubits > MAX_QUBITS:
            raise ValueError(
                f"register of {self.total_qubits} qubits exceeds the "
                f"{MAX_QUBITS}-qubit cap")

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
    """2^m complex128 amplitudes over a register, copied from the input."""

    __slots__ = ("register", "_labels", "_values")

    def __init__(self, register: Register, amplitudes):
        arr = np.array(amplitudes, dtype=np.complex128)
        if arr.shape != (register.dimension,):
            raise ValueError(
                f"expected {register.dimension} amplitudes, got {arr.shape}"
            )
        arr.flags.writeable = False
        self.register, self._labels, self._values = (
            register, _identity(register.total_qubits), arr)

    @classmethod
    def _table(cls, register: Register, labels: PhaseMask | Classes | None,
               values: np.ndarray) -> "StateVector":
        """A state whose amplitude i is ``values[labels._label(i)]``, or
        ``values[0]`` (of two) for None labels: no copy, no checks, and
        ``values``, which no caller writes through, made read-only."""
        values.flags.writeable = False
        psi = cls.__new__(cls)
        psi.register, psi._labels, psi._values = register, labels, values
        return psi

    @classmethod
    def _adopt(cls, register: Register, amps: np.ndarray) -> "StateVector":
        """A dense state of 2^m complex128 amplitudes: ``_table`` over the
        identity columns."""
        return cls._table(register, _identity(register.total_qubits), amps)

    @property
    def amplitudes(self) -> np.ndarray:
        """The 2^m complex128 amplitudes, read-only: a dense state's own
        table, not copied; the uniform state's as a zero-stride view; any
        other table form's built afresh, block by block, on each read."""
        dim, values = self.register.dimension, self._values
        if self._labels is None:
            return np.broadcast_to(np.complex128(values[0]), dim)
        if (self._labels == _identity(self.register.total_qubits)
                and values.shape == (dim,) and values.dtype == np.complex128):
            return values
        amps = _expand(self)
        amps.flags.writeable = False
        return amps

    def __repr__(self):
        return f"StateVector(m={self.register.total_qubits})"


class PhaseMask:
    """Sign pattern over basis indices: +1 on valid components, -1 elsewhere.

    ``valid`` is a dense read-only boolean array of 2^m flags, built on its
    first read.  Privately a mask is its block form: per aligned block of
    ``_step`` indices, ``_kinds`` holds 0 if none of its flags is set, 1 if
    all are, else 2, and ``_mixed`` maps each block of kind 2 to its
    read-only flags.  A mask is never changed once built.
    """

    __slots__ = ("register", "_step", "_kinds", "_mixed", "_valid")

    def __init__(self, register: Register, valid):
        flags = np.array(valid, dtype=bool)
        if flags.shape != (register.dimension,):
            raise ValueError(
                f"expected {register.dimension} flags, got {flags.shape}"
            )
        flags.flags.writeable = False
        step = _block_length(register.dimension)
        kinds, mixed = bytearray(register.dimension // step), {}
        for b, row in enumerate(flags.reshape(-1, step)):
            _put(kinds, mixed, b, row)
        self.register, self._step, self._kinds, self._mixed, self._valid = (
            register, step, bytes(kinds), mixed, flags)

    @classmethod
    def _from_blocks(cls, register: Register, step: int, kinds: bytearray,
                     mixed: dict) -> "PhaseMask":
        """Wrap a block form that ``_put`` filled: no copy, no checks."""
        mask = cls.__new__(cls)
        mask.register, mask._step, mask._kinds, mask._mixed = (
            register, step, bytes(kinds), mixed)
        mask._valid = None
        return mask

    @classmethod
    def from_indices(cls, register: Register, indices) -> "PhaseMask":
        step = _block_length(register.dimension)
        kinds, mixed = bytearray(register.dimension // step), {}
        for b, offsets in _by_block(register.indices(indices), step):
            flags = np.zeros(step, dtype=bool)
            flags[offsets] = True
            _put(kinds, mixed, b, flags)
        return cls._from_blocks(register, step, kinds, mixed)

    @property
    def valid(self) -> np.ndarray:
        if self._valid is None:
            flags = np.zeros(self.register.dimension, dtype=bool)
            rows = flags.reshape(-1, self._step)
            for b, kind in enumerate(self._kinds):
                if kind:
                    rows[b] = self._mixed[b] if kind == 2 else True
            flags.flags.writeable = False
            self._valid = flags
        return self._valid

    def _cleared(self, indices) -> "PhaseMask":
        """This mask with the flags at the distinct ``indices`` unset; only
        the blocks that hold a set one are copied, the rest are shared."""
        kinds, mixed = bytearray(self._kinds), dict(self._mixed)
        for b, offsets in _by_block(indices, self._step):
            if kinds[b]:
                flags = (mixed[b].copy() if kinds[b] == 2
                         else np.ones(self._step, dtype=bool))
                flags[offsets] = False
                _put(kinds, mixed, b, flags)
        return PhaseMask._from_blocks(self.register, self._step, kinds, mixed)

    def _count(self) -> int:
        """The number of valid flags."""
        return sum(int(np.count_nonzero(self._mixed[b])) if kind == 2
                   else kind * self._step
                   for b, kind in enumerate(self._kinds))

    def _reads(self) -> int:
        """The most indices a pass reads over this mask less exclusions: a
        block with a valid flag in full, any other as one value."""
        held = len(self._kinds) - self._kinds.count(0)
        return held * self._step + len(self._kinds) - held

    def _label(self, index: int) -> int:
        """The flag of basis index ``index``, as 0 or 1."""
        b, offset = divmod(index, self._step)
        kind = self._kinds[b]
        return kind if kind < 2 else int(self._mixed[b][offset])

    def _block(self, b: int, step: int) -> tuple[np.ndarray | None, int]:
        """(block b's flags, 0) if it is mixed, else (None, its kind)."""
        kind = self._kinds[b]
        return (self._mixed[b], 0) if kind == 2 else (None, kind)


@dataclass(frozen=True)
class Classes:
    """Labels by class: the class of basis index i is the XOR of the
    ``columns`` (one int per qubit) of i's set bits."""

    columns: tuple[int, ...]

    def _label(self, index: int) -> int:
        return functools.reduce(operator.xor, (
            c for q, c in enumerate(self.columns) if index >> q & 1), 0)

    def _block(self, b: int, step: int) -> tuple[np.ndarray | None, object]:
        """(the classes of block b's low bits, its first index's class), or
        (None, the slice of classes the block holds) when those low bits
        are the identity and the first class a multiple of ``step``."""
        first, low = self._label(b * step), step.bit_length() - 1
        if not first % step and self.columns[:low] == _identity(low).columns:
            return None, slice(first, first + step)
        return _base_labels(self.columns, step), first


@functools.lru_cache
def _identity(m: int) -> Classes:
    """The identity columns on m qubits: index i is its own class, so a
    table over them is the dense state."""
    return Classes(tuple(1 << q for q in range(m)))


def _put(kinds: bytearray, mixed: dict, b: int, flags: np.ndarray) -> None:
    """Record bool ``flags`` as block b of a block form: its kind, and the
    flags themselves, made read-only, only if the block is mixed."""
    count = np.count_nonzero(flags)
    mixed.pop(b, None)
    if 0 < count < len(flags):
        flags.flags.writeable = False
        kinds[b], mixed[b] = 2, flags
    else:
        kinds[b] = int(count > 0)


def _by_block(indices, step: int):
    """Yield (block, offsets in the block) for distinct int ``indices``,
    grouped by aligned block of ``step``, blocks ascending."""
    found = np.sort(np.fromiter(indices, np.int64, len(indices)))
    cuts = np.flatnonzero(np.diff(found // step)) + 1
    for group in np.split(found, cuts) if len(found) else ():
        b = int(group[0]) // step
        yield b, group - b * step


def uniform_superposition(register: Register) -> StateVector:
    """Equal-amplitude state: every component is 2^(-m/2).

    A table form without labels, so it allocates no amplitude array.
    """
    dim = register.dimension
    return StateVector._table(register, None, np.full(2, 1.0 / np.sqrt(dim)))


def basis_state(register: Register, index: int) -> StateVector:
    """The single basis component |index>."""
    amps = np.zeros(register.dimension, np.complex128)
    amps[register.index(index)] = 1.0
    return StateVector._adopt(register, amps)


# Full-state reductions walk aligned blocks of _BLOCK amplitudes with
# block-sized scratch, never a 2^m temporary.  np.sum over a contiguous
# float64 array is pairwise with 128-element leaves and halves 2^k elements
# exactly, so _pairwise over the np.sums of aligned power-of-two blocks of
# at least 128 elements gives np.sum's bits for the whole array.
_BLOCK = 1 << 16


def _block_length(dim: int) -> int:
    """The length of the aligned blocks of ``dim`` (a power of two)."""
    return min(_BLOCK, dim)


def _step(psi: StateVector) -> int:
    """psi's block length; a two-level state's is that of its mask."""
    if isinstance(psi._labels, PhaseMask):
        return psi._labels._step
    return _block_length(psi.register.dimension)


@functools.lru_cache(maxsize=8)
def _base_labels(columns: tuple[int, ...], step: int) -> np.ndarray:
    """The classes of indices 0 .. step-1 (a power of two) as intp, by
    doubling: the indices with top bit q are those below 2^q plus q.
    Never written, but left writeable: np.take copies read-only indices."""
    labels = np.zeros(step, np.intp)
    for q in range(step.bit_length() - 1):
        np.bitwise_xor(labels[:1 << q], columns[q], out=labels[1 << q:2 << q])
    return labels


def _mass(amps: np.ndarray, out: np.ndarray) -> np.ndarray:
    """|amps|^2 into the float64 array ``out``, which is returned."""
    return np.square(np.abs(amps, out=out), out=out)


def _select(flags: np.ndarray, pair: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write ``pair[flags]`` (bool flags, two float64 values) into float64
    ``out`` and return it, bit for bit: on the words, flag * (a ^ b) ^ a."""
    words, bits = pair.view(np.uint64), out.view(np.uint64)
    np.multiply(flags.view(np.uint8), words[:1] ^ words[1:], out=bits)
    np.bitwise_xor(bits, words[:1], out=bits)
    return out


def _gather(table: np.ndarray, labels: PhaseMask | Classes | None, b: int,
            out: np.ndarray):
    """``table``'s entries for block b of ``len(out)`` indices: one entry
    for a block of one label, a view for a run of labels, else written
    into ``out``, the labels being an array XOR a constant: bool flags (a
    float64 pair) through ``_select``, intp labels through ``np.take`` from
    the table permuted by the constant, or for a table longer than a
    block, with the constant XORed into the labels."""
    array, constant = labels._block(b, len(out)) if labels else (None, 0)
    if array is None:
        return table[constant]
    if array.dtype == bool:
        return _select(array, table, out)
    if len(table) > len(out):
        array = array ^ constant
    elif constant:
        table = table[np.arange(len(table)) ^ constant]
    return np.take(table, array, out=out, mode="clip")


def _expand(psi: StateVector) -> np.ndarray:
    """A table form's amplitudes as a fresh 2^m complex128 array, written
    block by block (real values get imaginary parts of +0.0)."""
    out, step = np.empty(psi.register.dimension, np.complex128), _step(psi)
    buf = np.empty(step, psi._values.dtype)
    for b, lo in enumerate(range(0, len(out), step)):
        out[lo:lo + step] = _gather(psi._values, psi._labels, b, buf)
    return out


def _masses(psi: StateVector, buf: np.ndarray, start: int = 0):
    """Yield |amp|^2 of psi's aligned blocks from block ``start`` on: a
    float64 for a block of one value, else an array of the block's length.
    A table no longer than a block is squared once and gathered from; a
    longer one is gathered a block at a time (a view for a run) and
    squared into ``buf``, block-sized float64 owned by the caller."""
    step, table = len(buf), psi._values
    blocks = range(start, psi.register.dimension // step)
    if len(table) <= step:
        squares = _mass(table, np.empty(len(table)))
        for b in blocks:
            yield _gather(squares, psi._labels, b, buf)
        return
    scratch = np.empty(step, table.dtype)
    for b in blocks:
        yield _mass(_gather(table, psi._labels, b, scratch), buf)


def _pairwise(sums: list) -> float:
    """Combine a power-of-two count of block sums as np.sum's tree does."""
    while len(sums) > 1:
        sums = [left + right for left, right in zip(sums[::2], sums[1::2])]
    return float(sums[0])


def _total(blocks, step: int) -> float:
    """np.sum over aligned blocks of ``step`` entries, bit for bit: each
    block an array, or a value that the whole block holds."""
    return _pairwise([np.sum(block) if isinstance(block, np.ndarray)
                      else _constant_sum(block, step) for block in blocks])


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
    return _total(_masses(psi, buf), len(buf))


def _gather_abs(psi: StateVector, mask: PhaseMask) -> np.ndarray:
    """``np.abs(psi.amplitudes[mask.valid])`` as one float64 array,
    gathered block by block; a block with no valid flag is not read."""
    out, step = np.empty(mask._count()), mask._step
    buf, start = np.empty(step, psi._values.dtype), 0
    for b, kind in enumerate(mask._kinds):
        if kind:
            amps = np.broadcast_to(_gather(psi._values, psi._labels, b, buf),
                                   step)
            if kind == 2:
                amps = amps[mask._mixed[b]]
            np.abs(amps, out=out[start:start + len(amps)])
            start += len(amps)
    return out


def _scale(surviving: float, tol: float):
    """The factor that renormalises ``surviving`` >= ``tol`` mass."""
    if surviving < tol:
        raise NormCollapse(surviving, tol)
    # As numpy's complex / real does, up to the sign of a zero amplitude.
    return 1.0 / np.sqrt(surviving)


def _table_passes(psi: StateVector, labels, weights: np.ndarray,
                  passes: int, tol: float) -> StateVector:
    """``_interfere``'s passes on psi's table, each entry times its
    ``weights`` entry: a table form read through ``labels``."""
    form = functools.partial(StateVector._table, psi.register, labels)
    values, scale = psi._values, None
    for _ in range(passes):
        values = (values if scale is None else values * scale) * weights
        scale = _scale(norm_squared(form(values)), tol)
    return form(values * scale)


def _interfere(psi: StateVector, mask: PhaseMask, leakage: float,
               passes: int, tol: float) -> StateVector:
    """``passes`` interference passes against ``mask``'s valid flags.

    Each pass scales valid amplitudes by 2 - leakage and invalid ones by
    leakage and renormalises (NormCollapse below ``tol``), with the rounding
    steps of whole-array passes: times the weight, then per later pass
    times the previous 1/sqrt(surviving) and the weight; the last factor
    comes once the last surviving mass is known.

    From the uniform state, or a two-level state over this very mask, the
    passes run on the two values and return a two-level state over it.  Any
    other input is read block by block (a view of a dense one) and passed
    into one fresh dense table.  Pure: ``psi`` is not changed.
    """
    # Indexed by a flag: leakage for invalid, 2 - leakage for valid.
    levels = np.array([leakage, 2.0 - leakage])
    if psi._labels is None or psi._labels is mask:
        return _table_passes(psi, mask, levels, passes, tol)
    dim = psi.register.dimension
    step = _block_length(dim)
    out = np.empty(dim, np.complex128)
    weights, mass, buf, scale = (np.empty(step), np.empty(step),
                                 np.empty(step, psi._values.dtype), None)
    for _ in range(passes):
        sums = []
        for b, lo in enumerate(range(0, dim, step)):
            row = out[lo:lo + step]
            src = (_gather(psi._values, psi._labels, b, buf)
                   if scale is None else np.multiply(row, scale, out=row))
            np.multiply(src, _gather(levels, mask, b, weights), out=row)
            sums.append(np.sum(_mass(row, mass)))
        scale = _scale(_pairwise(sums), tol)
    out *= scale
    return StateVector._adopt(psi.register, out)


def _interfere_classes(psi: StateVector, valid: np.ndarray, leakage: float,
                       passes: int, tol: float) -> StateVector:
    """``_interfere`` of a class-form ``psi`` against the 2^m flags that
    are ``valid[c]`` on the indices of class c, run on its table: the
    result is a class form, with the bits of the dense passes."""
    weights = _select(valid, np.array([leakage, 2.0 - leakage]),
                      np.empty(len(valid)))
    return _table_passes(psi, psi._labels, weights, passes, tol)


def _over_classes(psi: StateVector, classes: Classes) -> bool:
    """Whether psi is a class form over ``classes``."""
    return psi._labels == classes


def _class_mass(psi: StateVector, count: int) -> float:
    """The squared mass of a class form's class 0 of ``count`` indices,
    whose amplitudes are equal: np.sum's bits, in closed form."""
    return float(_constant_sum(np.square(np.abs(psi._values[:1]))[0], count))


def _constant_value(psi: StateVector) -> float | None:
    """The one value of a state built constant (the uniform state), or
    None for any other state."""
    return None if psi._labels is not None else psi._values[0]


def check_tolerance(tol: float, name: str = "tol") -> None:
    """Reject a norm-collapse tolerance that is not a finite number > 0."""
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError(f"{name} must be a finite number > 0, got {tol}")


def check_seed(seed: int) -> int:
    """``seed`` as an int in [0, 2^64), the range every run accepts."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit integer, got {seed}")
    return seed


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


class _Stream:
    """``np.random.default_rng(seed)`` for the two draws qic makes,
    ``random()`` and ``integers(0, h)`` with 1 <= h <= 2^32, bit for bit,
    without importing ``numpy.random``.

    The seed goes through numpy's ``SeedSequence`` hash into a PCG64
    XSL-RR generator (O'Neill 2014).  ``random()`` is the top 53 bits of
    one 64-bit output; ``integers`` is Lemire's (2019) multiply-and-reject
    draw on 32-bit halves, the low half of an output first and its high
    half kept for the next 32-bit draw, across ``random()`` calls too, as
    numpy's ``has_uint32`` buffer does.  ``seed`` is a checked seed
    (``check_seed``): at most two 32-bit words, so no word is left over
    after the four-word pool.
    """

    __slots__ = ("_state", "_inc", "_half")

    def __init__(self, seed: int):
        hash_a = 0x43B0D7E5

        def hashmix(value: int) -> int:
            nonlocal hash_a
            value ^= hash_a
            hash_a = hash_a * 0x931E8875 & _M32
            value = value * hash_a & _M32
            return value ^ value >> 16

        def mix(x: int, y: int) -> int:
            r = 0xCA01F9DD * x - 0x4973F715 * y & _M32
            return r ^ r >> 16

        words = [seed & _M32, seed >> 32] if seed >> 32 else [seed]
        pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
        for src in range(4):
            for dst in range(4):
                if src != dst:
                    pool[dst] = mix(pool[dst], hashmix(pool[src]))
        hash_b, out = 0x8B51F9DD, []
        for i in range(8):  # generate_state(4, np.uint64)
            value = pool[i % 4] ^ hash_b
            hash_b = hash_b * 0x58F38DED & _M32
            value = value * hash_b & _M32
            out.append(value ^ value >> 16)
        s0, s1, i0, i1 = (out[k] | out[k + 1] << 32 for k in range(0, 8, 2))
        # pcg64_set_seed: from state 0, step, add the seed, step.
        self._inc = ((i0 << 64 | i1) << 1 | 1) & _M128
        self._state = ((self._inc + (s0 << 64 | s1)) * _PCG_MULT
                       + self._inc) & _M128
        self._half = None

    def _next64(self) -> int:
        self._state = state = (self._state * _PCG_MULT + self._inc) & _M128
        x, rot = (state >> 64 ^ state) & _M64, state >> 122
        return (x >> rot | x << (64 - rot)) & _M64

    def _next32(self) -> int:
        half, self._half = self._half, None
        if half is None:
            x = self._next64()
            half, self._half = x & _M32, x >> 32
        return half

    def random(self) -> float:
        return (self._next64() >> 11) * 2.0**-53

    def integers(self, low: int, high: int) -> int:
        if low != 0 or not 1 <= high <= 1 << 32:
            raise ValueError(f"integers(0, h) needs 1 <= h <= 2^32, "
                             f"got ({low}, {high})")
        if high == 1:
            return 0  # numpy draws nothing for a one-value range
        threshold = (1 << 32) % high
        m = self._next32() * high
        while m & _M32 < threshold:
            m = self._next32() * high
        return m >> 32


def probability(psi: StateVector, index: int) -> float:
    index = psi.register.index(index)
    label = 0 if psi._labels is None else psi._labels._label(index)
    return float(abs(psi._values[label]) ** 2)


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


def sample(psi: StateVector, rng: _Stream | np.random.Generator,
           tol: float = DEFAULT_COLLAPSE_TOL) -> int:
    """Draw one basis index with probability |amp_i|^2.

    ``rng`` is any generator whose ``random()`` returns a float in
    [0, 1): the enumeration's seeded stream or a numpy Generator.
    Consumes exactly one ``random()`` draw; the outcome is a pure
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
    is ``mass``: ``scan[1:]`` itself, another array, or a value the whole
    block holds, whose end comes in closed form unless it ties or
    ``closed`` is false.  Else ``scan`` is left holding the run."""
    if not isinstance(mass, np.ndarray):
        end = _constant_run_end(carry, mass, len(scan) - 1) if closed else None
        if end is not None:
            return end
    if mass.base is not scan:  # a value, or a view of a table's squares
        scan[1:] = mass
    # Slot 0 carries the running sum into the block, so np.cumsum, which
    # adds strictly in order, continues the whole state's running sum.
    scan[0] = carry
    np.cumsum(scan, out=scan)
    return float(scan[-1])


def _parts(amps: np.ndarray):
    """Block amplitudes as float64 (real, imaginary) parts; a real block's
    imaginary part is None."""
    if np.iscomplexobj(amps):
        return amps.real, amps.imag
    return amps, None


def _sum_of_products(terms, out: np.ndarray, tmp: np.ndarray,
                     total=np.sum) -> float:
    """np.sum over a block of the products x*y of the (sign, x, y) terms,
    each added (sign 1) or subtracted (-1) in order, as separate float64
    ufunc steps in scratch ``out`` and ``tmp``.  A term with a None factor
    is zero and is left out; that moves at most the sign of a zero, as
    does negating the sum of a lone subtracted term.  ``total`` may
    replace np.sum: a table form's per-label products are summed as the
    whole state's."""
    terms = [(sign, x, y) for sign, x, y in terms
             if x is not None and y is not None]
    if not terms:
        return 0.0
    (sign, x, y), *rest = terms
    np.multiply(x, y, out=out)
    for more, x, y in rest:
        (np.add if more > 0 else np.subtract)(out, np.multiply(x, y, out=tmp),
                                              out=out)
    total = total(out)
    return total if sign > 0 else -total


def _overlap(x: np.ndarray, y: np.ndarray, out: np.ndarray, tmp: np.ndarray,
             total=np.sum) -> tuple[float, float]:
    """The overlap's real part, sum(x_r y_r + x_i y_i), and imaginary part,
    sum(x_r y_i - x_i y_r), by ``_sum_of_products``."""
    (xr, xi), (yr, yi) = _parts(x), _parts(y)
    return (_sum_of_products([(1, xr, yr), (1, xi, yi)], out, tmp, total),
            _sum_of_products([(1, xr, yi), (-1, xi, yr)], out, tmp, total))


def fidelity(psi: StateVector, phi: StateVector) -> float:
    """|<psi|phi>|^2 for two normalized states on the same register.

    The overlap's real part, sum(x_r y_r + x_i y_i), and imaginary part,
    sum(x_r y_i - x_i y_r), for psi's x and phi's y, are np.sums of float64
    products over aligned blocks, combined as np.sum's tree does: the bits
    of whole-array np.sums on any CPU and BLAS.  No complex multiply, which
    numpy may fuse into multiply-adds.  A state is read a block at a time
    (a dense one as views) and never made dense; the zero imaginary terms
    of real values are skipped, which leaves the result's bits unchanged.
    Two states over the same labels and tables of one length, at most a
    block, take each product once per label and sum each block of them
    gathered (or, for a block of one label, in closed form).
    """
    if psi.register != phi.register:
        raise RegisterMismatch(
            f"registers differ: {psi.register} vs {phi.register}"
        )
    step = _step(psi)
    blocks = range(psi.register.dimension // step)
    if (psi._labels == phi._labels
            and len(psi._values) == len(phi._values) <= step):
        size, buf = len(psi._values), np.empty(step)

        def total(products):
            return _total((_gather(products, psi._labels, b, buf)
                           for b in blocks), step)
        real, imag = _overlap(psi._values, phi._values, np.empty(size),
                              np.empty(size), total)
    else:
        xbuf, ybuf, out, tmp = (np.empty(step, psi._values.dtype),
                                np.empty(step, phi._values.dtype),
                                np.empty(step), np.empty(step))
        parts = [_overlap(_gather(psi._values, psi._labels, b, xbuf),
                          _gather(phi._values, phi._labels, b, ybuf), out, tmp)
                 for b in blocks]
        real, imag = (_pairwise(list(sums)) for sums in zip(*parts))
    return float(abs(complex(real, imag)) ** 2)


def apply_phase_mask(psi: StateVector, mask: PhaseMask) -> StateVector:
    """Flip the sign of every component outside the mask's valid set."""
    if psi.register != mask.register:
        raise RegisterMismatch(
            f"registers differ: {psi.register} vs {mask.register}"
        )
    amps = psi.amplitudes
    return StateVector._adopt(psi.register, np.where(mask.valid, amps, -amps))


def _flips(src: np.ndarray, out: np.ndarray, columns, theta: float) -> None:
    """Partial flips of the complex128 table ``src`` into complex128
    ``out``, which may be ``src``: per column, in order, entry x maps to
    cos(theta) x + i sin(theta) (entry x ^ column).

    Each flip takes the whole-array expression's three ufunc steps (i sin
    times the partner, times cos, add), so the bits are those of chained
    single flips.  A column with top bit 2^t views the table as rows of two
    halves of 2^t entries: entry j of a first half pairs with entry j ^ low
    of the second, low being the column's lower bits (none for a dense
    qubit).  Each piece of the walk holds both halves of every pair it
    touches, a whole number of rows or one column range, of a quarter block
    (wider if low is), so it permutes partners only inside itself.  A zero
    column pairs each entry with itself.  No columns copy ``src``.
    """
    if not columns:
        np.copyto(out, src)
        return
    c, s = np.cos(theta), 1j * np.sin(theta)
    size = min(_BLOCK // 4, len(src))
    for column in columns:
        top = 1 << column.bit_length() >> 1  # 0 for a zero column
        half, low = max(top, 1), column ^ top
        width = min(half, max(size // 2, 1 << low.bit_length()))
        b = np.empty(max(size, 2 * width), np.complex128).reshape(-1, 2, width)
        x, y = src.reshape(-1, 2, half), out.reshape(-1, 2, half)
        for row in range(0, len(x), len(b)):
            for col in range(0, half, width):
                piece = np.s_[row:row + len(b), :, col:col + width]
                xp, yp = x[piece], y[piece]
                partners = xp[:, ::-1] if top else xp
                if low:
                    partners = partners[:, :, np.arange(width) ^ low]
                np.multiply(s, partners[:, 0], out=b[:, 0])
                np.multiply(s, partners[:, 1], out=b[:, 1])
                np.multiply(c, xp, out=yp)
                np.add(yp, b, out=yp)
        src = out  # a later flip continues from this one's result


def apply_partial_bit_flip(psi: StateVector, qubit,
                           theta: float) -> StateVector:
    """Apply the unitary cos(theta) I + i sin(theta) X_qubit.

    Mixes each amplitude with its bit-flipped partner:
    amp_i' = cos(theta) amp_i + i sin(theta) amp_{i xor 2^qubit}.
    ``qubit`` may also be a sequence of qubits, flipped one at a time in
    that order by one ``_flips`` call, with the bits of chained single
    calls; an empty sequence gives a copy.  Every qubit must be an integer
    in range and theta finite; both are checked before anything is
    allocated.  A class form, dense or not, stays one: a flip on qubit q
    maps class c onto c ^ columns[q], so ``_flips`` runs on its table, at
    O(2^k) for 2^k classes.  The uniform state and a two-level form are
    written block by block into the fresh dense output and flipped there.
    """
    m = psi.register.total_qubits
    qubits = list(map(operator.index, qubit if np.ndim(qubit) else [qubit]))
    for q in qubits:
        if not 0 <= q < m:
            raise IndexOutOfRange(f"qubit {q} outside [0, {m})")
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta}")
    labels = (psi._labels if isinstance(psi._labels, Classes)
              else _identity(m))
    src = (psi._values.astype(np.complex128, copy=False)
           if labels is psi._labels else _expand(psi))
    # A table of psi's is read-only; a fresh one is flipped in place.
    out = src if src.flags.writeable else np.empty_like(src)
    _flips(src, out, [labels.columns[q] for q in qubits], theta)
    return StateVector._table(psi.register, labels, out)
