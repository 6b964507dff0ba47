"""Two-arm interference: cancel invalid components, amplify solutions.

One copy of the state is phase-marked (invalid components negated) and
summed with an unmarked copy.  Valid components add up while invalid ones
cancel.  Imperfect cancellation is modeled by a single leakage scalar
``epsilon``: the marked arm enters the sum with weight ``1 - epsilon``, so
each valid component scales by ``2 - epsilon`` and each invalid one by
``epsilon`` before renormalization.  At ``epsilon = 0`` the operation is an
exact projection onto the valid set.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import NormCollapse, QicError
from .predicate import Predicate, compile_mask
from .state import (
    DEFAULT_COLLAPSE_TOL,
    StateVector,
    _block_mass,
    _is_fill,
    _pairwise,
    _parts,
    apply_phase_mask,
    check_tolerance,
    uniform_superposition,
)

import numpy as np


@dataclass(frozen=True)
class InterferenceConfig:
    """Leakage epsilon in [0, 1), pass count >= 1, norm-collapse tolerance."""

    leakage: float = 0.0
    passes: int = 1
    collapse_tol: float = DEFAULT_COLLAPSE_TOL

    def __post_init__(self):
        if not 0.0 <= self.leakage < 1.0:
            raise ValueError(f"leakage must be in [0, 1), got {self.leakage}")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        check_tolerance(self.collapse_tol, "collapse_tol")


def mark_invalid(psi: StateVector, pred: Predicate) -> StateVector:
    """Negate the amplitude of every component the predicate rejects."""
    return apply_phase_mask(psi, compile_mask(pred, psi.register))


def _interfere(psi: StateVector, pred: Predicate, cfg: InterferenceConfig,
               passes: int) -> StateVector:
    """Run ``passes`` passes, a block at a time.

    Per amplitude the rounding steps are those of whole-array passes:
    times the weight, then, in each later pass, times the previous pass's
    1/sqrt(surviving) and times the weight again; the last pass's factor
    is applied once the last surviving mass is known.  A fill block with
    no valid flag stays a scalar through the same steps; every other block
    is a row of one owned buffer, which for a dense input is the dense
    output.
    """
    valid = compile_mask(pred, psi.register).valid
    parts = _parts(psi)
    step = parts[0][0].stop
    flagged = [bool(valid[block].any()) for block, _ in parts]
    scalar = [_is_fill(part) and not has_flags
              for (_, part), has_flags in zip(parts, flagged)]
    if psi._parts is None:
        out = np.empty_like(psi._dense)
        rows = out.reshape(-1, step)
    else:
        out = None
        dtypes = {part.dtype for _, part in parts if not _is_fill(part)}
        rows = np.empty((scalar.count(False), step),
                        dtype=np.result_type(np.float64, *dtypes))
    rows = iter(rows)
    segs = [part if keep else next(rows)
            for (_, part), keep in zip(parts, scalar)]
    weights = np.empty(step)
    mass = np.empty(step)
    # Indexed by a flag: epsilon for invalid, 2 - epsilon for valid.
    levels = np.array([cfg.leakage, 2.0 - cfg.leakage])
    scale = None
    for _ in range(passes):
        sums, fill_sums = [], {}
        for i, ((block, part), has_flags) in enumerate(zip(parts, flagged)):
            seg = segs[i]
            if scale is None:
                source = part
            elif _is_fill(seg):
                source = seg * scale
            else:
                seg *= scale
                source = seg
            if has_flags:
                levels.take(valid[block].view(np.uint8), out=weights,
                            mode="clip")
                np.multiply(source, weights, out=seg)
            elif _is_fill(seg):
                seg = segs[i] = source * levels[0]
            else:
                # Solutions are rare: most blocks need no weights array.
                np.multiply(source, levels[0], out=seg)
            sums.append(_block_mass(seg, mass, fill_sums))
        surviving = _pairwise(sums)
        if surviving < cfg.collapse_tol:
            raise NormCollapse(surviving, cfg.collapse_tol)
        # As numpy's complex / real does, up to the sign of a zero amplitude.
        scale = 1.0 / np.sqrt(surviving)
    for i, seg in enumerate(segs):
        if _is_fill(seg):
            segs[i] = seg * scale
        else:
            seg *= scale
            seg.flags.writeable = False
    if out is not None:
        return StateVector(psi.register, out, normalized=True, copy=False)
    return StateVector._of_parts(
        psi.register, [(block, seg) for (block, _), seg in zip(parts, segs)],
        normalized=True)


def interfere(psi: StateVector, pred: Predicate,
              cfg: InterferenceConfig = InterferenceConfig()) -> StateVector:
    """One interference pass: mark, overlap the arms, renormalize.

    Runs exactly one pass whatever ``cfg.passes`` says.  Raises NormCollapse
    when the surviving squared mass falls below ``cfg.collapse_tol`` (with
    perfect cancellation this means the predicate has no valid support in
    ``psi``).
    """
    return _interfere(psi, pred, cfg, 1)


def interfere_repeated(psi: StateVector, pred: Predicate,
                       cfg: InterferenceConfig = InterferenceConfig()
                       ) -> StateVector:
    """Apply ``cfg.passes`` interference passes, renormalizing after each."""
    return _interfere(psi, pred, cfg, cfg.passes)


SWEEP_COLUMNS = ("epsilon", "passes", "predicted_ratio", "measured_ratio",
                 "abs_error")


def remnant_sweep(pred: Predicate, epsilons, passes,
                  collapse_tol: float = DEFAULT_COLLAPSE_TOL) -> list[list]:
    """One row of SWEEP_COLUMNS per (epsilon, passes), epsilon-major: the
    closed form (epsilon / (2 - epsilon))^passes and the measured mean
    invalid / mean valid magnitude from the uniform state (0.0 if all valid).

    Per epsilon, the distinct pass counts run as one chain of passes, which
    gives the bits of a separate multi-pass call for each.
    """
    valid = compile_mask(pred, pred.register).valid
    if not valid.any():
        raise QicError("predicate has no valid components; ratio undefined")
    all_valid = bool(valid.all())
    passes = list(passes)
    rows = []
    for eps in epsilons:
        # Every cell's config, checked in the caller's order.
        cfgs = {r: InterferenceConfig(eps, r, collapse_tol) for r in passes}
        psi, done, measured = uniform_superposition(pred.register), 0, {}
        for r in sorted(cfgs):
            psi = _interfere(psi, pred, cfgs[r], r - done)
            done = r
            amps = psi.amplitudes
            measured[r] = 0.0 if all_valid else float(
                np.mean(np.abs(amps[~valid])) / np.mean(np.abs(amps[valid])))
        for r in passes:
            predicted = (eps / (2.0 - eps)) ** r
            rows.append([eps, r, predicted, measured[r],
                         abs(measured[r] - predicted)])
    return rows
