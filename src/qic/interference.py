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
    _blocks,
    _mass,
    _pairwise,
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
    """Run ``passes`` passes into one owned output, a block at a time.

    Per amplitude the rounding steps are those of whole-array passes:
    times the weight, then, in each later pass, times the previous pass's
    1/sqrt(surviving) and times the weight again; the last pass's factor
    is applied once the last surviving mass is known.
    """
    valid = compile_mask(pred, psi.register).valid
    amps = psi.amplitudes
    out = np.empty_like(amps)
    blocks = _blocks(len(amps))
    weights = np.empty(blocks[0].stop)
    mass = np.empty(blocks[0].stop)
    # Indexed by a flag: epsilon for invalid, 2 - epsilon for valid.
    levels = np.array([cfg.leakage, 2.0 - cfg.leakage])
    scale = None
    for _ in range(passes):
        sums = []
        for block in blocks:
            seg = out[block]
            if scale is None:
                source = amps[block]
            else:
                seg *= scale
                source = seg
            flags = valid[block]
            if flags.any():
                levels.take(flags.view(np.uint8), out=weights, mode="clip")
                np.multiply(source, weights, out=seg)
            else:
                # Solutions are rare: most blocks need no weights array.
                np.multiply(source, levels[0], out=seg)
            sums.append(np.sum(_mass(seg, mass)))
        surviving = _pairwise(sums)
        if surviving < cfg.collapse_tol:
            raise NormCollapse(surviving, cfg.collapse_tol)
        # As numpy's complex / real does, up to the sign of a zero amplitude.
        scale = 1.0 / np.sqrt(surviving)
    out *= scale
    return StateVector(psi.register, out, normalized=True, copy=False)


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
    """
    valid = compile_mask(pred, pred.register).valid
    if not valid.any():
        raise QicError("predicate has no valid components; ratio undefined")
    all_valid = bool(valid.all())
    uniform = uniform_superposition(pred.register)
    rows = []
    for eps in epsilons:
        for r in passes:
            cfg = InterferenceConfig(eps, r, collapse_tol)
            mags = np.abs(interfere_repeated(uniform, pred, cfg).amplitudes)
            measured = 0.0 if all_valid else float(
                np.mean(mags[~valid]) / np.mean(mags[valid]))
            predicted = (eps / (2.0 - eps)) ** r
            rows.append([eps, r, predicted, measured,
                         abs(measured - predicted)])
    return rows
