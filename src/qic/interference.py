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

from .errors import NormCollapse
from .predicate import Predicate, compile_mask
from .state import (
    DEFAULT_COLLAPSE_TOL,
    StateVector,
    apply_phase_mask,
    check_tolerance,
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
    """Run ``passes`` passes in one owned output and one |out|^2 scratch."""
    # The mask is freed as soon as the weights exist.
    weights = np.where(compile_mask(pred, psi.register).valid,
                       2.0 - cfg.leakage, cfg.leakage)
    out = psi.amplitudes * weights
    probs = np.empty(out.shape)
    for done in range(passes):
        if done:
            out *= weights
        np.abs(out, out=probs)
        np.square(probs, out=probs)
        surviving = float(np.sum(probs))
        if surviving < cfg.collapse_tol:
            raise NormCollapse(surviving, cfg.collapse_tol)
        # As numpy's complex / real does, up to the sign of a zero amplitude.
        out *= 1.0 / np.sqrt(surviving)
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
