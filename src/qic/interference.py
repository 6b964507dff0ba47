"""Two-arm interference: cancel invalid components, amplify solutions.

One copy of the state is phase-marked (invalid components negated) and
summed with an unmarked copy.  Valid components add up while invalid ones
cancel.  Imperfect cancellation is modeled by a single leakage scalar
``epsilon``: the marked arm enters the sum with weight ``1 - epsilon``, so
each valid component scales by ``2 - epsilon`` and each invalid one by
``epsilon`` before renormalization.  At ``epsilon = 0`` the operation is an
exact projection onto the valid set.  The pass kernel itself is
``qic.state._interfere``, beside the two-level state form it keeps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

from .errors import QicError
from .predicate import Predicate, compile_mask
from .state import (
    DEFAULT_COLLAPSE_TOL,
    StateVector,
    _constant_sum,
    _interfere,
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
        object.__setattr__(self, "passes", operator.index(self.passes))
        if not 0.0 <= self.leakage < 1.0:
            raise ValueError(f"leakage must be in [0, 1), got {self.leakage}")
        if self.passes < 1:
            raise ValueError(f"passes must be >= 1, got {self.passes}")
        check_tolerance(self.collapse_tol, "collapse_tol")


def interfere_repeated(psi: StateVector, pred: Predicate,
                       cfg: InterferenceConfig = InterferenceConfig()
                       ) -> StateVector:
    """Apply ``cfg.passes`` interference passes, renormalizing after each;
    NormCollapse if a surviving squared mass is below ``cfg.collapse_tol``."""
    mask = compile_mask(pred, psi.register)
    return _interfere(psi, mask, cfg.leakage, cfg.passes, cfg.collapse_tol)


SWEEP_COLUMNS = ("epsilon", "passes", "predicted_ratio", "measured_ratio",
                 "abs_error")


def remnant_sweep(pred: Predicate, epsilons, passes,
                  collapse_tol: float = DEFAULT_COLLAPSE_TOL) -> list[list]:
    """One row of SWEEP_COLUMNS per (epsilon, passes), epsilon-major: the
    closed form (epsilon / (2 - epsilon))^passes and the measured mean
    invalid / mean valid magnitude from the uniform state (0.0 if all valid).

    Per epsilon, the distinct pass counts run as one chain of passes, which
    gives the bits of a separate multi-pass call for each.  Every state of
    a chain is two-level, so each mean is that of a constant run: np.mean's
    bits come from ``_constant_sum`` over the flag counts, which the mask's
    block form gives, and no magnitude is gathered.
    """
    mask = compile_mask(pred, pred.register)
    n_valid = mask._count()
    if not n_valid:
        raise QicError("predicate has no valid components; ratio undefined")
    n_invalid = pred.register.dimension - n_valid
    passes = list(passes)
    rows = []
    for eps in epsilons:
        # Every cell's config, checked in the caller's order.
        cfgs = {r: InterferenceConfig(eps, r, collapse_tol) for r in passes}
        psi, done, measured = uniform_superposition(pred.register), 0, {}
        for r in sorted(cfgs):
            psi = _interfere(psi, mask, eps, r - done, collapse_tol)
            done = r
            invalid, valid_mag = np.abs(psi._values)
            measured[r] = 0.0 if not n_invalid else float(
                _constant_sum(invalid, n_invalid) / n_invalid
                / (_constant_sum(valid_mag, n_valid) / n_valid))
        for r in passes:
            predicted = (eps / (2.0 - eps)) ** r
            rows.append([eps, r, predicted, measured[r],
                         abs(measured[r] - predicted)])
    return rows
