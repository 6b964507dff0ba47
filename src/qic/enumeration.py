"""Iterative solution enumeration with exclusion of found solutions.

Each run interferes the uniform superposition against the predicate
extended with all solutions found so far, and measures once; ``qic.state``
keeps such a run's state as its flags and two values, free of 2^m arrays.
A verified new solution is recorded and excluded from later runs; the
loop ends when the state cancels completely (Exhausted), when a remnant
or an already-found solution is measured, or at the run cap.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from enum import Enum

import numpy as np

from .errors import NormCollapse, RegisterMismatch
from .interference import InterferenceConfig, interfere_repeated
from .predicate import Predicate, evaluate, with_exclusions
from .state import Register, check_seed, sample, uniform_superposition


class Termination(str, Enum):
    EXHAUSTED = "Exhausted"
    REMNANT_MEASURED = "RemnantMeasured"
    REPEAT_MEASURED = "RepeatMeasured"
    MAX_RUNS_REACHED = "MaxRunsReached"


@dataclass(frozen=True)
class RunConfig:
    """Seed, interference parameters, and the unconditional run cap.

    ``max_runs`` of None resolves to 2^m + 8 for the register in use.
    """

    seed: int
    interference: InterferenceConfig = field(default_factory=InterferenceConfig)
    max_runs: int | None = None

    def __post_init__(self):
        check_seed(self.seed)
        if self.max_runs is not None and self.max_runs < 1:
            raise ValueError(f"max_runs must be >= 1, got {self.max_runs}")


@dataclass(frozen=True)
class RunRecord:
    """One prepared-interfered-measured cycle.

    ``measured`` is None when the state collapsed before measurement.
    """

    run: int
    measured: str | None
    verified: bool
    new: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class EnumerationReport:
    found: tuple[str, ...]
    runs: tuple[RunRecord, ...]
    termination: Termination
    config: dict

    def to_dict(self) -> dict:
        return {"found": list(self.found),
                "runs": [r.to_dict() for r in self.runs],
                "termination": self.termination.value,
                "config": dict(self.config)}


def verify(pred: Predicate, index: int) -> bool:
    """Classical check of the predicate, exclusions included."""
    return evaluate(pred, index)


def enumerate_solutions(pred: Predicate, register: Register,
                        cfg: RunConfig) -> EnumerationReport:
    """Run the interfere-measure-verify-exclude loop to completion."""
    if pred.register != register:
        raise RegisterMismatch(
            f"predicate bound to {pred.register}, enumeration over {register}"
        )
    max_runs = cfg.max_runs if cfg.max_runs is not None else register.dimension + 8
    rng = np.random.default_rng(cfg.seed)

    found: dict[int, None] = {}  # insertion-ordered, so repeats test in O(1)
    records: list[RunRecord] = []
    termination = Termination.MAX_RUNS_REACHED
    for run in range(1, max_runs + 1):
        working = with_exclusions(pred, found)
        try:
            psi = interfere_repeated(uniform_superposition(register), working,
                                     cfg.interference)
        except NormCollapse:
            records.append(RunRecord(run, None, False, False))
            termination = Termination.EXHAUSTED
            break
        index = sample(psi, rng)
        del psi  # a two-level state holds this run's flags
        is_solution = verify(pred, index)
        is_new = is_solution and index not in found
        records.append(
            RunRecord(run, register.bitstring(index), is_solution, is_new)
        )
        if is_new:
            found[index] = None
            continue
        termination = (Termination.REPEAT_MEASURED if is_solution
                       else Termination.REMNANT_MEASURED)
        break

    config_echo = {
        "seed": cfg.seed,
        "epsilon": cfg.interference.leakage,
        "passes": cfg.interference.passes,
        "collapse_tol": cfg.interference.collapse_tol,
        "max_runs": max_runs,
    }
    return EnumerationReport(
        found=tuple(register.bitstring(i) for i in found),
        runs=tuple(records),
        termination=termination,
        config=config_echo,
    )
