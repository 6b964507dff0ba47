"""Iterative solution enumeration with exclusion of found solutions.

The predicate is compiled once per enumeration.  Each run interferes the
uniform superposition, prepared once too, against that mask less every
solution found so far, and measures once; ``qic.state`` keeps such a run's
state as its mask and two values, free of 2^m arrays.
A verified new solution is recorded and excluded from later runs by
clearing its flag on a copy of the mask, which copies only its block; the
loop ends when the state cancels completely (Exhausted), when a remnant
or an already-found solution is measured, or at the run cap.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from enum import Enum

from .errors import NormCollapse, RegisterMismatch
from .interference import InterferenceConfig, interfere_repeated
from .predicate import Predicate, compile_mask, evaluate
# Not called here since runs clear found solutions on the compiled mask, but
# perfbench's ``predicate.exclude`` span wraps this name on this module.
from .predicate import with_exclusions  # noqa: F401
from .state import (Register, _Stream, check_seed, sample,
                    uniform_superposition)


# A solve reads its state per pass and to sample in each of at most (valid
# count + 1) runs, with fixed costs of 2^11 reads per read and 2^16 per run.
MAX_SOLVE_READS = 1 << 28


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
        object.__setattr__(self, "seed", check_seed(self.seed))
        if self.max_runs is not None:
            object.__setattr__(self, "max_runs", operator.index(self.max_runs))
            if self.max_runs < 1:
                raise ValueError(f"max_runs must be >= 1, got {self.max_runs}")


@dataclass(frozen=True)
class RunRecord:
    """One prepared-interfered-measured cycle; its field names, in order,
    are the ``solve --format csv`` header.

    ``measured`` is None when the state collapsed before measurement.
    """

    run: int
    measured: str | None
    verified: bool
    new: bool


@dataclass(frozen=True)
class EnumerationReport:
    """A ``solve`` report's results are its asdict, fields in this order."""

    found: tuple[str, ...]
    runs: tuple[RunRecord, ...]
    termination: Termination
    config: dict


def verify(pred: Predicate, index: int) -> bool:
    """Classical check of the predicate, its own exclusions included: the
    caller's predicate, not one less the solutions an enumeration found."""
    return evaluate(pred, index)


def enumerate_solutions(pred: Predicate, register: Register,
                        cfg: RunConfig) -> EnumerationReport:
    """Run the interfere-measure-verify-exclude loop to completion."""
    if pred.register != register:
        raise RegisterMismatch(
            f"predicate bound to {pred.register}, enumeration over {register}"
        )
    max_runs = cfg.max_runs if cfg.max_runs is not None else register.dimension + 8
    # A run finds a new solution or ends the loop: bound the work up front.
    mask = compile_mask(pred, register)
    runs = min(max_runs, mask._count() + 1)
    reads = runs * ((cfg.interference.passes + 1) * (mask._reads() + 2**11)
                    + 2**16)
    if reads > MAX_SOLVE_READS:
        raise ValueError(
            f"solve could read {reads} indices over {runs} runs, above the "
            f"limit of {MAX_SOLVE_READS}; lower --max-runs or --passes")
    rng = _Stream(cfg.seed)  # np.random.default_rng(cfg.seed)'s draws

    found: dict[int, None] = {}  # insertion-ordered, so repeats test in O(1)
    records: list[RunRecord] = []
    termination = Termination.MAX_RUNS_REACHED
    uniform = uniform_superposition(register)  # states are immutable
    for run in range(1, max_runs + 1):
        try:
            psi = interfere_repeated(uniform, mask, cfg.interference)
        except NormCollapse:
            records.append(RunRecord(run, None, False, False))
            termination = Termination.EXHAUSTED
            break
        index = sample(psi, rng)
        del psi  # a two-level state holds this run's mask
        is_solution = verify(pred, index)
        is_new = is_solution and index not in found
        records.append(
            RunRecord(run, register.bitstring(index), is_solution, is_new)
        )
        if is_new:
            found[index] = None
            mask = mask._cleared((index,))  # copies index's block only
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
