"""Seeded state-vector simulator of interference-based search.

Invalid basis components are phase-marked and cancelled against an
unmarked copy of the state, exposing the solutions of a boolean
predicate; solutions are enumerated by repeated exclusion, and
checksum-violating components created by noise are removed the same way.
"""

from .errors import (
    IndexOutOfRange,
    NormCollapse,
    ParseError,
    QicError,
    RegisterMismatch,
    SchemeInvalid,
    UnboundVariable,
)
from .state import (
    PhaseMask,
    Register,
    StateVector,
    apply_partial_bit_flip,
    apply_phase_mask,
    basis_state,
    fidelity,
    norm_squared,
    probability,
    sample,
    uniform_superposition,
)
from .predicate import (
    BoolExpr,
    CnfFormula,
    Predicate,
    compile_mask,
    evaluate,
    parse_dimacs,
    parse_expr,
    with_exclusions,
)
from .interference import (
    InterferenceConfig,
    interfere_repeated,
)
from .enumeration import (
    EnumerationReport,
    RunConfig,
    RunRecord,
    Termination,
    enumerate_solutions,
    verify,
)
from .ecc import (
    ChecksumScheme,
    EccReport,
    NoiseModel,
    checksum_predicate,
    checksum_valid_mass,
    correct,
    ecc_experiment,
    encode,
    inject_noise,
    parse_scheme,
)

__version__ = "0.1.0"
