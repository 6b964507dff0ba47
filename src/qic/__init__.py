"""Seeded state-vector simulator of interference-based search.

Invalid basis components are phase-marked and cancelled against an
unmarked copy of the state, exposing the solutions of a boolean
predicate; solutions are enumerated by repeated exclusion, and
checksum-violating components created by noise are removed the same way.

``import qic`` imports no submodule: each name below is loaded from its
submodule on first access (PEP 562), so ``python -m qic`` pays for numpy
only once its ``__main__`` imports the CLI.
"""

import importlib

_EXPORTS = {
    "errors": ("IndexOutOfRange", "NormCollapse", "ParseError", "QicError",
               "RegisterMismatch", "SchemeInvalid", "UnboundVariable"),
    "state": ("PhaseMask", "Register", "StateVector", "apply_partial_bit_flip",
              "apply_phase_mask", "basis_state", "fidelity", "norm_squared",
              "probability", "sample", "uniform_superposition"),
    "predicate": ("BoolExpr", "CnfFormula", "Predicate", "compile_mask",
                  "evaluate", "parse_dimacs", "parse_expr", "with_exclusions"),
    "interference": ("InterferenceConfig", "interfere_repeated"),
    "enumeration": ("EnumerationReport", "RunConfig", "RunRecord",
                    "Termination", "enumerate_solutions", "verify"),
    "ecc": ("ChecksumScheme", "EccReport", "NoiseModel", "checksum_predicate",
            "checksum_valid_mass", "correct", "ecc_experiment", "encode",
            "inject_noise", "parse_scheme"),
}
_MODULE_OF = {name: module
              for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later reads skip this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
