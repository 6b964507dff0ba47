"""Command-line interface, started by ``qic.__main__.run``.

Subcommands: ``demo`` (the 3-qubit worked example), ``solve`` (solution
enumeration for a predicate), ``sweep`` (leakage-law grid), ``ecc``
(checksum noise-removal experiment).

Exit codes: 0 success, 1 usage error or out of memory, 2 input parse
error, 3 numerical failure.  Identical invocations (including --seed)
produce byte-identical output; measured wall time is only ever printed to
stderr via --timing.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import asdict, astuple, fields
from pathlib import Path

from .ecc import EccReport, NoiseModel, ecc_experiment, parse_scheme
from .enumeration import RunConfig, RunRecord, enumerate_solutions
from .errors import (
    IndexOutOfRange,
    ParseError,
    QicError,
    SchemeInvalid,
    UnboundVariable,
)
from .interference import InterferenceConfig, interfere_repeated
from .interference import SWEEP_COLUMNS, remnant_sweep
from .predicate import Predicate, parse_dimacs, parse_expr, parse_int
from .reports import envelope, format_float, render_csv, render_json
from .state import (DEFAULT_COLLAPSE_TOL, Register, probability,
                    uniform_superposition)

DEMO_QUBITS = 3
DEMO_VALID = (1, 3)
# Sweep grids run one interference per cell; cap the points per axis, every
# pass or noise-event count, and a sweep's total passes likewise.
MAX_RANGE_POINTS = 10_000


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # Usage errors exit 1 (argparse default of 2 is reserved for
        # input parse errors here).
        self.exit(1, f"{self.prog}: error: {message}\n")


def _add_interference_flags(parser, epsilon_as_range=False):
    if epsilon_as_range:
        parser.add_argument("--epsilon", required=True,
                            help="leakage range start:end:step (inclusive)")
        parser.add_argument("--passes", default="1",
                            help="pass-count range start:end:step (inclusive)")
    else:
        parser.add_argument("--epsilon", type=float, default=0.0,
                            help="cancellation leakage in [0, 1) (default 0)")
        parser.add_argument("--passes", type=int, default=1,
                            help="interference passes per preparation (default 1)")
    parser.add_argument("--collapse-tol", type=float,
                        default=DEFAULT_COLLAPSE_TOL,
                        help="norm-collapse threshold on squared mass")


def _add_output_flags(parser, formats, default_format):
    parser.add_argument("--format", choices=formats, default=default_format,
                        help=f"output format (default {default_format})")
    parser.add_argument("--output", metavar="PATH",
                        help="write the report to PATH instead of stdout")
    parser.add_argument("--timing", action="store_true",
                        help="print measured wall time to stderr")


def _add_source_flags(parser):
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--expr", help="boolean expression over b0..b<m-1>")
    group.add_argument("--cnf", metavar="PATH", help="DIMACS CNF file")
    group.add_argument("--valid", type=_index_list, metavar="I,J,...",
                       help="explicit comma-separated valid basis indices")


def _index_list(text: str) -> list[int]:
    try:
        return [parse_int(part) for part in text.split(",")]
    except ParseError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers, got {text!r}"
        ) from None


def parse_range(text: str) -> list[float]:
    """Parse start[:end[:step]] into inclusive grid values."""
    parts = text.split(":")
    if len(parts) > 3:
        raise ValueError(f"malformed range {text!r}: too many ':' fields")
    try:
        numbers = [float(part) for part in parts]
    except ValueError:
        raise ValueError(f"malformed range {text!r}") from None
    if not all(math.isfinite(x) for x in numbers):
        raise ValueError(f"range {text!r} must contain finite numbers")
    if len(numbers) == 1:
        return numbers
    start, end = numbers[0], numbers[1]
    step = numbers[2] if len(numbers) == 3 else 1.0
    if step <= 0:
        raise ValueError(f"range step must be > 0, got {step}")
    if end < start - 1e-12:
        raise ValueError(f"empty range {text!r}")
    if (end + 1e-12 - start) / step >= MAX_RANGE_POINTS:
        raise ValueError(
            f"range {text!r} exceeds {MAX_RANGE_POINTS} points"
        )
    values = []
    k = 0
    while True:
        value = start + k * step
        if value > end + 1e-12:
            break
        values.append(value)
        k += 1
    return values


def _count(name: str, value: int) -> int:
    """The pass or event count ``value``, refused above MAX_RANGE_POINTS."""
    if value > MAX_RANGE_POINTS:
        raise ValueError(f"{name} {value} exceeds the limit of "
                         f"{MAX_RANGE_POINTS}")
    return value


def _int_range(text: str) -> list[int]:
    values = []
    for value in parse_range(text):
        rounded = round(value)
        if abs(value - rounded) > 1e-9 or rounded < 1:
            raise ValueError(f"range {text!r} must contain integers >= 1")
        values.append(_count("--passes", int(rounded)))
    return values


def _interference_config(args) -> InterferenceConfig:
    return InterferenceConfig(args.epsilon, _count("--passes", args.passes),
                              args.collapse_tol)


def _build_predicate(args, register: Register) -> tuple[Predicate, dict]:
    if args.expr is not None:
        source = parse_expr(args.expr)
        config = {"kind": "expr", "text": args.expr}
    elif args.cnf is not None:
        # One character per byte, so parse offsets count bytes.
        source = parse_dimacs(Path(args.cnf).read_bytes().decode("latin-1"))
        config = {"kind": "cnf", "path": args.cnf}
    else:
        source = frozenset(args.valid)
        config = {"kind": "valid", "indices": sorted(set(args.valid))}
    return Predicate(source, register), config


def _distribution(register: Register, pred: Predicate,
                  cfg: InterferenceConfig) -> dict[str, float]:
    psi = interfere_repeated(uniform_superposition(register), pred, cfg)
    return {register.bitstring(i): probability(psi, i)
            for i in range(register.dimension)}


# ---------------------------------------------------------------------------
# Subcommand handlers (each returns the rendered report text)


def _run_demo(args) -> str:
    register = Register(DEMO_QUBITS)
    pred = Predicate(frozenset(DEMO_VALID), register)
    icfg = _interference_config(args)
    distribution = _distribution(register, pred, icfg)
    report = enumerate_solutions(pred, register,
                                 RunConfig(seed=args.seed, interference=icfg))
    config = {
        "qubits": DEMO_QUBITS,
        "valid": list(DEMO_VALID),
        "epsilon": args.epsilon,
        "passes": args.passes,
        "collapse_tol": args.collapse_tol,
        "seed": args.seed,
    }
    if args.format == "json":
        doc = envelope("demo", config, {
            "distribution": distribution,
            "enumeration": asdict(report),
        })
        return render_json(doc)

    valid_strings = ", ".join(register.bitstring(i) for i in DEMO_VALID)
    lines = [
        f"post-interference distribution (qubits={DEMO_QUBITS}, "
        f"valid={{{valid_strings}}}, epsilon={format_float(args.epsilon)}, "
        f"passes={args.passes})"
    ]
    for bits, prob in distribution.items():
        lines.append(f"  P({bits}) = {format_float(prob)}")
    lines.append("")
    lines.append(f"enumeration trace (seed={args.seed})")
    for record in report.runs:
        if record.measured is None:
            lines.append(f"  run {record.run}: state collapsed, "
                         "no components remain")
        else:
            kind = "solution" if record.verified else "remnant"
            novelty = ", new" if record.new else ""
            lines.append(
                f"  run {record.run}: measured {record.measured} "
                f"-> {kind}{novelty}"
            )
    lines.append(f"found solutions: {', '.join(report.found) or '(none)'}")
    lines.append(f"termination: {report.termination.value}")
    return "\n".join(lines) + "\n"


def _run_solve(args) -> str:
    register = Register(args.qubits)
    pred, source_config = _build_predicate(args, register)
    icfg = _interference_config(args)
    run_cfg = RunConfig(seed=args.seed, interference=icfg,
                        max_runs=args.max_runs)
    report = enumerate_solutions(pred, register, run_cfg)
    if args.format == "csv":
        return render_csv([f.name for f in fields(RunRecord)],
                          [astuple(r) for r in report.runs])
    config = {"qubits": args.qubits, "source": source_config,
              **report.config}
    return render_json(envelope("solve", config, asdict(report)))


def _run_sweep(args) -> str:
    register = Register(args.qubits)
    pred, source_config = _build_predicate(args, register)
    epsilons, passes = parse_range(args.epsilon), _int_range(args.passes)
    # One chain of max(passes) passes per epsilon, at most one row per pass.
    _count("--epsilon values x largest --passes", len(epsilons) * max(passes))
    rows = remnant_sweep(pred, epsilons, passes, args.collapse_tol)
    if args.format == "json":
        config = {"qubits": args.qubits, "source": source_config,
                  "epsilon": args.epsilon, "passes": args.passes,
                  "collapse_tol": args.collapse_tol}
        return render_json(envelope("sweep", config, {
            "rows": [dict(zip(SWEEP_COLUMNS, row)) for row in rows],
        }))
    return render_csv(list(SWEEP_COLUMNS), rows)


def _run_ecc(args) -> str:
    _count("--events", args.events)
    scheme = parse_scheme(args.parity, args.data_qubits)
    model = NoiseModel(events=args.events, theta=args.theta)
    icfg = _interference_config(args)
    report = ecc_experiment(scheme, model, icfg, args.seed)
    if args.format == "csv":
        return render_csv(["metric", "value"],
                          [[f.name, getattr(report, f.name)]
                           for f in fields(EccReport)
                           if f.name not in ("events", "config")])
    config = {"parity": args.parity, **report.config}
    return render_json(envelope("ecc", config, asdict(report)))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="qic",
        description="Deterministic state-vector simulator of "
                    "interference-based search with checksum error removal.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="run the 3-qubit worked example")
    _add_interference_flags(demo)
    demo.add_argument("--seed", type=int, default=42)
    _add_output_flags(demo, ["text", "json"], "text")
    demo.set_defaults(handler=_run_demo)

    solve = sub.add_parser("solve", help="enumerate all solutions of a predicate")
    solve.add_argument("--qubits", type=int, required=True,
                       help="register size m")
    _add_source_flags(solve)
    _add_interference_flags(solve)
    solve.add_argument("--seed", type=int, default=42)
    solve.add_argument("--max-runs", type=int, default=None,
                       help="run cap (default 2^m + 8)")
    _add_output_flags(solve, ["json", "csv"], "json")
    solve.set_defaults(handler=_run_solve)

    sweep = sub.add_parser("sweep",
                           help="measure leakage ratios over an epsilon/passes grid")
    sweep.add_argument("--qubits", type=int, required=True)
    _add_source_flags(sweep)
    _add_interference_flags(sweep, epsilon_as_range=True)
    _add_output_flags(sweep, ["csv", "json"], "csv")
    sweep.set_defaults(handler=_run_sweep)

    ecc = sub.add_parser("ecc", help="run a checksum noise-removal experiment")
    ecc.add_argument("--data-qubits", type=int, required=True)
    ecc.add_argument("--parity", default="global",
                     help='checksum scheme: "global" or "groups:0,1;2,3"')
    ecc.add_argument("--theta", type=float, default=0.5,
                     help="partial-flip angle per event in (0, pi/2]")
    ecc.add_argument("--events", type=int, default=1,
                     help="number of noise events")
    _add_interference_flags(ecc)
    ecc.add_argument("--seed", type=int, default=42)
    _add_output_flags(ecc, ["json", "csv"], "json")
    ecc.set_defaults(handler=_run_ecc)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)

    start = time.perf_counter()
    try:
        text = args.handler(args)
        elapsed_ms = (time.perf_counter() - start) * 1e3
        if args.output is not None:
            Path(args.output).write_bytes(text.encode("utf-8"))
        else:
            sys.stdout.write(text)
    except (ParseError, UnboundVariable, SchemeInvalid, IndexOutOfRange) as exc:
        print(f"qic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except QicError as exc:
        print(f"qic: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"qic: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"qic: out of memory: {exc}", file=sys.stderr)
        return 1
    if args.timing:
        print(f"timing_ms={elapsed_ms:.3f}", file=sys.stderr)
    return 0

