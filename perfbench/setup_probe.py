"""Set-up probe: import qic and build one workload's objects, then exit.

Run in a fresh interpreter with qic on the path; the benchmark times the
whole process as ``setup_s``.  Arguments, from ``workloads.Inputs``:

    cnf QUBITS PATH            Register + parse_dimacs + Predicate
    valid QUBITS I,J,...       Register + Predicate over explicit indices
    ecc DATA_QUBITS SCHEME     parse_scheme + the scheme's Register
"""

import sys
from pathlib import Path

import qic


def main(argv: list[str]) -> int:
    kind, size, source = argv
    if kind == "cnf":
        register = qic.Register(int(size))
        qic.Predicate(qic.parse_dimacs(Path(source).read_text()), register)
    elif kind == "valid":
        register = qic.Register(int(size))
        qic.Predicate(frozenset(int(i) for i in source.split(",")), register)
    elif kind == "ecc":
        qic.parse_scheme(source, int(size)).register()
    else:
        print(f"setup_probe: unknown kind {kind!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
