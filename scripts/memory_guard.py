"""Memory guard: sparse solve at m = 26, ecc and sweeps at m = 22, refusals
above 26 qubits, above 10000 sweep passes and above 2^28 solve reads, runs
under an address-space limit.

One dense 2^26 complex128 state is 1 GiB; an enumeration state is its mask
and two values, and a mask holds flags only for the blocks of 2^16 indices
that mix valid and invalid ones.  A sparse solve of four indices thus
holds four 64 KiB blocks of flags and block scratch, under 1 MiB, and must
peak below 64 MiB, which one 2^26-byte array of dense flags would reach on
its own.  An ecc run on the CLI's uniform data holds no 2^m array at all,
neither amplitudes nor valid flags: every state is its 2^k values, one per
syndrome, and each sum walks the state in one block of scratch.  At m = 22
(k = 2) it must peak below 64 MiB, which one 2^22 complex128 array (64
MiB) would pass on its own; so must a run with 40 events and one without
events.  A sweep holds no amplitude buffer: every state of its pass chains
is two-level and each mean comes in closed form, so it holds its mask's
distinct mixed blocks (b0 mixes every block alike: one 64 KiB array) and
block scratch and must peak below 64 MiB.  A register above 26 qubits is
refused when it is built, a sweep above 10000 passes in all (epsilon
values times the largest pass count) before it runs, and a solve that
could read more than 2^28 indices (b0 at m = 20: 2^19 + 1 runs) before its
first run: exit 1, nothing allocated.  Under a 400 MiB address-space limit
(set in that child only; one BLAS thread keeps numpy's import inside it) a
solve of b0 (half of all indices valid, in every block, all alike, so its
mask holds one 64 KiB array of flags that every block shares) and a sweep,
both at m = 26, run to exit 0 below 64 MiB, and so does an ecc run at
m = 26.  A run that does exceed the limit ends with one "qic: out of
memory" line, which tests/test_cli.py checks.

Each check runs ``python -m qic`` in a child process and prints its exit
and peak RSS; the script exits 1 if any check fails.  Run it from the repo
root:

    PYTHONPATH=src python scripts/memory_guard.py
"""
import os, resource, subprocess, sys
groups = "groups:" + ",".join(map(str, range(10))) + ";" + ",".join(map(str, range(10, 20)))
sweep = ["sweep", "--qubits", "22", "--epsilon", "0:0.2:0.1", "--passes", "1:4"]
# (name, peak RSS limit in MiB, expected exit, argv, address-space limit in MiB)
checks = [
    ("solve at m = 26", 64, 0, ["solve", "--qubits", "26",
                                 "--valid", "5,40000000,60000001,67000000",
                                 "--epsilon", "0.05", "--passes", "3", "--seed", "3"], None),
    ("ecc at m = 22", 64, 0, ["ecc", "--data-qubits", "20", "--parity", groups,
                               "--events", "6", "--passes", "2", "--epsilon", "0.05",
                               "--seed", "3"], None),
    ("ecc with 40 events at m = 22", 64, 0, ["ecc", "--data-qubits", "20",
                                             "--parity", groups, "--events", "40",
                                             "--passes", "2", "--epsilon", "0.05",
                                             "--seed", "3"], None),
    ("ecc without events at m = 22", 64, 0, ["ecc", "--data-qubits", "20",
                                              "--parity", groups, "--events", "0",
                                              "--passes", "2", "--epsilon", "0.05",
                                              "--seed", "3"], None),
    ("sweep b21&b2 at m = 22", 64, 0, [*sweep, "--expr", "b21&b2"], None),
    ("sweep b0 at m = 22", 64, 0, [*sweep, "--expr", "b0"], None),
    ("solve refused at m = 27", 64, 1, ["solve", "--qubits", "27", "--valid", "1"], None),
    ("ecc refused at m = 27", 64, 1, ["ecc", "--data-qubits", "26",
                                      "--parity", "global"], None),
    ("solve refused above 2^28 reads", 64, 1, ["solve", "--qubits", "20",
                                               "--expr", "b0"], None),
    ("sweep refused above 10000 passes", 64, 1, ["sweep", "--qubits", "22",
                                                 "--expr", "b0",
                                                 "--epsilon", "0:0.99:0.01",
                                                 "--passes", "1:101"], None),
    ("solve b0 at m = 26", 64, 0, ["solve", "--qubits", "26", "--expr", "b0",
                                    "--max-runs", "1"], 400),
    ("sweep at m = 26", 64, 0, ["sweep", "--qubits", "26", "--valid", "1,2",
                                "--epsilon", "0.1", "--passes", "1"], 400),
    ("ecc at m = 26 under the 400 MiB address-space limit", 64, 0,
     ["ecc", "--data-qubits", "25", "--parity", "global"], 400),
]
failed = False
for name, limit, code, args, address_mib in checks:
    env, preexec = None, None
    if address_mib is not None:
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        cap = address_mib << 20
        preexec = lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    proc = subprocess.Popen([sys.executable, "-m", "qic", *args],
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                            env=env, preexec_fn=preexec)
    err = proc.stderr.read().decode()
    proc.stderr.close()
    _, status, usage = os.wait4(proc.pid, 0)
    # Negative when a signal ended the run.
    proc.returncode = os.waitstatus_to_exitcode(status)
    peak = usage.ru_maxrss / 1024
    print(f"{name}: exit {proc.returncode} (expected {code}), "
          f"peak RSS {peak:.1f} MiB (limit {limit} MiB)")
    sys.stdout.write(err)
    failed |= proc.returncode != code or peak >= limit
    if address_mib is not None and code:
        lines = err.splitlines()
        failed |= len(lines) != 1 or not lines[0].startswith("qic: out of memory")
sys.exit(failed)
