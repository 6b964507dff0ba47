"""qic benchmark: time whole ``python -m qic`` invocations, or trace layers.

    python3 perfbench/run.py --workload solve-cnf --seed 1 --seconds 35 --trace 0

Run from anywhere; qic is loaded from ``src/`` next to this directory and
nothing is installed.  With ``--trace 0`` the benchmark launches one qic
process at a time (closed loop, a single client) for at most ``--seconds``
and reports the end-to-end metrics.  With ``--trace 1`` it runs the same
invocation in this process, alternating untraced and traced calls, and
reports per-layer metrics.  Every report is checked by an oracle that does
not use qic.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Work files, reports and
spans go to ``.bench_work/<workload>-seed<seed>/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
import tracemalloc
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# Set-up probes run between invocations, so that their median spans the
# whole run rather than one stretch of it.
PROBES_PER_INVOCATION = 2
INVOCATION_TIMEOUT_S = 60.0
MIB = 1024 * 1024
AMPLITUDE_BYTES = 16  # complex128

# <prefix>.peak_mib -> the span whose tracemalloc peak it reports.
PEAK_SPANS = {"predicate.compile": "predicate.compile",
              "interference": "interference.interfere",
              "state.sample": "state.sample"}
# Per-layer metrics of the traced run, in the order they are printed.
PER_LAYER_METRICS = (
    [f"{name}.{kind}" for name in spans.BINDINGS for kind in ("self_ms", "calls")]
    + ["predicate.compile.ns_per_index", "interference.ns_per_amp_pass",
       "interference.passes", "enumeration.runs", "enumeration.useful_ratio"]
    + [f"{prefix}.peak_mib" for prefix in PEAK_SPANS]
    + ["trace.coverage", "trace.overhead"]
)
UNITS = {"self_ms": "ms", "calls": "count", "ns_per_index": "ns",
         "ns_per_amp_pass": "ns", "passes": "count", "runs": "count",
         "useful_ratio": "ratio", "peak_mib": "MiB", "coverage": "ratio",
         "overhead": "ratio"}


def per_layer_unit(metric: str) -> str:
    return UNITS[metric.rsplit(".", 1)[1]]


# ---------------------------------------------------------------------------
# Machine context


def l3_bytes() -> int | None:
    """Size of cpu0's level-3 cache from sysfs, or None if not exposed."""
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            if (index / "level").read_text().strip() != "3":
                continue
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        scale = {"K": 1024, "M": MIB}.get(size[-1], 1)
        return int(size.rstrip("KM")) * scale
    return None


def machine_context(inputs: workloads.Inputs) -> dict:
    l3 = l3_bytes()
    state = AMPLITUDE_BYTES << inputs.qubits
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l3_mib": None if l3 is None else l3 / MIB,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "qubits": inputs.qubits,
        "state_mib": state / MIB,
        "state_over_l3": None if l3 is None else state / l3,
    }


# ---------------------------------------------------------------------------
# Processes


def launch(argv: list[str], cwd: Path, stderr_path: Path) -> tuple[int, float, float]:
    """Run one process to completion: (exit code, wall s, peak RSS MiB).

    Wall time runs from just before launch to reaping; peak RSS is the
    child's ``ru_maxrss`` from ``os.wait4``.  A process still running
    after INVOCATION_TIMEOUT_S is killed and reported with exit code -9.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024


def _tail(path: Path) -> str:
    lines = path.read_text(errors="replace").strip().splitlines()
    return lines[-1] if lines else ""


def _read_report(work: Path) -> bytes | None:
    try:
        return (work / workloads.REPORT).read_bytes()
    except FileNotFoundError:
        return None


def _clear_report(work: Path) -> None:
    (work / workloads.REPORT).unlink(missing_ok=True)


class Outcomes:
    """Counts attempts and failures and keeps the first report as reference."""

    def __init__(self, inputs: workloads.Inputs):
        self.inputs = inputs
        self.reference: bytes | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def judge(self, code: int, report: bytes | None, extra=()) -> bool:
        problems = list(extra)
        if code != 0:
            problems.append(f"exit code {code}")
        elif report is None:
            problems.append("no report written")
        else:
            problems += workloads.check_report(self.inputs, report)
            if self.reference is None:
                self.reference = report
            elif report != self.reference:
                problems.append("report bytes differ from the first repetition")
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems += problems
        return not problems


def timed_run(inputs: workloads.Inputs, work: Path, seconds: float
              ) -> tuple[Outcomes, dict, list[str]]:
    qic = [sys.executable, "-m", "qic", *inputs.argv]
    probe = [sys.executable, str(HERE / "setup_probe.py"), *inputs.setup_argv]
    stderr = work / "stderr.txt"

    outcomes = Outcomes(inputs)
    setup, walls, per_run, rss = [], [], [], []

    def probe_setup() -> float:
        code, wall, _ = launch(probe, work, stderr)
        if code != 0:
            outcomes.problems.append(f"set-up probe failed: {_tail(stderr)}")
        return wall

    probe_setup()  # fills the bytecode cache; not counted
    deadline = time.perf_counter() + seconds
    step = 0.0
    # Start another round only if it should end before the deadline, so a
    # run lasts at most --seconds (or one round, if that is longer).
    while not walls or time.perf_counter() + step < deadline:
        started = time.perf_counter()
        setup += [probe_setup() for _ in range(PROBES_PER_INVOCATION)]
        _clear_report(work)
        code, wall, peak = launch(qic, work, stderr)
        report = _read_report(work)
        extra = [f"qic: {_tail(stderr)}"] if code != 0 else []
        ok = outcomes.judge(code, report, extra)
        runs = workloads.enumeration_counts(report)[0] if ok else 0
        walls.append(wall)
        rss.append(peak)
        # ecc-noise has no enumeration and counts as one run.
        per_run.append(wall * 1e3 / max(runs, 1))
        step = time.perf_counter() - started

    metrics = {
        "wall_s": (walls, "s"),
        "enum_run_ms": (per_run, "ms"),
        "setup_s": (setup, "s"),
        "peak_rss_mib": (rss, "MiB"),
    }
    lines = [f"  {name:<13} median {statistics.median(values):.6g} {unit}"
             f"  min {min(values):.6g}  max {max(values):.6g}  n={len(values)}"
             for name, (values, unit) in metrics.items()]
    lines.append(f"  failed_ratio  {outcomes.failed / outcomes.attempted:g}"
                 f"  ({outcomes.failed} of {outcomes.attempted} invocations)")
    result = {name: {"value": statistics.median(values), "unit": unit}
              for name, (values, unit) in metrics.items()}
    return outcomes, result, lines


# ---------------------------------------------------------------------------
# Traced run (in process)


def traced_run(inputs: workloads.Inputs, work: Path, seconds: float
               ) -> tuple[Outcomes, dict, list[str]]:
    sys.path.insert(0, str(SRC))
    import qic.cli as cli

    argv = list(inputs.argv)
    outcomes = Outcomes(inputs)

    def call(tracer: spans.Tracer | None = None) -> float:
        _clear_report(work)
        extra = []
        start = time.perf_counter_ns()
        try:
            code = cli.main(argv)  # looked up on the module: wrappers count
        except Exception as exc:  # a qic defect fails this call, not the run
            code = -1
            extra.append(f"qic raised {type(exc).__name__}: {exc}")
        wall = time.perf_counter_ns() - start
        if tracer is not None and tracer.open_spans:
            extra.append(f"{tracer.open_spans} spans left open")
        outcomes.judge(code, _read_report(work), extra)
        return wall

    tracer = spans.Tracer()
    untraced, traced = [], []
    cwd = os.getcwd()
    os.chdir(work)
    try:
        deadline = time.perf_counter() + seconds
        call()  # warm-up; its report is the reference for every later call
        step = 0.0
        while not traced or time.perf_counter() + step < deadline:
            started = time.perf_counter()
            untraced.append(call())
            tracer.invocation = len(traced)
            with tracer:
                traced.append(call(tracer))
            step = time.perf_counter() - started
        memory = spans.Tracer(memory=True)
        tracemalloc.start()
        try:
            with memory:
                call(memory)
        finally:
            tracemalloc.stop()
    finally:
        os.chdir(cwd)
    runs, useful = (workloads.enumeration_counts(outcomes.reference)
                    if outcomes.reference else (0, 0))

    with open(work / "spans.jsonl", "w") as out:
        for span in tracer.spans:
            out.write(json.dumps({"pass": "timing", **span.to_dict()}) + "\n")
        for span in memory.spans:
            out.write(json.dumps({"pass": "memory", **span.to_dict()}) + "\n")

    amps = 1 << inputs.qubits
    samples: dict[str, list[float]] = {name: [] for name in PER_LAYER_METRICS}
    for invocation, wall in enumerate(traced):
        totals = spans.layer_totals(tracer.spans, invocation)
        for name, entry in totals.items():
            samples[f"{name}.self_ms"].append(entry["self_ns"] / 1e6)
            samples[f"{name}.calls"].append(entry["calls"])
        compile_ = totals["predicate.compile"]
        samples["predicate.compile.ns_per_index"].append(
            compile_["self_ns"] / (amps * compile_["calls"])
            if compile_["calls"] else 0.0)
        interfere = totals["interference.interfere"]
        # A call that raised NormCollapse ran one pass: surviving mass only
        # grows after the first pass, so only the first can collapse.
        passes = ((interfere["calls"] - interfere["errors"]) * inputs.passes
                  + interfere["errors"])
        samples["interference.passes"].append(passes)
        samples["interference.ns_per_amp_pass"].append(
            interfere["self_ns"] / (amps * passes) if passes else 0.0)
        layers = sum(entry["self_ns"] for name, entry in totals.items()
                     if name != spans.ROOT)
        samples["trace.coverage"].append(layers / wall)
    samples["enumeration.runs"] = [runs]
    samples["enumeration.useful_ratio"] = [useful / runs if runs else 0.0]
    peaks = spans.peak_bytes(memory.spans)
    for prefix, name in PEAK_SPANS.items():
        samples[f"{prefix}.peak_mib"] = [peaks.get(name, 0) / MIB]
    samples["trace.overhead"] = [statistics.median(traced)
                                 / statistics.median(untraced) - 1.0]

    result = {name: {"value": statistics.median(values),
                     "unit": per_layer_unit(name)}
              for name, values in samples.items()}
    lines = [f"  {name:<34} {entry['value']:.6g} {entry['unit']}"
             f"  n={len(samples[name])}" for name, entry in result.items()]
    ns_per_pass = result["interference.ns_per_amp_pass"]["value"]
    if ns_per_pass:
        lines.append(
            f"  interference streams {AMPLITUDE_BYTES / ns_per_pass:.3g} GB/s"
            " of state per pass (computed from array sizes: 16 B per"
            " amplitude read, not a measured bandwidth)")
    lines.append(f"  traced {len(traced)} and untraced {len(untraced)}"
                 f" in-process invocations; spans in {work / 'spans.jsonl'}")
    return outcomes, result, lines


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qic" / "__init__.py").is_file():
        print(f"run.py: qic sources not found under {SRC}", file=sys.stderr)
        return 2

    inputs = workloads.generate(args.workload, args.seed)
    work = ROOT / ".bench_work" / f"{args.workload}-seed{args.seed}"
    work.mkdir(parents=True, exist_ok=True)
    for name, data in inputs.files:
        (work / name).write_bytes(data)

    context = machine_context(inputs)
    print(f"machine: nproc={context['nproc']} L3={context['l3_mib']} MiB "
          f"python={context['python']} numpy={context['numpy']}")
    ratio = context["state_over_l3"]
    print(f"{args.workload} seed={args.seed}: m={inputs.qubits}, state "
          f"{context['state_mib']:g} MiB"
          + ("" if ratio is None else f" = {ratio:.3g} x L3"))
    run = traced_run if args.trace else timed_run
    outcomes, metrics, lines = run(inputs, work, args.seconds)
    print("\n".join(lines))
    for problem in dict.fromkeys(outcomes.problems):
        print(f"  FAILED: {problem}")
    print(json.dumps({"context": context}))
    print(json.dumps({
        "correct": outcomes.failed == 0 and not outcomes.problems,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
