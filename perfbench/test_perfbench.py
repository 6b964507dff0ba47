"""Self-tests of the benchmark: inputs, oracles, tracer and self time.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import run
import spans
import workloads

qic_cli = pytest.importorskip("qic.cli")

BENCHMARK_JSON = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


# ---------------------------------------------------------------------------
# Seeded input generation


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_same_seed_gives_identical_inputs(workload):
    assert workloads.generate(workload, 3) == workloads.generate(workload, 3)
    assert workloads.generate(workload, 3) != workloads.generate(workload, 4)


def test_cnf_has_the_fixed_solution_count():
    inputs = workloads.generate("solve-cnf", 5)
    assert len(inputs.expected) == workloads.CNF_SOLUTIONS
    formula = qic_cli.parse_dimacs(dict(inputs.files)["input.cnf"].decode())
    assert formula.variable_count == workloads.CNF_VARS
    assert len(formula.clauses) == workloads.CNF_CLAUSES


def test_brute_force_matches_a_hand_count():
    # (x1 or x2) and (not x1): only x1=0, x2=1 -> index 0b10.
    clauses = np.array([[1, 2], [-1, -1]])
    assert list(workloads.cnf_solutions(clauses, 2)) == [2]


# ---------------------------------------------------------------------------
# Oracles on tiny qic instances (m <= 6)


def _qic(tmp_path, *argv) -> bytes:
    out = tmp_path / "report.json"
    assert qic_cli.main([*argv, "--output", str(out)]) == 0
    return out.read_bytes()


def _results(report: bytes) -> dict:
    return json.loads(report)["results"]


def test_cnf_oracle_accepts_qic_and_rejects_corruption(tmp_path):
    rng = np.random.default_rng(0)
    clauses = np.array([rng.choice(6, 3, replace=False) + 1 for _ in range(6)])
    clauses *= np.where(rng.integers(0, 2, clauses.shape) == 1, 1, -1)
    (tmp_path / "f.cnf").write_bytes(workloads.dimacs(clauses, 6))
    expected = tuple(sorted(format(int(i), "06b")
                            for i in workloads.cnf_solutions(clauses, 6)))
    assert expected
    results = _results(_qic(tmp_path, "solve", "--qubits", "6", "--cnf",
                            str(tmp_path / "f.cnf"), "--seed", "1"))
    assert workloads.check_solve_cnf(results, expected) == []

    dropped = dict(results, found=results["found"][1:])
    assert workloads.check_solve_cnf(dropped, expected)
    assert workloads.check_solve_cnf(
        dict(results, termination="MaxRunsReached"), expected)


def test_wide_oracle_accepts_qic_and_rejects_corruption(tmp_path):
    planted = (3, 17, 40)
    expected = tuple(sorted(format(i, "06b") for i in planted))
    results = _results(_qic(tmp_path, "solve", "--qubits", "6", "--valid",
                            "3,17,40", "--epsilon", "0.05", "--passes", "3",
                            "--seed", "2"))
    assert workloads.check_solve_wide(results, expected) == []

    assert workloads.check_solve_wide(
        dict(results, found=results["found"] + ["111111"]), expected)
    assert workloads.check_solve_wide(
        dict(results, found=results["found"][:1] * 2), expected)
    assert workloads.check_solve_wide(
        dict(results, found=results["found"][1:], termination="Exhausted"),
        expected)
    # A remnant measured early legitimately leaves a subset.
    assert workloads.check_solve_wide(
        dict(results, found=results["found"][1:],
             termination="RemnantMeasured"), expected) == []


def test_ecc_oracle_accepts_qic_and_rejects_corruption(tmp_path):
    expected = (0.05, 2, 3)
    results = _results(_qic(tmp_path, "ecc", "--data-qubits", "4", "--parity",
                            "groups:0,1;2,3", "--events", "3", "--passes", "2",
                            "--epsilon", "0.05", "--seed", "5"))
    assert workloads.check_ecc_noise(results, expected) == []

    bumped = dict(results, valid_mass_after=results["valid_mass_after"] - 1e-9)
    assert workloads.check_ecc_noise(bumped, expected)
    assert workloads.check_ecc_noise(dict(results, status="norm_collapse"),
                                     expected)


def test_malformed_report_is_a_problem():
    inputs = workloads.generate("ecc-noise", 1)
    assert workloads.check_report(inputs, b"{not json")
    assert workloads.check_report(inputs, b'{"results": {}}')


# ---------------------------------------------------------------------------
# Tracer and self time


def _span(name, start, end, parent):
    return spans.Span(name, start, end, parent, 0)


def test_self_time_subtracts_covered_child_intervals():
    tree = [
        _span("root", 0, 100, -1),
        _span("a", 10, 40, 0),
        _span("a.child", 20, 30, 1),
        _span("b", 35, 60, 0),   # overlaps a: 35..40 counts once for root
        _span("c", 90, 120, 0),  # runs past its parent: clipped at 100
    ]
    assert spans.self_times(tree) == [100 - 50 - 10, 30 - 10, 10, 25, 30]


def test_layer_totals_fill_missing_layers_with_zero():
    tree = [_span("cli.main", 0, 10, -1), _span("state.sample", 2, 5, 0),
            _span("state.sample", 6, 7, 0)]
    totals = spans.layer_totals(tree, 0)
    assert totals["state.sample"] == {"self_ns": 4, "calls": 2, "errors": 0}
    assert totals["cli.main"]["self_ns"] == 6
    assert totals["ecc.encode"] == {"self_ns": 0, "calls": 0, "errors": 0}


def test_traced_report_is_identical_and_spans_close_on_norm_collapse(tmp_path):
    argv = ("solve", "--qubits", "5", "--valid", "1,9,30", "--seed", "4")
    untraced = _qic(tmp_path, *argv)
    tracer = spans.Tracer()
    with tracer:
        traced = _qic(tmp_path, *argv)
    assert traced == untraced
    assert qic_cli.main.__name__ == "main" and not hasattr(
        qic_cli.main, "__wrapped__"), "bindings restored on exit"
    assert tracer.open_spans == 0
    assert all(span.end_ns is not None for span in tracer.spans)
    # The last run of an exhaustive enumeration cancels completely.
    assert _results(untraced)["termination"] == "Exhausted"
    errors = [(s.name, s.error) for s in tracer.spans if s.error]
    assert errors == [("interference.interfere", "NormCollapse")]
    interfere = [s for s in tracer.spans if s.name == "interference.interfere"]
    assert len(interfere) == len(_results(untraced)["runs"])


def test_memory_pass_records_peaks(tmp_path):
    tracer = spans.Tracer(memory=True)
    tracemalloc.start()
    try:
        with tracer:
            _qic(tmp_path, "solve", "--qubits", "12", "--valid", "5",
                 "--seed", "1")
    finally:
        tracemalloc.stop()
    peaks = spans.peak_bytes(tracer.spans)
    state_bytes = 16 << 12
    assert peaks["state.prepare"] >= state_bytes
    assert peaks["interference.interfere"] >= peaks["predicate.compile"]


# ---------------------------------------------------------------------------
# BENCHMARK.json agrees with what the benchmark prints


def test_benchmark_json_names_match_the_runner():
    spec = json.loads(BENCHMARK_JSON.read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER_METRICS)
    assert {w["name"] for w in spec["workloads"]} == set(workloads.GENERATORS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "wall_s", "enum_run_ms", "setup_s", "peak_rss_mib"}
