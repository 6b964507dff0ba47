"""End-to-end CLI tests driven through subprocess."""

import contextlib
import io
import json
import math
import os
import subprocess
import sys
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qic.cli
import qic.state
from qic.cli import MAX_RANGE_POINTS, main, parse_range
from qic.ecc import EccReport
from qic.enumeration import RunConfig
from qic.errors import QicError
from qic.interference import InterferenceConfig
from qic.reports import render_csv, render_json
from qic.state import Register

import reference
from conftest import brute_force_valid, expr_truth_brute, random_expr

GOLDEN = Path(__file__).parent / "golden"


def run_cli(*args, **kwargs):
    return subprocess.run([sys.executable, "-m", "qic", *args],
                          capture_output=True, text=True, **kwargs)


class TestDemo:
    def test_default_text_output(self):
        result = run_cli("demo")
        assert result.returncode == 0
        assert "P(001) = 0.5" in result.stdout
        assert "P(011) = 0.5" in result.stdout
        assert "P(000) = 0\n" in result.stdout
        assert "termination: Exhausted" in result.stdout
        assert "001" in result.stdout and "011" in result.stdout

    def test_leaked_probabilities(self):
        result = run_cli("demo", "--epsilon", "0.2")
        assert result.returncode == 0
        assert "P(001) = 0.4821428571428" in result.stdout
        assert "P(000) = 0.0059523809523" in result.stdout

    def test_json_format(self):
        result = run_cli("demo", "--format", "json")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert set(doc) == {"schema_version", "command", "config", "results",
                            "timing_ms"}
        assert doc["schema_version"] == 1
        assert doc["command"] == "demo"
        assert doc["timing_ms"] is None
        dist = doc["results"]["distribution"]
        assert abs(dist["001"] - 0.5) < 1e-12
        assert dist["000"] == 0
        assert set(doc["results"]["enumeration"]["found"]) == {"001", "011"}


class TestSolve:
    def test_expression(self):
        result = run_cli("solve", "--qubits", "3", "--expr", "b0 & ~b2",
                         "--seed", "42")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert set(doc["results"]["found"]) == {"001", "011"}
        assert doc["results"]["termination"] == "Exhausted"

    def test_unsatisfiable_cnf_file(self, tmp_path):
        cnf = tmp_path / "unsat.cnf"
        cnf.write_text("p cnf 1 2\n1 0\n-1 0\n")
        result = run_cli("solve", "--qubits", "3", "--cnf", str(cnf))
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["results"]["found"] == []
        assert doc["results"]["termination"] == "Exhausted"

    def test_unbound_variable_exits_2(self):
        result = run_cli("solve", "--qubits", "3", "--expr", "b9")
        assert result.returncode == 2
        assert "UnboundVariable" in result.stderr

    def test_parse_error_reports_offset(self):
        result = run_cli("solve", "--qubits", "3", "--expr", "b0 & (b1 | ")
        assert result.returncode == 2
        assert "offset 11" in result.stderr

    def test_csv_format(self):
        result = run_cli("solve", "--qubits", "3", "--valid", "1,3",
                         "--format", "csv")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "run,measured,verified,new"
        assert len(lines) == 4

    def test_golden_report(self, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli("solve", "--qubits", "3", "--expr", "b0 & ~b2",
                         "--seed", "42", "--output", str(out))
        assert result.returncode == 0
        assert result.stdout == ""
        assert out.read_bytes() == (GOLDEN / "solve_expr_seed42.json").read_bytes()

    def test_explicit_valid_indices(self):
        result = run_cli("solve", "--qubits", "2", "--valid", "0,3",
                         "--seed", "1")
        doc = json.loads(result.stdout)
        assert set(doc["results"]["found"]) == {"00", "11"}

    def test_missing_source_is_usage_error(self):
        result = run_cli("solve", "--qubits", "3")
        assert result.returncode == 1

    def test_conflicting_sources_usage_error(self):
        result = run_cli("solve", "--qubits", "3", "--expr", "b0",
                         "--valid", "1")
        assert result.returncode == 1

    def test_missing_cnf_file(self, tmp_path):
        result = run_cli("solve", "--qubits", "3",
                         "--cnf", str(tmp_path / "nope.cnf"))
        assert result.returncode == 1


class TestSweep:
    def test_grid_matches_leakage_law(self):
        result = run_cli("sweep", "--qubits", "3", "--valid", "1,3",
                         "--epsilon", "0.1:0.3:0.1", "--passes", "1:3")
        assert result.returncode == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "epsilon,passes,predicted_ratio,measured_ratio,abs_error"
        assert len(lines) == 10
        for line in lines[1:]:
            eps, passes, predicted, measured, abs_error = line.split(",")
            assert abs(float(predicted)
                       - (float(eps) / (2 - float(eps))) ** int(passes)) < 1e-12
            assert float(abs_error) < 1e-9

    def test_zero_epsilon_point(self):
        result = run_cli("sweep", "--qubits", "3", "--valid", "1,3",
                         "--epsilon", "0:0.1:0.1", "--passes", "1")
        lines = result.stdout.splitlines()
        first = lines[1].split(",")
        assert float(first[2]) == 0.0 and float(first[3]) == 0.0

    def test_single_point(self):
        result = run_cli("sweep", "--qubits", "3", "--valid", "1,3",
                         "--epsilon", "0.2", "--passes", "2")
        lines = result.stdout.splitlines()
        assert len(lines) == 2

    def test_malformed_range_exits_1(self):
        result = run_cli("sweep", "--qubits", "3", "--valid", "1,3",
                         "--epsilon", "0.1:0.3:0.1:9")
        assert result.returncode == 1
        result = run_cli("sweep", "--qubits", "3", "--valid", "1,3",
                         "--epsilon", "nope")
        assert result.returncode == 1

    @pytest.mark.parametrize("text", ["nan", "inf", "0:inf:0.1",
                                      "0:nan:0.1", "-inf:0", "0:1:inf",
                                      "0:1:nan"])
    def test_range_rejects_non_finite(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_range(text)

    def test_range_caps_grid_points(self):
        assert len(parse_range(f"0:{MAX_RANGE_POINTS - 1}:1")) == MAX_RANGE_POINTS
        for text in (f"0:{MAX_RANGE_POINTS}:1", "0:1e300", "0:0:1e-300"):
            with pytest.raises(ValueError, match="points"):
                parse_range(text)

    def test_json_format(self):
        result = run_cli("sweep", "--qubits", "3", "--valid", "1,3",
                         "--epsilon", "0.2", "--passes", "1",
                         "--format", "json")
        doc = json.loads(result.stdout)
        assert len(doc["results"]["rows"]) == 1
        assert abs(doc["results"]["rows"][0]["predicted_ratio"] - 1 / 9) < 1e-12


class TestEcc:
    def test_single_event_restoration(self):
        result = run_cli("ecc", "--data-qubits", "3", "--parity", "global",
                         "--theta", "0.5", "--events", "1", "--seed", "7")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        results = doc["results"]
        assert results["status"] == "ok"
        assert abs(results["valid_mass_before"] - math.cos(0.5) ** 2) < 1e-10
        assert abs(results["fidelity_after"] - 1.0) < 1e-9

    def test_no_events_all_metrics_one(self):
        result = run_cli("ecc", "--data-qubits", "3", "--events", "0")
        doc = json.loads(result.stdout)
        results = doc["results"]
        for key in ("valid_mass_before", "valid_mass_after",
                    "fidelity_before", "fidelity_after"):
            assert abs(results[key] - 1.0) < 1e-12

    def test_full_flip_reports_collapse(self):
        result = run_cli("ecc", "--data-qubits", "3",
                         "--theta", "1.5707963", "--events", "1")
        assert result.returncode == 0
        doc = json.loads(result.stdout)
        assert doc["results"]["status"] == "norm_collapse"
        assert doc["results"]["fidelity_after"] is None

    def test_csv_format(self):
        result = run_cli("ecc", "--data-qubits", "2", "--events", "0",
                         "--format", "csv")
        lines = result.stdout.splitlines()
        assert lines[0] == "metric,value"
        assert lines[1].startswith("status,ok")

    def test_csv_metrics_are_the_report_fields(self, capsys):
        # Every field of the report but the event log and the config echo.
        assert main(["ecc", "--data-qubits", "2", "--events", "1",
                     "--format", "csv"]) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == [
            f.name for f in fields(EccReport)
            if f.name not in ("events", "config")]

    def test_grouped_scheme(self):
        result = run_cli("ecc", "--data-qubits", "4",
                         "--parity", "groups:0,1;2,3", "--events", "1",
                         "--seed", "5")
        doc = json.loads(result.stdout)
        assert doc["config"]["groups"] == [[0, 1], [2, 3]]
        assert abs(doc["results"]["fidelity_after"] - 1.0) < 1e-9

    def test_bad_scheme_exits_2(self):
        result = run_cli("ecc", "--data-qubits", "3", "--parity", "bogus")
        assert result.returncode == 2
        result = run_cli("ecc", "--data-qubits", "3",
                         "--parity", "groups:0,1")
        assert result.returncode == 2
        assert "SchemeInvalid" in result.stderr


class TestGoldenSchemas:
    """Frozen report bytes pin the JSON schema across changes."""

    @pytest.mark.parametrize("args,golden", [
        (("demo", "--epsilon", "0.2", "--seed", "11", "--format", "json"),
         "demo_eps02_seed11.json"),
        (("ecc", "--data-qubits", "3", "--parity", "global", "--theta", "0.5",
          "--events", "1", "--seed", "7"),
         "ecc_theta05_seed7.json"),
    ])
    def test_report_matches_frozen_bytes(self, args, golden, tmp_path):
        out = tmp_path / "report.json"
        result = run_cli(*args, "--output", str(out))
        assert result.returncode == 0
        assert out.read_bytes() == (GOLDEN / golden).read_bytes()


CORPUS = GOLDEN / "corpus"
_ECC_GROUPS = "groups:0,1,2,3,4,5,6,7,8,9;10,11,12,13,14,15,16,17,18,19"
_SWEEP = ("sweep", "--qubits", "22", "--epsilon", "0:0.2:0.1",
          "--passes", "1:4")


def _valid(seed: int) -> str:
    return (CORPUS / f"solve_wide_seed{seed}.valid").read_text().strip()


# Report file -> argv.  The solve and ecc-noise entries are seeds 1-3 of the
# benchmark workloads, with their generated CNF files and --valid lists
# committed beside the reports; a CNF path is relative to the corpus
# directory, as the report records it.
REPORT_CORPUS = {
    "solve_cnf_seed1.json": ("solve", "--qubits", "18", "--cnf",
                             "solve_cnf_seed1.cnf",
                             "--seed", "6936466275862759407"),
    "solve_cnf_seed2.json": ("solve", "--qubits", "18", "--cnf",
                             "solve_cnf_seed2.cnf",
                             "--seed", "829414533535271749"),
    "solve_cnf_seed3.json": ("solve", "--qubits", "18", "--cnf",
                             "solve_cnf_seed3.cnf",
                             "--seed", "1179262533205312429"),
    "solve_wide_seed1.json": ("solve", "--qubits", "23", "--valid", _valid(1),
                              "--epsilon", "0.05", "--passes", "3",
                              "--seed", "7634208958675629714"),
    "solve_wide_seed2.json": ("solve", "--qubits", "23", "--valid", _valid(2),
                              "--epsilon", "0.05", "--passes", "3",
                              "--seed", "1733081505784528264"),
    "solve_wide_seed3.json": ("solve", "--qubits", "23", "--valid", _valid(3),
                              "--epsilon", "0.05", "--passes", "3",
                              "--seed", "4418468347491149041"),
    "ecc_noise_seed1.json": ("ecc", "--data-qubits", "20",
                             "--parity", _ECC_GROUPS, "--events", "6",
                             "--passes", "2", "--epsilon", "0.05",
                             "--seed", "4720721261117928063"),
    "ecc_noise_seed2.json": ("ecc", "--data-qubits", "20",
                             "--parity", _ECC_GROUPS, "--events", "6",
                             "--passes", "2", "--epsilon", "0.05",
                             "--seed", "2412946043537042528"),
    "ecc_noise_seed3.json": ("ecc", "--data-qubits", "20",
                             "--parity", _ECC_GROUPS, "--events", "6",
                             "--passes", "2", "--epsilon", "0.05",
                             "--seed", "789974133212406140"),
    "demo_eps02.txt": ("demo", "--epsilon", "0.2"),
    "demo_eps02.json": ("demo", "--epsilon", "0.2", "--format", "json"),
    "sweep_b0_m22.csv": (*_SWEEP, "--expr", "b0"),
    "sweep_b21_and_b2_m22.csv": (*_SWEEP, "--expr", "b21&b2"),
    "ecc_m22_events0.json": ("ecc", "--data-qubits", "20",
                             "--parity", _ECC_GROUPS, "--events", "0",
                             "--passes", "2", "--epsilon", "0.05",
                             "--seed", "3"),
    "ecc_m22_events3.json": ("ecc", "--data-qubits", "20",
                             "--parity", _ECC_GROUPS, "--events", "3",
                             "--passes", "2", "--epsilon", "0.05",
                             "--seed", "3"),
}


@pytest.mark.parametrize("name", sorted(REPORT_CORPUS))
def test_report_corpus_is_byte_identical(name, tmp_path, monkeypatch):
    """Workload-sized reports keep their bytes: one in-process run each."""
    monkeypatch.chdir(CORPUS)
    out = tmp_path / name
    assert main([*REPORT_CORPUS[name], "--output", str(out)]) == 0
    assert out.read_bytes() == (CORPUS / name).read_bytes()


@pytest.mark.parametrize("blas_env", [{"OPENBLAS_NUM_THREADS": "1"},
                                      {"OPENBLAS_CORETYPE": "Prescott"},
                                      {"OPENBLAS_CORETYPE": "Nehalem"}],
                         ids=["one_thread", "prescott", "nehalem"])
def test_ecc_corpus_bytes_do_not_depend_on_blas(blas_env, tmp_path):
    """An ecc corpus report keeps its bytes under another OpenBLAS thread
    count or dot kernel; the variable acts only on the child process."""
    name = "ecc_m22_events3.json"
    env = {**os.environ, **blas_env}
    src = str(Path(qic.cli.__file__).parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src,
                                                      env.get("PYTHONPATH"))))
    out = tmp_path / name
    subprocess.run([sys.executable, "-m", "qic", *REPORT_CORPUS[name],
                    "--output", str(out)], env=env, check=True)
    assert out.read_bytes() == (CORPUS / name).read_bytes()


@st.composite
def _sources(draw):
    """A register size m <= 10 and a predicate source on it: the source's
    CLI flags, its report echo and its valid set (by brute force for an
    expression)."""
    m = draw(st.integers(1, 10))
    if draw(st.booleans()):
        indices = draw(st.lists(st.integers(0, (1 << m) - 1), min_size=1,
                                max_size=8))
        return (m, ["--valid", ",".join(map(str, indices))],
                {"kind": "valid", "indices": sorted(set(indices))},
                set(indices))
    expr = random_expr(np.random.default_rng(draw(st.integers(0, 2**32 - 1))),
                       m)
    valid = brute_force_valid(lambda bits: expr_truth_brute(expr, bits), m)
    return (m, ["--expr", expr.to_text()],
            {"kind": "expr", "text": expr.to_text()}, valid)


_EPSILONS = st.one_of(st.just(0.0), st.floats(0.0, 1.0, exclude_max=True))


def _main_with_small_blocks(argv):
    """``main``'s exit code and stdout, with 128-amplitude blocks so that
    registers from m = 8 up span several."""
    out = io.StringIO()
    with pytest.MonkeyPatch.context() as patch, \
            contextlib.redirect_stdout(out):
        patch.setattr(qic.state, "_BLOCK", 128)
        code = main(argv)
    return code, out.getvalue()


@settings(max_examples=40, deadline=None)
@given(source=_sources(), eps=_EPSILONS, passes=st.integers(1, 3),
       seed=st.integers(0, 2**64 - 1),
       max_runs=st.one_of(st.none(), st.integers(1, 16)))
def test_solve_report_matches_the_dense_reference_bytewise(source, eps, passes,
                                                           seed, max_runs):
    m, flags, echo, valid = source
    runs_flag = [] if max_runs is None else ["--max-runs", str(max_runs)]
    code, got = _main_with_small_blocks(
        ["solve", "--qubits", str(m), *flags, "--epsilon", repr(eps),
         "--passes", str(passes), "--seed", str(seed), *runs_flag])
    assert code == 0

    cfg = RunConfig(seed, InterferenceConfig(eps, passes),
                    (1 << m) + 8 if max_runs is None else max_runs)
    found, runs, termination = reference.enumerate(valid, Register(m), cfg)
    config = {"seed": seed, "epsilon": eps, "passes": passes,
              "collapse_tol": 1e-9, "max_runs": cfg.max_runs}
    expected = {
        "schema_version": 1,
        "command": "solve",
        "config": {"qubits": m, "source": echo, **config},
        "results": {
            "found": found,
            "runs": [dict(zip(("run", "measured", "verified", "new"), run))
                     for run in runs],
            "termination": termination.value,
            "config": config,
        },
        "timing_ms": None,
    }
    assert got == render_json(expected)


@settings(max_examples=40, deadline=None)
@given(source=_sources(), eps=_EPSILONS, passes=st.integers(1, 3))
def test_sweep_csv_matches_the_dense_reference_bytewise(source, eps, passes):
    m, flags, _, valid = source
    code, got = _main_with_small_blocks(
        ["sweep", "--qubits", str(m), *flags, "--epsilon", repr(eps),
         "--passes", f"1:{passes}"])
    if not valid:  # the ratio has no denominator
        assert (code, got) == (3, "")
        return
    assert code == 0
    rows = reference.sweep(np.isin(np.arange(1 << m), sorted(valid)), [eps],
                           range(1, passes + 1), 1e-9)
    assert got == render_csv(["epsilon", "passes", "predicted_ratio",
                              "measured_ratio", "abs_error"], rows)


class TestDeterminism:
    @pytest.mark.parametrize("args", [
        ("demo", "--epsilon", "0.13", "--seed", "5"),
        ("demo", "--format", "json"),
        ("solve", "--qubits", "4", "--expr", "b0 ^ b3", "--seed", "9",
         "--epsilon", "0.2"),
        ("sweep", "--qubits", "3", "--valid", "1,3",
         "--epsilon", "0.1:0.3:0.1", "--passes", "1:3"),
        ("ecc", "--data-qubits", "3", "--events", "2", "--seed", "17"),
    ])
    def test_repeated_invocations_are_byte_identical(self, args):
        first = run_cli(*args)
        second = run_cli(*args)
        assert first.returncode == second.returncode == 0
        assert first.stdout.encode() == second.stdout.encode()

    def test_output_files_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        for path in (a, b):
            result = run_cli("solve", "--qubits", "3", "--expr", "b0 & b1",
                             "--seed", "3", "--output", str(path))
            assert result.returncode == 0
        assert a.read_bytes() == b.read_bytes()


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["solve", "--qubits", "3", "--expr", "b0", "--collapse-tol", "nan"],
        ["solve", "--qubits", "3", "--expr", "b0", "--collapse-tol", "inf"],
        ["solve", "--qubits", "3", "--expr", "b0", "--epsilon", "nan"],
        ["sweep", "--qubits", "3", "--valid", "1,3", "--epsilon", "0.1",
         "--collapse-tol", "nan"],
        ["sweep", "--qubits", "3", "--valid", "1,3", "--epsilon", "0:inf:0.1"],
        ["sweep", "--qubits", "3", "--valid", "1,3", "--epsilon", "0.1",
         "--passes", "1:inf"],
    ])
    def test_non_finite_numbers_exit_1(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("qic: ")

    @pytest.mark.parametrize("expr", ["~" * 5000 + "b0",
                                      "(" * 3000 + "b0" + ")" * 3000])
    def test_deep_nesting_exits_2(self, expr, capsys):
        assert main(["solve", "--qubits", "2", "--expr", expr]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("qic: ParseError: '~' and '(' nest deeper than 200 "
                       "levels (at offset 200)\n")

    def test_long_chain_is_accepted(self, capsys):
        expr = " | ".join(["b0 & b1"] * 1000)
        assert main(["solve", "--qubits", "2", "--expr", expr]) == 0
        assert '"found": [\n      "11"\n    ]' in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["ecc", "--data-qubits", "3"],
        ["solve", "--qubits", "4", "--valid", "1"],
    ])
    def test_oversized_register_exits_1(self, argv, capsys, monkeypatch):
        import qic.state

        monkeypatch.setattr(qic.state, "MAX_QUBITS", 3)
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qic: register of 4 qubits exceeds the 3-qubit cap\n"

    @pytest.mark.parametrize("argv", [
        ["solve", "--qubits", "27", "--valid", "1"],
        ["ecc", "--data-qubits", "26"],
    ])
    def test_register_above_max_qubits_exits_1(self, argv, capsys):
        assert main(argv) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "qic: register of 27 qubits exceeds the 26-qubit cap\n"

    def test_solve_with_too_many_runs_exits_1_at_once(self, capsys):
        # b0 at m = 20: 2^19 solutions, so up to 2^19 + 1 runs of 16 mixed
        # blocks each, hours of work; refused after compile.
        start = time.perf_counter()
        assert main(["solve", "--qubits", "20", "--expr", "b0"]) == 1
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("qic: solve could read ")
        assert err.endswith(" over 524289 runs, above the limit of "
                            "268435456; lower --max-runs or --passes\n")

    @pytest.mark.parametrize("seed", ["18446744073709551616", "-1"])
    def test_ecc_seed_outside_64_bits_exits_1(self, seed, capsys):
        assert main(["ecc", "--data-qubits", "3", "--seed", seed]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"qic: seed must be a 64-bit integer, got {seed}\n"

    @pytest.mark.parametrize("valid", ["1_0", "\u0663", "3\u00a0", "1,\u0663"])
    def test_valid_fields_take_only_ascii_digits(self, valid, capsys):
        assert main(["solve", "--qubits", "4", "--valid", valid]) == 1
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert "expected comma-separated integers" in err

    def test_valid_fields_may_carry_a_sign_and_spaces(self, capsys):
        assert main(["solve", "--qubits", "4", "--valid", "+3, 9 "]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["source"]["indices"] == [3, 9]

    @pytest.mark.parametrize("parity,offset", [
        ("groups:0,1;2,1_0", 13), ("groups:0,1;2,\u0663", 13),
        ("groups:0,1;2,3\u00a0", 13), ("groups:0,1,", 11),
    ])
    def test_parity_members_take_only_ascii_digits(self, parity, offset,
                                                   capsys):
        assert main(["ecc", "--data-qubits", "4", "--parity", parity,
                     "--events", "0"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        assert err.startswith("qic: ParseError: expected a data bit index")
        assert err.endswith(f"(at offset {offset})\n")

    def test_parity_members_may_carry_a_sign_and_spaces(self, capsys):
        assert main(["ecc", "--data-qubits", "4", "--parity",
                     "groups:0, 1;+2,3", "--events", "0"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["config"]["groups"] == [[0, 1], [2, 3]]

    @staticmethod
    def stub_work(monkeypatch):
        """Make each command's first step of real work fail with exit 3."""
        def work(*args, **kwargs):
            raise QicError("work started")

        for name in ("interfere_repeated", "enumerate_solutions",
                     "remnant_sweep", "ecc_experiment"):
            monkeypatch.setattr(qic.cli, name, work)

    @pytest.mark.parametrize("argv", [
        ["demo", "--passes", "{n}"],
        ["solve", "--qubits", "3", "--expr", "b0", "--passes", "{n}"],
        ["ecc", "--data-qubits", "2", "--passes", "{n}"],
        ["ecc", "--data-qubits", "2", "--events", "{n}"],
        ["sweep", "--qubits", "3", "--valid", "1,3", "--epsilon", "0.1",
         "--passes", "{n}"],
        ["sweep", "--qubits", "3", "--valid", "1,3", "--epsilon", "0.1",
         "--passes", "1:{n}:{step}"],
    ])
    def test_counts_above_the_limit_exit_1_before_any_work(self, argv, capsys,
                                                           monkeypatch):
        self.stub_work(monkeypatch)
        for n, code in ((MAX_RANGE_POINTS, 3), (MAX_RANGE_POINTS + 1, 1),
                        (10**9, 1)):
            assert main([arg.format(n=n, step=n - 1) for arg in argv]) == code
            out, err = capsys.readouterr()
            assert out == "" and len(err.splitlines()) == 1
            if code == 1:
                assert err == (f"qic: {argv[-2]} {n} exceeds the limit of "
                               f"{MAX_RANGE_POINTS}\n")
            else:
                assert err == "qic: QicError: work started\n"

    @pytest.mark.parametrize("epsilon,passes,n_eps,code", [
        ("0:0.99:0.01", "100", 100, 3),
        ("0:0.99:0.01", "101", 100, 1),
        ("0:0.9999:0.0001", "1:2", MAX_RANGE_POINTS, 1),
    ])
    def test_sweep_total_passes_above_the_limit_exit_1_before_any_work(
            self, epsilon, passes, n_eps, code, capsys, monkeypatch):
        # One chain of max(passes) passes per epsilon, so their product
        # bounds both the work and the rows of a sweep.
        self.stub_work(monkeypatch)
        assert len(parse_range(epsilon)) == n_eps
        total = n_eps * int(passes.split(":")[-1])
        assert (total <= MAX_RANGE_POINTS) == (code == 3)
        assert main(["sweep", "--qubits", "3", "--valid", "1,3",
                     "--epsilon", epsilon, "--passes", passes]) == code
        out, err = capsys.readouterr()
        assert out == "" and len(err.splitlines()) == 1
        if code == 1:
            assert err == (f"qic: --epsilon values x largest --passes {total} "
                           f"exceeds the limit of {MAX_RANGE_POINTS}\n")
        else:
            assert err == "qic: QicError: work started\n"

    @pytest.mark.parametrize("newline,offset", [("\n", 20), ("\r\n", 22)])
    def test_cnf_offsets_count_bytes(self, newline, offset, tmp_path, capsys):
        cnf = tmp_path / "bad.cnf"
        # 'é' is two bytes in UTF-8.
        cnf.write_bytes(newline.join(["c café", "p cnf 1 1", "1 x 0", ""])
                        .encode())
        assert main(["solve", "--qubits", "1", "--cnf", str(cnf)]) == 2
        assert capsys.readouterr().err == (
            "qic: ParseError: expected a literal or 0, got 'x' "
            f"(at offset {offset})\n")
        cnf.write_bytes("c café\np cnf 1 1\n1 0\n".encode())
        assert main(["solve", "--qubits", "1", "--cnf", str(cnf)]) == 0

    def test_non_utf8_cnf_byte_is_a_parse_error_at_its_offset(self, tmp_path,
                                                              capsys):
        cnf = tmp_path / "bad.cnf"
        cnf.write_bytes(b"p cnf 1 1\n1 \xff 0\n")
        assert main(["solve", "--qubits", "1", "--cnf", str(cnf)]) == 2
        assert capsys.readouterr().err == (
            "qic: ParseError: expected a literal or 0, got '\xff' "
            "(at offset 12)\n")

    @pytest.mark.parametrize("text,field,offset", [
        (b"p cnf 2 1\n1\xa02 0\n", "1\xa02", 10),
        (b"p cnf 2 1\n1\x852 0\n", "1\x852", 10),
        (b"p cnf 2 1\n1\x1c2 0\n", "1\x1c2", 10),
        (b"p cnf 12 1\n1_0 0\n", "1_0", 11),
        (b"p cnf 1_2 1\n1 0\n", None, 6),
        # More digits than int() converts.
        pytest.param(b"p cnf 2 1\n" + b"1" * 4400 + b" 0\n", "1" * 4400, 10,
                     id="literal-past-int-digit-limit"),
        pytest.param(b"p cnf 2 " + b"1" * 4400 + b"\n1 0\n", None, 8,
                     id="count-past-int-digit-limit"),
    ])
    def test_cnf_takes_only_ascii_separators_and_digits(self, text, field,
                                                        offset, tmp_path,
                                                        capsys):
        cnf = tmp_path / "bad.cnf"
        cnf.write_bytes(text)
        assert main(["solve", "--qubits", "12", "--cnf", str(cnf)]) == 2
        message = (f"expected a literal or 0, got {field!r}" if field
                   else "expected integer counts in 'p cnf <vars> <clauses>'")
        assert capsys.readouterr().err == (
            f"qic: ParseError: {message} (at offset {offset})\n")

    def test_cnf_numbers_may_carry_a_plus_sign(self, tmp_path, capsys):
        cnf = tmp_path / "plus.cnf"
        cnf.write_bytes(b"p cnf +2 1\r\n+1 -2 0\r\n")
        assert main(["solve", "--qubits", "2", "--cnf", str(cnf),
                     "--format", "json"]) == 0
        found = json.loads(capsys.readouterr().out)["results"]["found"]
        assert sorted(found) == ["00", "01", "11"]

    def test_expr_skips_only_ascii_whitespace(self, capsys):
        # A no-break space is two bytes in UTF-8 and is not skipped.
        assert main(["solve", "--qubits", "2", "--expr", "b0\u00a0& x"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("qic: ParseError: unexpected character '\\xa0'")
        assert err.endswith("(at offset 2)\n")

    def test_unwritable_output_exits_1(self, tmp_path):
        target = tmp_path / "missing" / "x"
        result = run_cli("demo", "--output", str(target))
        assert result.returncode == 1
        assert result.stdout == ""
        assert len(result.stderr.splitlines()) == 1
        assert result.stderr.startswith("qic: ")
        assert not target.exists()

    @pytest.mark.parametrize("argv,name", [
        (["solve", "--qubits", "4", "--expr", "b0"], "enumerate_solutions"),
        (["ecc", "--data-qubits", "3", "--format", "csv"], "ecc_experiment"),
    ])
    @pytest.mark.parametrize("to_file", [False, True])
    def test_out_of_memory_exits_1_with_one_line(self, argv, name, to_file,
                                                 tmp_path, capsys,
                                                 monkeypatch):
        def work(*args, **kwargs):
            raise MemoryError("Unable to allocate 512. MiB for an array")

        monkeypatch.setattr(qic.cli, name, work)
        target = tmp_path / "report"
        assert main(argv + ["--output", str(target)] * to_file) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("qic: out of memory: Unable to allocate 512. MiB for "
                       "an array\n")
        assert not target.exists()


class TestUsage:
    def test_no_subcommand(self):
        result = run_cli()
        assert result.returncode == 1

    def test_help_exits_zero(self):
        result = run_cli("--help")
        assert result.returncode == 0
        for sub in ("demo", "solve", "sweep", "ecc"):
            assert sub in result.stdout

    def test_subcommand_help_documents_flags(self):
        result = run_cli("solve", "--help")
        assert result.returncode == 0
        for flag in ("--qubits", "--expr", "--cnf", "--valid", "--seed",
                     "--epsilon", "--passes", "--max-runs", "--collapse-tol",
                     "--format", "--output"):
            assert flag in result.stdout

    def test_timing_goes_to_stderr_only(self):
        plain = run_cli("demo", "--format", "json")
        timed = run_cli("demo", "--format", "json", "--timing")
        assert timed.stdout == plain.stdout
        assert "timing_ms=" in timed.stderr
