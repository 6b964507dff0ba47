"""The benchmark's span bindings resolve on the imported package, and
each is called once per step of the phase it names.

``perfbench/spans.py`` wraps every ``(module, attribute)`` pair of its
``BINDINGS`` table, so a refactor that moves or renames one of them would
first show as a crash of a traced benchmark run, and one that stops
calling it as a span that reads 0 calls.  The table is read here as a
literal: no perfbench code runs.
"""

import ast
import importlib
import json
from pathlib import Path

import qic.cli

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _bindings() -> dict:
    for node in ast.parse(SPANS.read_text()).body:
        if (isinstance(node, ast.Assign)
                and [ast.unparse(t) for t in node.targets] == ["BINDINGS"]):
            return ast.literal_eval(node.value)
    raise AssertionError(f"{SPANS} assigns no BINDINGS literal")


def test_every_benchmark_binding_resolves_on_qic():
    pairs = [pair for targets in _bindings().values() for pair in targets]
    assert pairs
    missing = [f"{module}.{attr}" for module, attr in pairs
               if not module.startswith("qic.")
               or not callable(getattr(importlib.import_module(module), attr,
                                       None))]
    assert not missing, f"perfbench/spans.py BINDINGS names {missing}"


def _count_calls(monkeypatch) -> dict:
    """Wrap every binding with a call counter; returns the live counts."""
    counts = {}
    for targets in _bindings().values():
        for module_name, attr in targets:
            module = importlib.import_module(module_name)
            key = f"{module_name}.{attr}"
            counts[key] = 0

            def counted(*args, _fn=getattr(module, attr), _key=key, **kwargs):
                counts[_key] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, attr, counted)
    return counts


def test_each_phase_reaches_its_binding_once_per_step(monkeypatch, capsys):
    # A binding that a refactor bypasses records no span, and one that is
    # called per element multiplies the spans of every traced invocation.
    counts = _count_calls(monkeypatch)
    assert qic.cli.main(["ecc", "--data-qubits", "6",
                         "--parity", "groups:0,1,2;3,4,5",
                         "--events", "3"]) == 0
    assert {key: counts[key] for key in (
        "qic.cli.main", "qic.ecc.encode", "qic.ecc.inject_noise",
        "qic.ecc.apply_partial_bit_flip", "qic.ecc.checksum_valid_mass",
        "qic.ecc.fidelity", "qic.ecc.correct")} == {
        "qic.cli.main": 1, "qic.ecc.encode": 1, "qic.ecc.inject_noise": 1,
        "qic.ecc.apply_partial_bit_flip": 1,
        "qic.ecc.checksum_valid_mass": 2, "qic.ecc.fidelity": 2,
        "qic.ecc.correct": 1}

    counts.update(dict.fromkeys(counts, 0))
    capsys.readouterr()
    assert qic.cli.main(["solve", "--qubits", "4", "--valid", "1,5,9",
                         "--seed", "3"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["termination"] == "Exhausted"
    runs = len(results["runs"])
    measured = sum(run["measured"] is not None for run in results["runs"])
    assert (runs, measured) == (4, 3)
    assert {key: counts[key] for key in (
        "qic.cli.main", "qic.enumeration.interfere_repeated",
        "qic.enumeration.with_exclusions",
        "qic.enumeration.uniform_superposition", "qic.enumeration.sample",
        "qic.enumeration.verify")} == {
        "qic.cli.main": 1, "qic.enumeration.interfere_repeated": runs,
        "qic.enumeration.with_exclusions": runs,
        "qic.enumeration.uniform_superposition": 1,
        "qic.enumeration.sample": measured,
        "qic.enumeration.verify": measured}


def test_ecc_without_events_still_flips_once(monkeypatch):
    # The noise and correction steps make their one call whatever the event
    # count, so a zero-event run records the same spans as a noisy one.
    counts = _count_calls(monkeypatch)
    assert qic.cli.main(["ecc", "--data-qubits", "6",
                         "--parity", "groups:0,1,2;3,4,5",
                         "--events", "0"]) == 0
    assert {key: counts[key] for key in (
        "qic.ecc.inject_noise", "qic.ecc.apply_partial_bit_flip",
        "qic.ecc.correct")} == {
        "qic.ecc.inject_noise": 1, "qic.ecc.apply_partial_bit_flip": 1,
        "qic.ecc.correct": 1}
