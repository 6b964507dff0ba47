"""The benchmark's span bindings resolve on the imported package.

``perfbench/spans.py`` wraps every ``(module, attribute)`` pair of its
``BINDINGS`` table, so a refactor that moves or renames one of them would
first show as a crash of a traced benchmark run.  The table is read here
as a literal: no perfbench code runs.
"""

import ast
import importlib
from pathlib import Path

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
