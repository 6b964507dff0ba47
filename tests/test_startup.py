"""Process start: a lazy ``import qic`` and the one process entry."""

import gc
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import qic
import qic.__main__
import qic.cli

SRC = str(Path(qic.__file__).parents[1])


def _python(*args):
    """Run a fresh interpreter with qic's sources on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (SRC,
                                                      env.get("PYTHONPATH"))))
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, check=True)


def _imports(*args) -> set[str]:
    """The modules a fresh interpreter imports, read from ``-X importtime``."""
    stderr = _python("-X", "importtime", *args).stderr
    return set(re.findall(r"^import time:[^|]*\|[^|]*\|\s*(\S+)$", stderr,
                          re.MULTILINE))


def test_import_qic_imports_no_submodule():
    out = _python("-c", "import sys, qic; print(sorted("
                  "m for m in sys.modules if m.startswith('qic.')))").stdout
    assert out.strip() == "[]"


def test_every_export_is_its_defining_modules_object():
    for name in qic.__all__:
        defining = importlib.import_module(f"qic.{qic._MODULE_OF[name]}")
        assert getattr(qic, name) is getattr(defining, name), name
        assert name in dir(qic), name


def test_submodules_still_import_by_name():
    from qic import state
    import qic.state as by_path

    assert state is by_path is sys.modules["qic.state"]
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        qic.nonexistent


@pytest.mark.parametrize("argv", [
    ("solve", "--qubits", "4", "--valid", "1,5,9", "--seed", "3"),
    ("ecc", "--data-qubits", "6", "--parity", "groups:0,1,2;3,4,5",
     "--events", "3", "--seed", "5"),
], ids=["solve", "ecc"])
def test_a_cli_process_never_imports_numpy_random(argv):
    if "numpy.random" in _imports("-c", "import numpy"):
        pytest.skip("this numpy imports numpy.random with numpy")
    modules = _imports("-m", "qic", *argv)
    assert "qic.cli" in modules
    assert "numpy.random" not in modules


def test_run_calls_main_with_the_collector_on_and_the_import_frozen(
        monkeypatch):
    seen = []
    monkeypatch.setattr(qic.cli, "main", lambda: seen.append(
        (gc.isenabled(), gc.get_freeze_count())) or 7)
    try:
        assert qic.__main__.run() == 7
    finally:
        gc.unfreeze()
    (enabled, frozen), = seen
    assert enabled and frozen > 0
