"""tools/kernels.py's choice of tests, its child environment and its
comparison of records; the child runs themselves take minutes and are not
run here."""

import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "kernels.py"


def load_tool():
    """Execute kernels.py into a fresh module."""
    module = types.ModuleType("kernels")
    module.__file__ = str(TOOL)
    path, dont_write = list(sys.path), sys.dont_write_bytecode
    sys.dont_write_bytecode = True          # nothing written under tools/
    try:
        exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    finally:
        sys.path[:], sys.dont_write_bytecode = path, dont_write
    return module


def test_the_tests_are_the_reference_the_oracle_files_and_the_determinism_tests():
    k = load_tool()
    tests = k.tests_of(ROOT)
    assert tests[0] == "tests/test_sweep_reference.py"
    oracle = {f"tests/{p.name}" for p in ROOT.glob("tests/test_*.py")
              if any(line.startswith(("import _oracles", "from _oracles "))
                     for line in p.read_text().splitlines())}
    assert len(oracle) >= 5 and oracle <= set(tests)
    assert "tests/test_kernels_tool.py" not in tests
    for test in k.DETERMINISM:
        assert test in tests or test.split("::")[0] in tests
    assert len(tests) == len(set(tests))
    assert all((ROOT / t.split("::")[0]).is_file() for t in tests)


def test_only_the_child_gets_the_kernel(monkeypatch):
    k = load_tool()
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Atom")
    assert "OPENBLAS_CORETYPE" not in k.child_env(ROOT, "default")
    env = k.child_env(ROOT, "Prescott")
    assert env["OPENBLAS_CORETYPE"] == "Prescott"
    assert env["PYTHONPATH"] == str(ROOT / "src")
    assert os.environ["OPENBLAS_CORETYPE"] == "Atom"


def test_the_table_counts_and_names_outputs_that_differ_in_more_than_their_numbers():
    """A kernel that changes only an output's text, or whose record lacks or
    adds a job, shows in its row and is named; a worst move of 0 names no
    job."""
    k = load_tool()
    base = {"a": [0, "x 1.0 y", ""], "b": [0, "2.0", ""], "c": [2, "3.0", ""]}
    moved = {"a": [0, "x 1.0 y", ""], "b": [0, "2.5", ""], "c": [2, "3.0000001", ""]}
    text = {"a": [0, "x 1.0 z", ""], "b": [0, "2.0", ""], "d": [0, "4.0", ""]}
    lines = k.table({"default": (base, []), "Haswell": (moved, []),
                     "Prescott": (text, ["tests/test_x.py::test_y"])})
    assert lines[2:] == [
        "| default | 3 of 3 | 0 | - | 0 | 0 |",
        f"| Haswell | 1 of 3 | {0.5 / 3.0:.3g} | b | 0 | 0 |",
        "| Prescott | 1 of 4 | 0 | - | 3 | 1 |",
        "Prescott: a: 1 other tokens differ",
        "Prescott: c: only in the default's record",
        "Prescott: d: only in the kernel's record",
        "Prescott: FAILED tests/test_x.py::test_y"]
