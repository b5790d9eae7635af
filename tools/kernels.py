"""Run the parity record and Tier-1's reference, oracle and determinism tests
under each OpenBLAS kernel, and compare each kernel's record with the default's.

    python tools/kernels.py [--root <checkout>]

numpy's ``matmul``, ``tensordot`` and ``linalg`` run on OpenBLAS, which picks
its kernels from the CPU; ``OPENBLAS_CORETYPE`` picks another.  For the
kernel OpenBLAS picks itself (``default``) and for each of ``KERNELS``
(``Haswell`` and ``Prescott``), this tool runs two child processes whose
environment alone sets ``OPENBLAS_CORETYPE``:

- ``tools/compare_outputs.py dump`` of ``<checkout>``;
- ``pytest`` on ``<checkout>``'s reference tests (``REFERENCE``), oracle tests
  (every ``tests/test_*.py`` that imports ``_oracles``) and determinism tests
  (``DETERMINISM``), with ``<checkout>/src`` first on the path.

It compares each kernel's record with the default kernel's by
``compare_outputs.differences`` and prints one row per kernel: how many
outputs are byte-identical, the worst relative difference of a number
(``compare_outputs``' measure, |a - b| / (1 + |a|)) with its job, how many
outputs differ in more than their numbers (a text, a token count) or are in
one record only, and how many tests failed.  Then it names each such output
and each failing test.  A pass over three
kernels takes about 1.5 min on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
from compare_outputs import differences  # noqa: E402

KERNELS = ("Haswell", "Prescott")
REFERENCE = ["tests/test_sweep_reference.py"]
ORACLE_IMPORT = re.compile(r"^(import|from) _oracles\b", re.M)
DETERMINISM = ["tests/test_acceptance.py::test_criterion_11_determinism",
               "tests/test_cli.py::test_determinism_identical_hashes"]


def tests_of(root):
    """The reference, oracle and determinism tests of the checkout."""
    oracle = sorted(f"tests/{p.name}" for p in (root / "tests").glob("test_*.py")
                    if ORACLE_IMPORT.search(p.read_text()))
    files = REFERENCE + [t for t in oracle if t not in REFERENCE]
    return files + [t for t in DETERMINISM if t.split("::")[0] not in files]


def child_env(root, kernel):
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    env.pop("OPENBLAS_CORETYPE", None)
    if kernel != "default":
        env["OPENBLAS_CORETYPE"] = kernel
    return env


def run_kernel(root, kernel, tmp):
    """(the kernel's parity record, the ids of its failing tests)."""
    env = child_env(root, kernel)
    out = Path(tmp) / f"{kernel}.json"
    dump = subprocess.run([sys.executable, str(HERE / "compare_outputs.py"), "dump",
                           "--root", str(root), str(out)], env=env, capture_output=True,
                          text=True)
    if dump.returncode:
        raise SystemExit(f"{kernel}: the dump exited {dump.returncode}\n{dump.stderr}")
    tests = subprocess.run([sys.executable, "-m", "pytest", "-q", "-rfE", "-p",
                            "no:cacheprovider", *tests_of(root)], cwd=root, env=env,
                           capture_output=True, text=True)
    failed = [line.split(" ", 1)[1].split(" - ")[0] for line in tests.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    if tests.returncode not in (0, 1) or (tests.returncode == 1 and not failed):
        raise SystemExit(f"{kernel}: pytest exited {tests.returncode}\n{tests.stdout[-2000:]}")
    return json.loads(out.read_text()), failed


def table(runs):
    """The lines printed for ``runs``, {kernel: (its record, its failing
    tests)} with the default kernel first: one row per kernel, against the
    default's record, then each output that differs in more than its numbers
    or is in one record only, and each failing test."""
    base = runs["default"][0]
    lines = ["| kernel | byte-identical | worst move | in | other differences "
             "| failing tests |", "| --- | ---: | ---: | --- | ---: | ---: |"]
    notes = []
    for kernel, (record, failed) in runs.items():
        same, moved, only = differences(base, record)
        worst = max(moved, key=lambda k: moved[k][0], default=None)
        move = moved[worst][0] if moved else 0.0
        other = [f"{kernel}: {key}: {n} other tokens differ"
                 for key, (_, n) in moved.items() if n]
        other += [f"{kernel}: {key}: only in the "
                  + ("default's record" if key in base else "kernel's record") for key in only]
        lines.append(f"| {kernel} | {same} of {len(set(base) | set(record))} | {move:.3g} "
                     f"| {worst if move else '-'} | {len(other)} | {len(failed)} |")
        notes += other + [f"{kernel}: FAILED {test}" for test in failed]
    return lines + notes


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", default=".", help="the checkout whose src/, scenes/ and tests/ "
                   "to run (default: the current directory)")
    root = Path(p.parse_args(argv).root).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        runs = {k: run_kernel(root, k, tmp) for k in ("default", *KERNELS)}
    print(f"{root}: {len(runs['default'][0])} outputs, tests: {' '.join(tests_of(root))}")
    print("\n".join(table(runs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
