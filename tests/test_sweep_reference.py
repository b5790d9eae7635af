"""The golden-section sweep against the benchmark's recorded reference.

One ``sweep --locate einstein_weyl`` job of the perfbench ``sweep_locate``
pool per step count, each in its own squashing band, runs through
``cli.main``.  ``perfbench/checks.check_job`` compares its output with
``perfbench/reference.json``: every row and located minimum within
1e-13 (1 + |ref|), and each minimum within 1e-6 of the closed-form
Einstein-Weyl scale of the Berger sphere.  A change that moves one
golden-section comparison fails here, not only in the benchmark.  The
perfbench sources are executed from their text, so nothing is written there.
"""

import contextlib
import io
import json
import sys
import types
from pathlib import Path

import pytest

from sdharm import cli

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    module = types.ModuleType(name)
    path = PERFBENCH / f"{name}.py"
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


WORKLOADS = _load("workloads")


def _checks(monkeypatch):
    monkeypatch.setitem(sys.modules, "workloads", WORKLOADS)   # checks.py imports it
    return _load("checks")


def _jobs():
    """The first variant of stratum (steps, band) with the band stepping along
    with the step count, so every step count and every band appears once."""
    strata = WORKLOADS.pool("sweep_locate")
    return [strata[steps, band][0] for band, steps in enumerate(WORKLOADS.SWEEP_STEPS)]


@pytest.mark.parametrize("job", _jobs(), ids=lambda job: job["id"])
def test_sweep_job_matches_the_benchmark_reference(job, tmp_path, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    checks = _checks(monkeypatch)
    reference = json.loads((PERFBENCH / "reference.json").read_text())["jobs"]
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(job["scene"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([job["command"], str(scene), *job["args"]])
    assert checks.check_job(job, code, out.getvalue(), reference) == []
    assert "# minimum,einstein_weyl," in out.getvalue()
