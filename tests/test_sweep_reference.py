"""The workload pools against the benchmark's recorded reference.

Every ``report_grid`` and ``verify_classify`` job of the perfbench pools,
and one ``sweep --locate einstein_weyl`` job of the ``sweep_locate`` pool
per step count, each in its own squashing band, runs through ``cli.main``.
``perfbench/checks.check_job`` compares its output with
``perfbench/reference.json``: exit codes, verdicts, labels and pass flags
exactly, every residual, row and located minimum within 1e-13 (1 + |ref|),
and each minimum within 1e-6 of the closed-form Einstein-Weyl scale of the
Berger sphere.  A change that moves an output past that bound, or one
golden-section comparison, fails here, not only in the benchmark.  The
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
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())["jobs"]


@pytest.fixture(scope="module")
def checks():
    with pytest.MonkeyPatch.context() as patch:
        patch.setitem(sys.modules, "workloads", WORKLOADS)     # checks.py imports it
        return _load("checks")


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    """The file each job's scene is written to."""
    return tmp_path_factory.mktemp("jobs") / "scene.json"


def _sweep_jobs():
    """The first variant of stratum (steps, band) with the band stepping along
    with the step count, so every step count and every band appears once."""
    strata = WORKLOADS.pool("sweep_locate")
    return [strata[steps, band][0] for band, steps in enumerate(WORKLOADS.SWEEP_STEPS)]


def _run(job, scene, checks):
    """The job's output through ``cli.main``, checked against the reference."""
    scene.write_text(json.dumps(job["scene"]))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([job["command"], str(scene), *job["args"]])
    assert checks.check_job(job, code, out.getvalue(), REFERENCE) == []
    return out.getvalue()


@pytest.mark.parametrize("job", WORKLOADS.all_jobs("report_grid")
                         + WORKLOADS.all_jobs("verify_classify"), ids=lambda job: job["id"])
def test_pool_job_matches_the_benchmark_reference(job, checks, scene, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    _run(job, scene, checks)


@pytest.mark.parametrize("job", _sweep_jobs(), ids=lambda job: job["id"])
def test_sweep_job_matches_the_benchmark_reference(job, checks, scene, monkeypatch):
    monkeypatch.delenv(cli.TOL_ENV_VAR, raising=False)
    assert "# minimum,einstein_weyl," in _run(job, scene, checks)
