"""The benchmark's own checks catch perturbed outputs.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from sdharm import cli, geometry, weyl3  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

REFERENCE = json.loads((HERE / "reference.json").read_text())["jobs"]


def job(job_id):
    workload = {"report": "report_grid", "sweep": "sweep_locate"}.get(
        job_id.split("/")[0], "verify_classify")
    return next(j for j in workloads.all_jobs(workload) if j["id"] == job_id)


@pytest.fixture
def execute(tmp_path, monkeypatch):
    monkeypatch.delenv("SDHARM_TOL", raising=False)

    def go(j):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(j["scene"]))
        code, text, _ = run.run_cli(cli, j, path)
        return code, text
    return go


def perturb_json(text, edit):
    out = json.loads(text)
    edit(out)
    return json.dumps(out)


def test_every_pool_job_has_a_reference():
    for workload in workloads.WORKLOADS:
        for j in workloads.all_jobs(workload):
            assert REFERENCE[j["id"]]["key"] == checks.job_key(j)


def test_cycle_is_seeded_and_covers_every_stratum():
    for workload in workloads.WORKLOADS:
        a, b = workloads.cycle(workload, 7), workloads.cycle(workload, 7)
        assert [j["id"] for j in a] == [j["id"] for j in b]
        strata = workloads.pool(workload)
        per_variant = 2 if workload == "verify_classify" else 1
        assert len(a) == len({j["id"] for j in a}) == \
            per_variant * workloads.VARIANTS_PER_PASS[workload] * len(strata)
    assert [j["id"] for j in workloads.cycle("report_grid", 1)] != \
        [j["id"] for j in workloads.cycle("report_grid", 2)]


def test_reference_accepts_and_rejects_report(execute):
    j = job("report/type4/8/1")
    code, text = execute(j)
    assert checks.check_job(j, code, text, REFERENCE) == []

    def bump(out):
        entry = out["summary"]["checks"]["w_minus"]
        entry["max_normalized"] += 1e-12
    assert checks.check_job(j, code, perturb_json(text, bump), REFERENCE)
    assert checks.check_job(j, 1, text, REFERENCE)          # exit code

    def flip(out):
        out["summary"]["checks"]["w_minus"]["pass"] = False
    assert checks.check_job(j, code, perturb_json(text, flip), REFERENCE)


def test_reference_keeps_the_negative_controls(execute):
    j = job("verify/type4_not_ew/0")
    code, text = execute(j)
    assert code == 1
    assert checks.check_job(j, code, text, REFERENCE) == []

    def passes(out):
        out["summary"]["verdict"] = "pass"
        out["summary"]["checks"]["einstein_weyl"]["pass"] = True
    assert len(checks.check_job(j, 0, perturb_json(text, passes), REFERENCE)) == 3


def test_reference_rejects_classify_label_and_constant(execute):
    j = job("classify/type4/2")
    code, text = execute(j)
    assert checks.check_job(j, code, text, REFERENCE) == []

    def relabel(out):
        out["results"][0]["label"] = "type3"
    assert checks.check_job(j, code, perturb_json(text, relabel), REFERENCE)

    def shift_c(out):
        out["results"][-1]["recovered_c"] += 1e-9
    assert checks.check_job(j, code, perturb_json(text, shift_c), REFERENCE)


def test_oracle_rejects_a_moved_or_missing_minimum(execute):
    j = job("sweep/8/2/1")
    code, text = execute(j)
    assert checks.check_job(j, code, text, REFERENCE) == []
    summary = checks.summarize("sweep", code, text)
    assert checks.oracle(j, summary) == []
    (x, fx), = summary["minima"]
    moved = {**summary, "minima": [[x + 2e-6, fx]]}
    assert checks.oracle(j, moved)
    assert checks.oracle(j, {**summary, "minima": []})


def test_program_perturbation_is_caught(execute, monkeypatch):
    """Perturbing the program, not its output, trips reference and oracle."""
    j = job("sweep/6/0/0")
    original = weyl3.locate_residual_minimum

    def off_by_a_little(f, lo, hi, **kw):
        x, fx = original(f, lo, hi, **kw)
        return x + 5e-6, fx
    monkeypatch.setattr(weyl3, "locate_residual_minimum", off_by_a_little)
    code, text = execute(j)
    errors = checks.check_job(j, code, text, REFERENCE)
    assert any("Einstein-Weyl scale" in e for e in errors)

    j = job("report/type1/4/0")
    report = geometry.curvature_report

    def scaled(g, point, orientation=None):
        rep = report(g, point, orientation)
        rep.riemann_norm *= 1.0 + 1e-9
        return rep
    monkeypatch.setattr(geometry, "curvature_report", scaled)
    code, text = execute(j)
    assert any("riemann" in e for e in checks.check_job(j, code, text, REFERENCE))


def test_determinism_check_flags_a_changed_repeat(tmp_path, monkeypatch):
    j = job("classify/type3/1")
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(j["scene"]))
    runner = run.Runner(cli, checks, REFERENCE, {j["id"]: path})
    runner.run(j)
    runner.run(j)
    assert runner.failures == []

    real_main = cli.main

    def main_with_noise(argv):
        code = real_main(argv)
        sys.stdout.write(" ")           # same content, different bytes
        return code
    monkeypatch.setattr(cli, "main", main_with_noise)
    runner.run(j)
    assert len(runner.failures) == 1
    assert "first execution" in runner.failures[0][1][-1]


def test_tracer_counts_repeat_and_originals_come_back(tmp_path):
    jobs = [job("report/type2/2/1"), job("verify/bryant/3")]
    paths = {}
    for j in jobs:
        paths[j["id"]] = tmp_path / (j["id"].replace("/", "_") + ".json")
        paths[j["id"]].write_text(json.dumps(j["scene"]))
    runner = run.Runner(cli, checks, REFERENCE, paths)
    original = geometry.curvature_report
    layers = [run.layer_metrics(tr, tracer, jobs)
              for tr, _ in (run.traced_pass(runner, jobs, tracer) for _ in range(2))]
    assert geometry.curvature_report is original
    assert runner.failures == []
    counts = {k: v for k, (v, _) in layers[0].items() if run.is_count(k)}
    assert counts == {k: v for k, (v, _) in layers[1].items() if run.is_count(k)}
    assert counts["geometry.curvature_report.calls"] > 0
    assert counts["morphism.SubmersionSetup.ctx.calls"] > 0
    assert layers[0]["jets.jet_allocs_per_point"][0] > 0
