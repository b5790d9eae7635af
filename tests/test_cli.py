import collections
import contextlib
import copy
import csv
import dataclasses
import functools
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdharm import (__version__, cli, constructions as con, geometry as geo, jets,
                    morphism as mor, weyl3)
from sdharm.errors import DomainError, SingularEvaluationError

import _oracles as O
from test_compare_outputs import load_tool as load_parity_tool, not_json

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")
README = os.path.join(os.path.dirname(__file__), "..", "README.md")


def scene_path(name):
    return os.path.join(SCENES, name)


def run_cli(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_report_flat_product_all_zero(capsys):
    code, out = run_cli(["report", scene_path("flat_product.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["verdict"] == "pass"
    for rec in rep["records"]:
        assert rec["checks"]["riemann"]["raw"] < 1e-12


def test_report_gibbons_hawking_passes(capsys):
    code, out = run_cli(["report", scene_path("gibbons_hawking.json")], capsys)
    assert code == 0
    rep = json.loads(out)
    for rec in rep["records"]:
        assert rec["checks"]["w_minus"]["normalized"] < 1e-8
        assert rec["checks"]["ricci"]["normalized"] < 1e-8
        assert rec["checks"]["w_plus"]["raw"] > 1e-2


def test_report_negative_control_exits_one(capsys):
    code, out = run_cli(["report", scene_path("type3_control_xdy.json")], capsys)
    assert code == 1
    rep = json.loads(out)
    assert rep["summary"]["verdict"] == "fail"
    failing = [rec for rec in rep["records"]
               if not rec["checks"]["w_minus"]["pass"]]
    assert failing


def test_report_summary_consistency(capsys):
    _, out = run_cli(["report", scene_path("type3_trkalian.json")], capsys)
    rep = json.loads(out)
    for name, entry in rep["summary"]["checks"].items():
        per_point = [rec["checks"][name]["normalized"] for rec in rep["records"]]
        assert entry["max_normalized"] == pytest.approx(max(per_point))
        assert entry["pass"] == all(rec["checks"][name]["pass"]
                                    for rec in rep["records"])
    flags = [rec["checks"][n]["pass"] for rec in rep["records"]
             for n in rep["summary"]["checks"]]
    assert (rep["summary"]["verdict"] == "pass") == all(flags)


def test_verify_type4_twistorial_sd(capsys):
    scene = scene_path("type4_berger_ew.json")
    code, out = run_cli(["verify", scene, "--checks", "twistorial_sd"], capsys)
    assert code == 0
    rep = json.loads(out)
    assert rep["summary"]["checks"]["twistorial_sd"]["pass"]


def test_verify_type3_fundamental(capsys):
    code, out = run_cli(["verify", scene_path("type3_trkalian.json"),
                         "--checks", "fundamental_eq"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["checks"]["fundamental_eq"]["pass"]


def test_verify_unknown_check_usage_error(capsys):
    code, _ = run_cli(["verify", scene_path("type3_trkalian.json"),
                       "--checks", "bogus"], capsys)
    assert code == 64


def test_verify_einstein_weyl_base_only(capsys):
    code, out = run_cli(["verify", scene_path("berger_ew_sweep.json"),
                         "--checks", "einstein_weyl"], capsys)
    assert code == 1          # scale 0.5 is off the Einstein-Weyl locus
    rep = json.loads(out)
    assert rep["summary"]["checks"]["einstein_weyl"]["max_raw"] > 1e-2


@pytest.fixture
def built(monkeypatch):
    """The points of every PointEval built while the test runs, one list per build."""
    points = []

    class Counting(mor.PointEval):
        def __init__(self, setup, batch):
            points.append(list(batch))
            super().__init__(setup, batch)

    monkeypatch.setattr(mor, "PointEval", Counting)
    return points


@pytest.fixture
def form_jets(monkeypatch):
    """(name, shape of the points) for every one-form jets evaluation while
    the test runs, in call order."""
    calls, real = [], geo.OneFormField.jets
    monkeypatch.setattr(geo.OneFormField, "jets", lambda f, p: calls.append(
        (f.name, np.shape(p))) or real(f, p))
    return calls


def test_verify_shares_one_context_per_fibre_sample(capsys, tmp_path, built, metric_shapes,
                                                    form_jets):
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["samples"] = {"points": [[0.2, 1.2, 2.0, 3.0]]}
    p = tmp_path / "one_point.json"
    p.write_text(json.dumps(scene))
    checks = "fundamental_eq,twistorial_basic,twistorial_sd,monopole,einstein_weyl,beltrami"
    code, out = run_cli(["verify", str(p), "--checks", checks], capsys)
    assert code == 0
    assert len(json.loads(out)["records"][0]["checks"]) == 6
    # one evaluation: the point itself and the two other samples of twistorial_basic's fibre
    assert len(built) == 1
    assert (0.2, 1.2, 2.0, 3.0) in built[0]
    assert len(built[0]) == len(set(built[0])) <= 3
    # one total-space metric evaluation over those samples, with h's closure
    # at their base points, and one evaluation of the base metric at the point
    # (a one-row job: the base point's own scalar jets)
    n = len(built[0])
    assert metric_shapes == [("arrays", (n, 4)), ("jets", (n, 3)), ("jets", (3,))]
    # alpha's jets once for einstein_weyl, beltrami and monopole (its unit's:
    # berger_lee is a scaled sigma3); theta's once
    assert form_jets == [("sigma3", (1, 3)), ("type4.theta", (n, 4))]


def test_sweep_holds_each_point_with_its_checks_samples(capsys, built):
    """A step is one verify job: its 5 points and twistorial_basic's fibre
    samples about each (the point among them) are evaluated together, once
    per step: 4 steps, each one evaluation of 5 x 3 points."""
    code, out = run_cli(["sweep", scene_path("type4_berger_ew.json"),
                         "--param", "construction.params.c", "--range", "1.2:2.0",
                         "--steps", "4", "--checks",
                         "fundamental_eq,twistorial_basic,twistorial_sd,monopole"], capsys)
    assert code == 0 and len(_sweep_rows(out)) == 4
    assert len(built) == 4
    assert all(len(points) == len(set(points)) == 15 for points in built)


def test_verify_computes_each_points_fibre_samples_once(capsys, monkeypatch):
    """twistorial_basic's fibre samples about each of the 5 points are computed
    once, for the hold and for the residual: one call on the job's ``(5, 4)``
    array of points."""
    calls, real = [], mor.fibre_samples_about
    monkeypatch.setattr(mor, "fibre_samples_about", lambda fm, p, count=3: calls.append(p)
                        or real(fm, p, count))
    code, out = run_cli(["verify", scene_path("type4_berger_ew.json"), "--checks",
                         "fundamental_eq,twistorial_basic,twistorial_sd"], capsys)
    rep = json.loads(out)
    assert code == 0 and len(rep["records"]) == 5
    assert len(calls) == 1 and calls[0].tolist() == [r["point"] for r in rep["records"]]


def test_sweep_resolves_each_unchanged_ref_and_samples_once(capsys, monkeypatch):
    """A sweep step shares the refs and samples off the swept path with the
    held resolution: each is resolved once per run, and the swept ref at
    every step."""
    names, real = [], cli._resolve_ref
    monkeypatch.setattr(cli, "_resolve_ref", lambda ref, *d: (
        ref and names.append(ref["name"])) or real(ref, *d))
    sampled, real_samples = [], cli.ResolvedScene._sample_points
    monkeypatch.setattr(cli.ResolvedScene, "_sample_points",
                        lambda r: sampled.append(1) or real_samples(r))
    code, out = run_cli(["sweep", scene_path("gibbons_hawking.json"),
                         "--param", "construction.params.u.params.m", "--range", "0.5:1.5",
                         "--steps", "3", "--checks", "fundamental_eq,twistorial_sd"], capsys)
    assert code == 0 and len(_sweep_rows(out)) == 3
    assert sorted(names) == ["dirac_A", "flat3_spherical"] + ["gh_potential"] * 3
    assert len(sampled) == 1


def test_verify_evaluates_each_one_form_once_per_job(capsys, metric_shapes, form_jets):
    """einstein_weyl, beltrami and monopole read one batch of alpha's jets (its
    unit's, sigma3) at the job's five base points, not one per point and
    check, and monopole one of theta; the total and the base metric are
    evaluated once each."""
    code, out = run_cli(["verify", scene_path("type4_berger_ew.json"),
                         "--checks", "einstein_weyl,beltrami,monopole"], capsys)
    assert code == 0 and len(json.loads(out)["records"]) == 5
    assert form_jets == [("sigma3", (5, 3)), ("type4.theta", (5, 4))]
    assert metric_shapes == [("arrays", (5, 4)), ("jets", (5, 3)), ("jets", (5, 3))]


def test_classify_evaluates_each_fibre_once(capsys, monkeypatch, built, metric_shapes):
    """One PointEval and one total-space metric evaluation over all fibre
    samples of the job, and h under each fibre read once."""
    h_reads, real = [], geo.MetricField.values
    monkeypatch.setattr(geo.MetricField, "values", lambda h, p: h_reads.append(p) or real(h, p))
    code, out = run_cli(["classify", scene_path("type4_berger_ew.json")], capsys)
    assert code == 0 and json.loads(out)["label"] == "type4"
    assert len(built) == 1
    assert len(built[0]) == len(set(built[0])) == 20       # 5 points x 4 fibre samples
    assert metric_shapes == [("arrays", (20, 4)), ("jets", (20, 3))]
    assert len(h_reads) == 5


def test_verify_evaluates_the_base_metric_once_per_point(capsys, monkeypatch):
    calls = []
    real = geo.metric_jets
    monkeypatch.setattr(geo, "metric_jets", lambda g, p: calls.append(p) or real(g, p))
    code, out = run_cli(["verify", scene_path("berger_ew_sweep.json"),
                         "--checks", "einstein_weyl"], capsys)
    assert code == 1
    assert len(json.loads(out)["records"]) == 1
    assert len(calls) == 1


def test_verify_closure_reports_the_laplacian(capsys, tmp_path, monkeypatch):
    """closure is |d*du| = |Delta u|: 6 for u = r^2, zero for the harmonic
    Gibbons-Hawking potential."""
    real = cli._resolve_ref

    def resolve(ref, *defaults):
        if ref is not None and ref["name"] == "r_squared":
            return geo.ScalarField(con.flat3_spherical().chart, lambda c: c[0] * c[0])
        return real(ref, *defaults)

    monkeypatch.setattr(cli, "_resolve_ref", resolve)
    scene = {"schema": 1, "base": {"name": "flat3_spherical"},
             "pair": {"u": {"name": "r_squared"}},
             "samples": {"points": [[0.7, 1.2, 2.0], [3.5, 2.5, 5.0]]}}
    p = tmp_path / "r_squared.json"
    p.write_text(json.dumps(scene))
    code, out = run_cli(["verify", str(p), "--checks", "closure"], capsys)
    assert code == 1
    for rec in json.loads(out)["records"]:
        assert rec["checks"]["closure"]["raw"] == pytest.approx(6.0, abs=1e-12)
    code, out = run_cli(["verify", scene_path("gibbons_hawking.json"),
                         "--checks", "closure"], capsys)
    assert code == 0
    assert json.loads(out)["summary"]["checks"]["closure"]["max_raw"] < 1e-13


@pytest.mark.parametrize("args", [["report"], ["verify", "--checks", "closure"],
                                  ["verify", "--checks", "pullback_sd"]])
def test_pair_refs_must_live_on_the_base_chart(args, capsys, tmp_path):
    """gh_potential lives on the spherical chart; a flat3 scene may not pair it."""
    with open(scene_path("type3_trkalian.json")) as fh:
        scene = json.load(fh)
    scene["pair"] = {"u": {"name": "gh_potential"}}
    p = tmp_path / "pair.json"
    p.write_text(json.dumps(scene))
    code = cli.main([args[0], str(p)] + args[1:])
    err = capsys.readouterr().err
    assert code == 64
    assert "lives on chart ('r', 'th', 'ph'), but the base chart is ('x', 'y', 'z')" in err


def test_unknown_catalog_entry_usage_error(capsys, tmp_path):
    p = tmp_path / "unknown.json"
    p.write_text(json.dumps({"schema": 1, "pair": {"u": {"name": "bogus"}},
                             "samples": {"points": [[0.1, 0.2, 0.3]]}}))
    assert cli.main(["report", str(p)]) == 64
    assert "unknown catalog entry 'bogus'" in capsys.readouterr().err


def write_scene(tmp_path, name, edit):
    """A copy of scenes/<name> after ``edit(scene)``, as a file path."""
    with open(scene_path(name)) as fh:
        scene = json.load(fh)
    edit(scene)
    p = tmp_path / name
    p.write_text(json.dumps(scene))
    return str(p)


@pytest.mark.parametrize("name, key, typo, family", [
    ("type4_berger_ew.json", "alpha", "alhpa", "type4"),
    ("gibbons_hawking.json", "u", "U", "type1"),
    ("type2_warped.json", "f", "lam", "type2"),
])
def test_unknown_construction_parameter_usage_error(name, key, typo, family, capsys, tmp_path):
    """A key the family does not take is not dropped: type 4 with 'alhpa'
    would otherwise build without a Lee form and pass its checks."""
    def edit(scene):
        params = scene["construction"]["params"]
        params[typo] = params.pop(key)
    path = write_scene(tmp_path, name, edit)
    for args in (["verify", path, "--checks", "twistorial_sd"], ["report", path]):
        assert cli.main(args) == 64
        assert f"family {family!r} does not take parameter {typo!r}" in capsys.readouterr().err


def _set_base(params):
    return lambda scene: scene.update(base={"name": "berger_s3", "params": params})


def _set_type2_f(ref):
    return lambda scene: scene["construction"]["params"].update(f=ref)


def _set_alpha(ref):
    return lambda scene: scene["construction"]["params"].update(alpha=ref)


@pytest.mark.parametrize("name, edit, message", [
    ("type4_berger_ew.json", _set_base({"nu": 1}),
     "catalog entry 'berger_s3' does not take parameter 'nu'; it takes ['mu']"),
    ("type4_berger_ew.json", _set_base({"mu": "x"}),
     "catalog entry 'berger_s3' parameter 'mu' must be a number, got 'x'"),
    ("type4_berger_ew.json", _set_base({"mu": True}),
     "catalog entry 'berger_s3' parameter 'mu' must be a number, got True"),
    ("type2_warped.json", _set_type2_f({"name": "fibre_exp", "params": {"rat": 2}}),
     "fibre scalar 'fibre_exp' does not take parameter 'rat'; it takes ['rate']"),
    ("type2_warped.json", _set_type2_f({"name": "fibre_exp", "params": {"rate": "x"}}),
     "fibre scalar 'fibre_exp' parameter 'rate' must be a number, got 'x'"),
    ("type2_warped.json", _set_type2_f({"name": "fibre_power"}),
     "fibre scalar 'fibre_power' needs parameter 'p'"),
    ("type4_berger_ew.json", lambda scene: scene["construction"]["params"].update(c=True),
     "family 'type4' parameter 'c' must be a number, got True"),
    # a family's ref that is not a catalog ref fails the scene schema when loaded
    ("type4_berger_ew.json", _set_alpha(5),
     "scene invalid at /construction/params/alpha: 5 is not of type 'object'"),
    ("type4_berger_ew.json", _set_alpha({"params": {}}),
     "scene invalid at /construction/params/alpha: 'name' is a required property"),
    ("type4_berger_ew.json", _set_alpha({"name": "berger_lee", "params": [1]}),
     "scene invalid at /construction/params/alpha/params: [1] is not of type 'object'"),
    ("type2_warped.json", _set_type2_f(2.0),
     "scene invalid at /construction/params/f: 2.0 is not of type 'object'"),
], ids=["unknown", "string", "bool", "fibre-unknown", "fibre-string", "fibre-missing",
        "type4-c-bool", "alpha-number", "alpha-without-name", "alpha-params-list",
        "type2-f-number"])
def test_bad_ref_parameter_usage_error(name, edit, message, capsys, tmp_path):
    assert cli.main(["report", write_scene(tmp_path, name, edit)]) == 64
    assert message in capsys.readouterr().err


def test_out_of_range_ref_parameter_stays_a_domain_error(capsys, tmp_path):
    path = write_scene(tmp_path, "type4_berger_ew.json", _set_base({"mu": -1}))
    assert cli.main(["report", path]) == 2
    assert json.loads(capsys.readouterr().out)["domain_errors"] == [
        {"error": "berger parameter mu must be positive"}]


def _scene_control(name, **fields):
    def build():
        with open(scene_path(name)) as fh:
            resolved = cli.ResolvedScene(cli.validate_scene(dict(json.load(fh), **fields)))
        return resolved, resolved.sample_points()[0]
    return build


def _broken_dilation_control():
    """The type-3 Trkalian scene with lam^-2 = rho^2 stored in place of rho."""
    resolved, points = _scene_control("type3_trkalian.json")()
    resolved.fm = dataclasses.replace(resolved.fm, dilation_sq_inv=geo.ScalarField(
        resolved.fm.total_chart, lambda c: c[0] * c[0], "rho^2"))
    resolved.setup = mor.SubmersionSetup(resolved.fm)
    return resolved, points


def _r_squared_control():
    """The Gibbons-Hawking scene with u = r^2 as its potential: Delta u = 6."""
    resolved, points = _scene_control("gibbons_hawking.json")()
    resolved.pair_u = geo.ScalarField(resolved.h.chart, lambda c: c[0] * c[0], "r^2")
    return resolved, points


CONTROLS = {
    "riemann": _scene_control("gibbons_hawking.json"),
    "ricci": _scene_control("type2_warped.json"),           # Einstein, not Ricci-flat
    "scalar_curv": _scene_control("berger_ew_sweep.json"),  # the Berger 3-sphere
    "einstein": _scene_control("berger_ew_sweep.json"),     # squashed: not Einstein
    "weyl": _scene_control("gibbons_hawking.json"),         # self-dual, not conformally flat
    "w_plus": _scene_control("type4_berger_ew.json"),       # self-dual: W+ is all of W
    "w_minus": _scene_control("type3_control_xdy.json"),    # not self-dual
    "fundamental_eq": _broken_dilation_control,
    "twistorial_basic": _scene_control("type3_control_xdy.json"),
    "twistorial_sd": _scene_control("type3_control_xdy.json"),
    "monopole": _scene_control("type3_control_xdy.json"),
    "pullback_sd": _scene_control("gibbons_hawking.json", pair={
        "u": {"name": "gh_potential", "params": {"m": 3.0}},
        "A": {"name": "dirac_A", "params": {"m": 1.0}}}),
    "einstein_weyl": _scene_control("berger_ew_sweep.json"),   # Berger Lee form at scale 0.5
    "beltrami": _scene_control("type3_control_xdy.json"),
    "closure": _r_squared_control,
}


@pytest.mark.parametrize("check", list(cli.CHECKS))
def test_total_space_check_fails_its_negative_control(check):
    """Every check, run through the CHECKS table, total-space, base and
    curvature scalar alike, reads at least 1e3 times the default tolerance on
    a known-failing input."""
    assert check in CONTROLS, f"check {check!r} has no negative control"
    resolved, points = CONTROLS[check]()
    worst = max(abs(raw[0]) / (1.0 + scale[0]) for raw, scale in
                (cli._checks_at([p], [check], resolved)[check] for p in points))
    assert worst >= 1e3 * cli.DEFAULT_TOL, worst


@settings(max_examples=15, deadline=None)
@given(st.integers(0, 2 ** 31 - 1))
def test_orientation_flip_swaps_w_plus_and_w_minus(seed):
    """Reversing the orientation exchanges the self-dual and anti-self-dual
    Weyl halves exactly, at seeded points of the type-4 Berger scene."""
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["samples"] = {"random": {"count": 2, "seed": seed}}
    records = {}
    with tempfile.TemporaryDirectory() as d:
        for orientation in (1, -1):
            p = os.path.join(d, f"scene{orientation}.json")
            with open(p, "w") as fh:
                json.dump(dict(scene, orientation=orientation), fh)
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert cli.main(["report", p]) in (0, 1)
            records[orientation] = json.loads(out.getvalue())["records"]
    assert len(records[1]) == len(records[-1]) == 2
    for plus, minus in zip(records[1], records[-1]):
        assert plus["point"] == minus["point"]
        for a, b in (("w_plus", "w_minus"), ("w_minus", "w_plus")):
            for key in ("raw", "normalized"):
                assert plus["checks"][a][key] == minus["checks"][b][key]
        assert plus["checks"]["w_plus"]["raw"] > 1e-2 > plus["checks"]["w_minus"]["raw"]


def test_readme_describes_every_verify_check():
    with open(README) as fh:
        lines = re.findall(r"^- `(\w+)`: .+ Scaled by the (total space|base|metric)\.$",
                           fh.read(), re.M)
    assert len(lines) == len(cli.CHECKS)
    assert dict(lines) == {name: {"total": "total space"}.get(check.space, check.space)
                           for name, check in cli.CHECKS.items()}


# The checks whose value changes under ``orientation: -1`` on each construction
# scene.  Every other check that applies keeps its value to 1e-13; the two that
# need a potential apply to gibbons_hawking.json alone.
ORIENTATION_ODD = {
    "flat_product.json": set(),
    "gibbons_hawking.json": {"monopole"},                # 4.4e-16 -> 4.0
    "type2_warped.json": set(),
    "type3_control_xdy.json": set(),
    "type3_trkalian.json": {"twistorial_basic", "twistorial_sd", "monopole", "beltrami"},
    "type4_berger_ew.json": {"twistorial_basic", "twistorial_sd", "monopole", "beltrami"},
}


def _raw_at_orientation(name, check, orientation):
    with open(scene_path(name)) as fh:
        r = cli.ResolvedScene(cli.validate_scene(dict(json.load(fh), orientation=orientation)))
    return np.array([cli._checks_at([p], [check], r)[check][0][0]
                     for p in r.sample_points()[0]])


# The checks that an orientation flip exchanges: W+ and W-.
EXCHANGED = {"w_plus": "w_minus", "w_minus": "w_plus"}


@pytest.mark.parametrize("name", sorted(ORIENTATION_ODD))
def test_orientation_parity_of_every_check(name):
    """An orientation-odd check moves by more than 1e-3 (relative) at some
    point; w_plus and w_minus exchange exactly; every other check keeps its
    value at every point to 1e-13."""
    for check in cli.CHECKS:
        try:
            plus = _raw_at_orientation(name, check, 1)
        except cli.UsageError as exc:
            assert "needs a potential" in str(exc) and name != "gibbons_hawking.json"
            continue
        if check in EXCHANGED:
            assert np.array_equal(_raw_at_orientation(name, EXCHANGED[check], -1), plus), check
            continue
        moved = np.max(np.abs(_raw_at_orientation(name, check, -1) - plus) / (1.0 + np.abs(plus)))
        if check in ORIENTATION_ODD[name]:
            assert moved > 1e-3, (check, moved)
        else:
            assert moved <= 1e-13, (check, moved)


def test_readme_lists_the_orientation_odd_checks():
    with open(README) as fh:
        line = re.search(r"^Orientation-odd checks: (.+)\.$", fh.read(), re.M).group(1)
    assert set(re.findall(r"`(\w+)`", line)) == set.union(*ORIENTATION_ODD.values())


def test_classify_three_families(capsys, tmp_path):
    for scene_name, expected in [("gibbons_hawking.json", "type1"),
                                 ("type2_warped.json", "type2_conformal"),
                                 ("type3_trkalian.json", "type3"),
                                 ("type4_berger_ew.json", "type4")]:
        code, out = run_cli(["classify", scene_path(scene_name)], capsys)
        rep = json.loads(out)
        assert rep["label"] == expected, scene_name
        assert code == 0
    code, out = run_cli(["classify", scene_path("type3_control_xdy.json")], capsys)
    assert code == 1
    assert json.loads(out)["label"] == "nonstandard"


def test_classify_type4_recovers_c(capsys):
    _, out = run_cli(["classify", scene_path("type4_berger_ew.json")], capsys)
    rep = json.loads(out)
    assert rep["results"][0]["recovered_c"] == pytest.approx(1.6, abs=1e-6)


def test_classify_records_bad_point_and_keeps_going(capsys, tmp_path):
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["samples"] = {"points": [[1, 1.2, 2, 3], [1, 2.99, 2, 3]]}
    p = tmp_path / "bad_point.json"
    p.write_text(json.dumps(scene))
    code, out = run_cli(["classify", str(p)], capsys)
    assert code == 2
    rep = json.loads(out)
    assert [e["index"] for e in rep["domain_errors"]] == [1]
    assert "outside chart domain" in rep["domain_errors"][0]["error"]
    assert [r["point"] for r in rep["results"]] == [[1.0, 1.2, 2.0, 3.0]]
    assert rep["label"] == rep["results"][0]["label"] == "type4"


def test_sweep_negative_range_bound(capsys):
    outs = []
    for range_args in (["--range", "-1:1"], ["--range=-1:1"]):
        code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"),
                             "--param", "alpha.params.scale", *range_args,
                             "--steps", "3", "--checks", "einstein_weyl"], capsys)
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1]
    assert [float(l.split(",")[0]) for l in outs[0].splitlines()[1:]] == [-1.0, 0.0, 1.0]


@pytest.mark.parametrize("bounds, steps", [
    ("nan:1", 2), ("0:inf", 2), ("-inf:1", 2), ("1.2", 2), ("a:b", 2), ("0:inf", 1),
    ("-1e308:1e308", 3)])           # finite bounds, but linspace steps through inf
def test_a_sweep_range_of_two_finite_numbers_or_a_usage_error(bounds, steps, capsys):
    """A swept value goes into the scene, which holds no NaN nor infinity."""
    assert cli.main(["sweep", scene_path("berger_ew_sweep.json"), "--param",
                     "alpha.params.scale", f"--range={bounds}", "--steps", str(steps),
                     "--checks", "einstein_weyl"]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: range must be lo:hi\n")


@pytest.mark.parametrize("steps", [cli.MAX_SAMPLE_POINTS + 1, 10 ** 13])
def test_sweep_steps_above_the_sample_limit_are_a_usage_error(steps, capsys, monkeypatch):
    """More steps than MAX_SAMPLE_POINTS are refused before any swept value is
    made (10^13 steps once let numpy's MemoryError escape)."""
    monkeypatch.setattr(cli.np, "linspace", None)
    assert cli.main(["sweep", scene_path("berger_ew_sweep.json"), "--param",
                     "alpha.params.scale", "--range=0.5:1.0", "--steps", str(steps),
                     "--checks", "einstein_weyl"]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: steps ask for {steps} sweep values, more than the "
            f"{cli.MAX_SAMPLE_POINTS} allowed\n")


def test_sweep_locates_einstein_weyl_zero(capsys):
    code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"),
                         "--param", "alpha.params.scale", "--range", "0.5:1.4",
                         "--steps", "10", "--checks", "einstein_weyl",
                         "--locate", "einstein_weyl"], capsys)
    assert code == 0
    located = [l for l in out.splitlines() if l.startswith("# minimum")]
    assert located
    _, _, x, fx = located[0].split(",")
    assert float(x) == pytest.approx(0.96, abs=1e-6)
    assert float(fx) < 1e-7


def test_sweep_type4_c_flat_curve(capsys, tmp_path):
    scene = {
        "schema": 1,
        "base": {"name": "constant_curvature3", "params": {"k": 1.0}},
        "construction": {"family": "type4", "params": {"c": 1.0}},
        "samples": {"points": [[0.3, 0.2, -0.1, 0.4]]},
        "checks": ["twistorial_sd"],
    }
    p = tmp_path / "sweep_c.json"
    p.write_text(json.dumps(scene))
    code, out = run_cli(["sweep", str(p), "--param", "construction.params.c",
                         "--range", "0.5:2.0", "--steps", "4",
                         "--checks", "twistorial_sd"], capsys)
    assert code == 0
    rows = [l for l in out.splitlines()[1:] if l and not l.startswith("#")]
    assert len(rows) == 4
    for row in rows:
        assert float(row.split(",")[1]) < 1e-8


def test_sweep_records_bad_point_and_keeps_going(capsys, tmp_path):
    with open(scene_path("berger_ew_sweep.json")) as fh:
        scene = json.load(fh)
    args = ["--param", "alpha.params.scale", "--range", "0.5:1.4", "--steps", "3",
            "--checks", "einstein_weyl"]
    good = tmp_path / "good.json"
    good.write_text(json.dumps(scene))
    _, expected = run_cli(["sweep", str(good)] + args, capsys)
    scene["samples"]["points"].append([1.2, 2.0, 9.0])      # outside the Euler chart
    mixed = tmp_path / "mixed.json"
    mixed.write_text(json.dumps(scene))
    code, out = run_cli(["sweep", str(mixed)] + args, capsys)
    assert code == 2
    lines = out.splitlines()
    errors = [l for l in lines if l.startswith("# domain_error,")]
    # every good row is kept, with maxima over the good point alone
    assert [l for l in lines if l not in errors] == expected.splitlines()
    assert len(errors) == 3
    for line, value in zip(errors, ("0.5", "0.95", "1.4")):
        _, v, idx, point, message = next(csv.reader([line]))
        assert (v, idx, point) == (value, "1", "1.2 2.0 9.0")
        assert "outside chart domain" in message


def _sweep_rows(out):
    """{swept value: [each check's max normalized residual]} of a sweep's csv rows."""
    rows = [l.split(",") for l in out.splitlines()[1:] if not l.startswith("#")]
    return {float(r[0]): [float(x) for x in r[1:]] for r in rows}


def test_sweep_locate_evaluates_the_base_metric_once(capsys, monkeypatch):
    calls, counts = [], {"curvature": 0, "connection": 0}
    real = geo.metric_jets
    monkeypatch.setattr(geo, "metric_jets", lambda g, p: calls.append(p) or real(g, p))

    def counted(owner, attr, key):
        real = getattr(owner, attr)

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return real(*args, **kwargs)
        monkeypatch.setattr(owner, attr, wrapper)

    counted(geo, "curvature_from_gamma", "curvature")
    counted(weyl3, "weyl_connection_coeffs", "connection")
    code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"),
                         "--param", "alpha.params.scale", "--range", "0.5:1.4",
                         "--steps", "8", "--checks", "einstein_weyl",
                         "--locate", "einstein_weyl"], capsys)
    assert code == 0
    assert any(l.startswith("# minimum,einstein_weyl,") for l in out.splitlines())
    # 8 steps and the golden-section calls all share the one base point, and
    # its curvature: Ric^h for every residual, the Riemann norm for every scale
    assert calls == [(1.2, 2.0, 3.0)]
    assert counts == {"curvature": 1, "connection": 0}


@pytest.mark.parametrize("param, lo, hi", [("base.params.mu", 0.5, 0.95),
                                           ("samples.points.0.0", 0.4, 2.6)])
def test_sweep_matches_a_fresh_verify_of_each_step(param, lo, hi, capsys, tmp_path):
    """A sweep over a slot that moves the base metric or the base point
    re-evaluates it: each row equals ``verify`` of that step's scene."""
    with open(scene_path("berger_ew_sweep.json")) as fh:
        scene = json.load(fh)
    scene["samples"]["points"].append([0.7, 1.0, 5.0])
    p = tmp_path / "sweep.json"
    p.write_text(json.dumps(scene))
    code, out = run_cli(["sweep", str(p), "--param", param, "--range", f"{lo}:{hi}",
                         "--steps", "4", "--checks", "einstein_weyl"], capsys)
    assert code == 0
    rows = _sweep_rows(out)
    assert len(rows) == 4 and len({r[0] for r in rows.values()}) == 4
    for value, (swept,) in rows.items():
        p.write_text(json.dumps(cli.with_slot(scene, cli.scene_slot(scene, param), value)))
        _, out = run_cli(["verify", str(p), "--checks", "einstein_weyl"], capsys)
        assert swept == json.loads(out)["summary"]["checks"]["einstein_weyl"]["max_normalized"]


def _sweep_cases():
    """(id, scene file, points or None, sweep arguments): berger_ew_sweep.json
    with --locate, the parity tool's SWEEPS, and its sweep over a scene with
    points outside the chart."""
    tool = load_parity_tool()
    cases = [("berger_ew_sweep", "berger_ew_sweep.json", None,
              ["--param", "alpha.params.scale", "--range=0.3:1.3", "--steps", "5",
               "--checks", "einstein_weyl", "--locate", "einstein_weyl"]),
             ("located_second", "berger_ew_sweep.json", None,
              ["--param", "alpha.params.scale", "--range=-0.6:0.6", "--steps", "7",
               "--checks", "einstein_weyl,beltrami", "--locate", "beltrami"])]
    for name, param, span, steps, checks, *locate in tool.SWEEPS:
        args = ["--param", param, f"--range={span}", "--steps", str(steps), "--checks", checks]
        cases.append((f"{name}:{param}:{checks}", name, None,
                      args + (["--locate", locate[0]] if locate else [])))
    cases.append(("domain_error", "type4_berger_ew.json", tool.DOMAIN_ERROR_POINTS,
                  tool.DOMAIN_ERROR_SWEEP))
    return cases


SWEEP_CASES = _sweep_cases()


@pytest.mark.parametrize("name, scene_file, points, args", SWEEP_CASES,
                         ids=[case[0] for case in SWEEP_CASES])
def test_every_sweep_row_is_the_maximum_over_verify_records(name, scene_file, points, args,
                                                            capsys, tmp_path):
    """Each row, and each located minimum, is byte for byte the maximum
    normalized value over the records of ``verify`` of that step's scene (of
    each swept check, or of the located one), and the step's domain errors
    are verify's."""
    with open(scene_path(scene_file)) as fh:
        scene = json.load(fh)
    if points is not None:
        scene["samples"] = {"points": points}
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(scene))
    code, out = run_cli(["sweep", str(p), *args], capsys)
    assert code == (2 if points is not None else 0)
    lines = list(csv.reader(io.StringIO(out)))
    param, checks = args[1], [c[:-len("_max_normalized")] for c in lines[0][1:]]
    keys = cli.scene_slot(scene, param)
    steps = [(row[0], checks, row[1:]) for row in lines[1:] if not row[0].startswith("#")]
    steps += [(row[2], [row[1]], [row[3]]) for row in lines if row[0] == "# minimum"]
    errors = [row[1:] for row in lines if row[0] == "# domain_error"]
    assert len(steps) == int(args[args.index("--steps") + 1]) + ("--locate" in args)
    assert (len(errors) > 0) == (points is not None)
    for value, names, cells in steps:
        p.write_text(json.dumps(cli.with_slot(scene, keys, float(value))))
        _, out = run_cli(["verify", str(p), "--checks", ",".join(checks)], capsys)
        report = json.loads(out)
        good = [r["checks"] for r in report["records"] if "error" not in r]
        assert cells == [repr(max(c[name]["normalized"] for c in good))
                         for name in names], value
        if names is checks:                 # a grid row: its domain errors are verify's
            assert [e[1:] for e in errors if e[0] == value] == [
                [str(e["index"]), " ".join(map(str, e["point"])), e["error"]]
                for e in report.get("domain_errors", [])]


# A Lee form that is not a scaled unit: every step of a sweep of its m is a new form.
DIRAC_SWEEP = {"schema": 1, "base": {"name": "flat3_spherical"},
               "alpha": {"name": "dirac_A", "params": {"m": 1.0}},
               "samples": {"points": [[1.2, 1.0, 2.0]]}, "checks": ["einstein_weyl"]}


@pytest.mark.parametrize("scene, args, point, lee_forms", [
    ("berger_ew_sweep.json", ["--param", "alpha.params.scale", "--locate", "einstein_weyl"],
     [1.2, 2.0, 3.0], ["sigma3"]),
    (DIRAC_SWEEP, ["--param", "alpha.params.m"], [1.2, 1.0, 2.0],
     [f"dirac_A({float(m)},1)" for m in np.linspace(0.5, 1.4, 8)])],
    ids=["scaled_locate", "dirac_A"])
def test_a_sweep_seeds_its_base_point_once_per_run(scene, args, point, lee_forms, capsys,
                                                   monkeypatch, tmp_path):
    """The run's base point is seeded in coordinate jets once per field
    evaluated at the held base: h once, and each Lee form read there once.
    Every step and golden-section probe of berger_lee scales the arrays of one
    unit, sigma3, evaluated once; a dirac_A is a new form at each of the 8
    steps."""
    if isinstance(scene, dict):
        (tmp_path / "sweep.json").write_text(json.dumps(scene))
        scene = str(tmp_path / "sweep.json")
    seeded, real = [], jets.seed_all
    monkeypatch.setattr(jets, "seed_all", lambda point: seeded.append(
        np.asarray(point).tolist()) or real(point))
    forms, real_jets = [], geo.OneFormField.jets
    monkeypatch.setattr(geo.OneFormField, "jets", lambda f, p: forms.append(f.name) or
                        real_jets(f, p))
    code, out = run_cli(["sweep", scene_path(scene), *args, "--range", "0.5:1.4",
                         "--steps", "8", "--checks", "einstein_weyl"], capsys)
    assert code == 0 and len(_sweep_rows(out)) == 8
    assert ("# minimum,einstein_weyl," in out) == ("--locate" in args)
    assert forms == lee_forms
    assert seeded == [point] * (1 + len(lee_forms))


def test_sweep_locate_evaluates_the_lee_forms_unit_once(capsys, monkeypatch):
    """Each of a berger_lee sweep's steps and golden-section probes reads the
    Lee form as its unit's arrays, held for the run, times the swept scale:
    the unit's closure runs once, at the one base point, not once per step."""
    unit = con.berger_lee(1.0).unit
    calls, real = [], unit.fn
    monkeypatch.setattr(unit, "fn", lambda c: calls.append(c) or real(c))
    steps, real_ew = [], weyl3.einstein_weyl_residual
    monkeypatch.setattr(weyl3, "einstein_weyl_residual", lambda base, alpha: steps.append(
        alpha.factor) or real_ew(base, alpha))
    code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"),
                         "--param", "alpha.params.scale", "--range", "0.5:1.4",
                         "--steps", "8", "--checks", "einstein_weyl",
                         "--locate", "einstein_weyl"], capsys)
    assert code == 0 and "# minimum,einstein_weyl," in out
    assert len(set(steps)) == len(steps) > 8
    assert len(calls) == 1 and [c.value for c in calls[0]] == [1.2, 2.0, 3.0]


@pytest.mark.parametrize("param, value_range, pointer, message", [
    ("schema", "1:2", "/schema", "1 was expected"),
    ("samples.random.count", "0:1", "/samples/random/count",
     "0.0 is less than the minimum of 1"),
    ("samples.random.seed", "0.5:1", "/samples/random/seed",
     "0.5 is not of type 'integer'"),
    ("samples.random.seed", "-1:0", "/samples/random/seed",
     "-1.0 is less than the minimum of 0"),
    ("checks.0", "1:2", "/checks/0", "1.0 is not of type 'string'"),
    ("checks.-1", "1:2", "/checks/0", "1.0 is not of type 'string'"),
])
def test_sweep_into_an_invalid_slot_reports_the_scene_error(param, value_range, pointer,
                                                             message, capsys, tmp_path):
    """Each step validates only the swept slot; the message is the one a
    validation of the whole scene gives."""
    with open(scene_path("berger_ew_sweep.json")) as fh:
        scene = json.load(fh)
    scene["samples"] = {"random": {"count": 1, "seed": 3}}
    p = tmp_path / "scene.json"
    p.write_text(json.dumps(scene))
    code = cli.main(["sweep", str(p), "--param", param, "--range", value_range,
                     "--steps", "2", "--checks", "einstein_weyl"])
    assert code == 64
    assert capsys.readouterr().err == f"error: scene invalid at {pointer}: {message}\n"
    bad = float(value_range.split(":")[0 if param != "schema" else 1])
    with pytest.raises(cli.UsageError, match=re.escape(f"at {pointer}: {message}") + "$"):
        cli.validate_scene(cli.with_slot(scene, cli.scene_slot(scene, param), bad))


def _numeric_slots(node, keys=()):
    """The keys of every number in a scene's dicts and lists."""
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        return [slot for k, v in items for slot in _numeric_slots(v, keys + (k,))]
    return [keys] if cli._is_number(node) else []


# The slots no scene file has: grid samples, tolerances, orientation and the
# Beltrami sign (enums), and a fibre range.
ALL_SLOTS_SCENE = {
    "schema": 1, "base": {"name": "berger_s3", "params": {"mu": 0.8}},
    "construction": {"family": "type4", "params": {"c": 1.6}, "fibre_range": [-1.0, 1.0]},
    "orientation": -1, "beltrami_sign": 1,
    "samples": {"grid": {"counts": [2, 1, 1, 3], "margin": 0.1}},
    "tolerances": {"default": 1e-8, "einstein_weyl": 1e-6}, "checks": ["einstein_weyl"]}


def _all_scenes():
    """Every scenes/*.json by file name, and ALL_SLOTS_SCENE."""
    scenes = {}
    for path in sorted(os.listdir(scene_path(""))):
        with open(scene_path(path)) as fh:
            scenes[path] = json.load(fh)
    scenes["all_slots"] = ALL_SLOTS_SCENE
    return scenes


def _scene_slots():
    return [pytest.param(scene, keys, id=f"{name}:{'.'.join(map(str, keys))}")
            for name, scene in _all_scenes().items() for keys in _numeric_slots(scene)]


def _verdict(check):
    try:
        check()
    except cli.UsageError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize("scene, keys", _scene_slots())
@settings(max_examples=12, deadline=None)
@given(data=st.data())
def test_slot_check_agrees_with_whole_scene_validation(scene, keys, data):
    """A sweep checks only the value at its slot.  For any value there, a
    number or not, that check and a validation of the whole edited scene give
    the same verdict and message; a list index may be written from the back."""
    node = scene
    for k in keys:
        node = node[k]
    value = data.draw(st.one_of(
        st.sampled_from([0, 0.0, -1, -0.5, 0.5, 1e300, -1e300, node, "abc", True, None]),
        st.integers(-10 ** 20, 10 ** 20),
        st.floats(allow_nan=False, allow_infinity=False)), label="value")
    path, parent = [], scene
    for k in keys:
        back = isinstance(parent, list) and data.draw(st.booleans(), label=f"{k} from the back")
        path.append(str(k - len(parent) if back else k))
        parent = parent[k]
    slot = cli.scene_slot(scene, ".".join(path))
    assert slot == list(keys)
    edited = cli.with_slot(scene, slot, value)
    assert _verdict(lambda: cli.slot_validator(slot)(value)) == \
        _verdict(lambda: cli.validate_scene(edited))


def _schema_keywords(schema):
    """Every keyword of a schema and of the subschemas under ``properties``,
    ``items`` and ``additionalProperties``."""
    subs = list(schema.get("properties", {}).values())
    subs += [schema[k] for k in ("items", "additionalProperties") if isinstance(schema.get(k), dict)]
    return set(schema).union(*map(_schema_keywords, subs))


def test_scene_schema_uses_only_keywords_the_slot_check_handles():
    """The walker's keyword table is what validation and slot checks handle;
    a new keyword (oneOf, anyOf, allOf, if, $ref, patternProperties,
    uniqueItems, ...) must be added there, where slot checks stay local."""
    assert _schema_keywords(cli.SCENE_SCHEMA) <= set(cli._KEYWORDS)


def test_a_schema_keyword_the_walker_lacks_raises(monkeypatch):
    """A schema edit the walker cannot check fails every validation that
    reaches it, instead of passing unchecked."""
    monkeypatch.setitem(cli.SCENE_SCHEMA["properties"], "schema",
                        {"oneOf": [{"const": 1}, {"const": 2}]})
    with pytest.raises(ValueError, match="keyword 'oneOf' is not supported"):
        cli.load_scene(scene_path("flat_product.json"))


MUTANT_VALUES = [0, 1, -1, 0.5, 1e300, "abc", True, None, [], [1, 2, 3], {}]


def _places(node, keys=()):
    """The keys of every value in a scene, the scene's own () first."""
    items = node.items() if isinstance(node, dict) else \
        enumerate(node) if isinstance(node, list) else ()
    return [keys] + [k for key, value in items for k in _places(value, keys + (key,))]


@st.composite
def _mutants(draw):
    """A scene with one to three edits: a value replaced from MUTANT_VALUES, a
    key deleted, an unknown key added, or an item appended to a list."""
    scene = copy.deepcopy(draw(st.sampled_from(list(_all_scenes().values()))))
    for _ in range(draw(st.integers(1, 3))):
        keys = draw(st.sampled_from(_places(scene)))
        node = functools.reduce(lambda n, k: n[k], keys, scene)
        edits = ["replace"] * bool(keys) + ["add"] * isinstance(node, dict)
        edits += ["delete"] * (isinstance(node, dict) and bool(node))
        edits += ["append"] * isinstance(node, list)
        if not edits:
            continue
        edit = draw(st.sampled_from(edits))
        value = copy.deepcopy(draw(st.sampled_from(MUTANT_VALUES)))
        if edit == "replace":
            functools.reduce(lambda n, k: n[k], keys[:-1], scene)[keys[-1]] = value
        elif edit == "add":
            node[draw(st.sampled_from(["unknown", "extra"]))] = value
        elif edit == "delete":
            del node[draw(st.sampled_from(sorted(node)))]
        else:
            node.append(value)
    return scene


def _jsonschema_verdict(scene):
    """The error jsonschema's Draft 2020-12 validator, the walker's oracle,
    gives first, of its errors sorted by path, as validate_scene words it."""
    from jsonschema import Draft202012Validator
    errors = sorted(Draft202012Validator(cli.SCENE_SCHEMA).iter_errors(scene),
                    key=lambda e: list(e.absolute_path))
    if not errors:
        return None
    pointer = "/" + "/".join(map(str, errors[0].absolute_path))
    return f"scene invalid at {pointer}: {errors[0].message}"


@settings(max_examples=400, deadline=None)
@given(scene=_mutants())
def test_validation_reports_the_error_jsonschema_reports_first(scene):
    assert _verdict(lambda: cli.validate_scene(scene)) == _jsonschema_verdict(scene)


PARITY_TOOL = load_parity_tool()


@pytest.mark.parametrize("name", list(PARITY_TOOL.INVALID_SCENES))
def test_each_keyword_violation_reads_as_jsonschema_reads_it(name):
    """The parity tool's invalid scenes: a violation of each keyword, two at
    one pointer, an unknown key beside a missing one."""
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = PARITY_TOOL._edited(json.load(fh), PARITY_TOOL.INVALID_SCENES[name])
    expected = _jsonschema_verdict(scene)
    assert expected is not None and _verdict(lambda: cli.validate_scene(scene)) == expected


def test_loading_scenes_imports_no_jsonschema():
    """The CLI validates scenes in-package: importing it and loading every
    scene leaves jsonschema unimported."""
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import sdharm.cli as cli\n"
            "for path in sys.argv[2:]: cli.load_scene(path)\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'jsonschema'))")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    scenes = [scene_path(name) for name in sorted(os.listdir(scene_path("")))]
    proc = subprocess.run([sys.executable, "-c", code, src, *scenes],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_sweep_step_copies_only_the_swept_path():
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    keys = cli.scene_slot(scene, "construction.params.alpha.params.scale")
    edited = cli.with_slot(scene, keys, 0.5)
    assert scene["construction"]["params"]["alpha"]["params"]["scale"] == 0.96
    assert edited["construction"]["params"]["alpha"]["params"]["scale"] == 0.5
    assert edited["samples"] is scene["samples"] and edited["base"] is scene["base"]
    assert edited["construction"]["params"] is not scene["construction"]["params"]


def _scene_file(name, **fields):
    """scenes/<name> with ``fields`` put in at its top."""
    with open(scene_path(name)) as fh:
        return dict(json.load(fh), **fields)


def _sweep_args(param, span, steps, checks, locate=None):
    return ["--param", param, f"--range={span}", "--steps", str(steps), "--checks", checks,
            *(["--locate", locate] if locate else [])]


# type4_berger_ew.json without a Lee form: its fibration's and the base's is zero.
CONSTRUCTION_WITHOUT_LEE_FORM = _scene_file("type4_berger_ew.json", construction={
    "family": "type4", "params": {"c": 1.6}})


# A sweep of each kind of slot, and of the domain errors a step can meet:
# (scene, sweep arguments).  A step rebuilds what is made from the scene
# objects on the path to its slot: a ref and what is made from it (alpha, a
# pair's, a construction's), the fibration (construction, also without a Lee
# form, whose zero form is h's), everything (base, orientation), the sample
# points (samples, or a fibre range that moves the chart), or nothing
# (tolerances, the Beltrami sign).
STEP_SWEEPS = {
    "alpha_scale": ("berger_ew_sweep.json", _sweep_args(
        "alpha.params.scale", "0.5:1.4", 8, "einstein_weyl,beltrami", "einstein_weyl")),
    "alpha_scale_bad_point": (_scene_file("berger_ew_sweep.json", samples={"points": [
        [1.2, 2.0, 3.0], [1.2, 2.0, 9.0], [0.7, 1.0, 5.0]]}), _sweep_args(
        "alpha.params.scale", "0.5:1.4", 4, "einstein_weyl", "einstein_weyl")),
    "alpha_unscaled": (DIRAC_SWEEP, _sweep_args(
        "alpha.params.m", "0.5:1.4", 5, "einstein_weyl,beltrami")),
    "base_from_a_bad_value": ("berger_ew_sweep.json", _sweep_args(
        "base.params.mu", "-0.4:0.8", 7, "einstein_weyl")),
    "base_to_a_bad_value": ("type4_berger_ew.json", _sweep_args(
        "base.params.mu", "0.9:-0.3", 5, "twistorial_sd,einstein_weyl", "einstein_weyl")),
    "construction_number": ("type4_berger_ew.json", _sweep_args(
        "construction.params.c", "1.0:2.2", 4, "twistorial_sd,monopole,einstein_weyl,w_minus")),
    "construction_without_lee_form": (CONSTRUCTION_WITHOUT_LEE_FORM, _sweep_args(
        "construction.params.c", "1.0:2.2", 4, "einstein_weyl,twistorial_sd")),
    "construction_ref": ("gibbons_hawking.json", _sweep_args(
        "construction.params.u.params.m", "0.5:1.5", 3, "fundamental_eq,pullback_sd,closure")),
    "pair_ref": (_scene_file("gibbons_hawking.json", pair={
        "u": {"name": "gh_potential", "params": {"m": 2.0}}}), _sweep_args(
        "pair.u.params.m", "0.5:1.5", 3, "pullback_sd,closure")),
    "samples": ("berger_ew_sweep.json", _sweep_args(
        "samples.points.0.0", "0.4:2.6", 4, "einstein_weyl")),
    "fibre_range": (ALL_SLOTS_SCENE, _sweep_args(
        "construction.fibre_range.1", "0.5:2.0", 3, "twistorial_sd,einstein_weyl,ricci")),
    "tolerances": (_scene_file("berger_ew_sweep.json", tolerances={"default": 1e-8}),
                   _sweep_args("tolerances.default", "1e-9:1e-3", 3, "einstein_weyl")),
    "orientation": (ALL_SLOTS_SCENE, _sweep_args(
        "orientation", "-1:1", 2, "twistorial_sd,einstein_weyl,w_minus")),
    "beltrami_sign": (_scene_file("berger_ew_sweep.json", beltrami_sign=1), _sweep_args(
        "beltrami_sign", "-1:1", 2, "beltrami,einstein_weyl")),
}


@pytest.mark.parametrize("name", list(STEP_SWEEPS))
def test_a_step_of_the_held_resolution_prints_what_a_whole_resolution_prints(
        name, capsys, monkeypatch, tmp_path):
    """A sweep resolves each step with the resolution it holds, and rebuilds
    only the parts made from the scene objects on the path to its slot; its
    output and exit code are byte for byte those of the same sweep whose
    every step resolves its scene whole (``_oracles.resolve_step_in_full``),
    domain errors and minima included."""
    scene, args = STEP_SWEEPS[name]
    if isinstance(scene, dict):
        (tmp_path / "scene.json").write_text(json.dumps(scene))
        scene = str(tmp_path / "scene.json")
    argv = ["sweep", scene_path(scene), *args]
    held = cli.main(argv), capsys.readouterr()
    monkeypatch.setattr(cli.ResolvedScene, "__init__", O.resolve_step_in_full)
    whole = cli.main(argv), capsys.readouterr()
    assert held == whole
    assert len(_sweep_rows(held[1].out)) >= 2
    assert (held[0] == 2) == ("bad" in name)


def test_a_located_scale_sweep_builds_what_the_scale_leaves_unchanged_once(capsys,
                                                                          monkeypatch):
    """Over the 8 steps and the golden-section probes of a sweep of
    berger_lee's scale, the run draws the sample points and holds h at them
    once, and resolves the base ref once; each step, grid value or probe is
    one resolution of its scene, with its swept ref and its job."""
    built = collections.Counter()

    def count(owner, name):
        real, key = getattr(owner, name), f"{owner.__name__}.{name}"
        monkeypatch.setattr(owner, name, lambda *a, **k: built.update([key]) or real(*a, **k))

    count(cli.ResolvedScene, "__init__")
    count(cli.ResolvedScene, "_sample_points")
    count(weyl3.HeldBase, "__init__")
    count(cli._Job, "__init__")
    refs, real_ref = [], cli._resolve_ref
    monkeypatch.setattr(cli, "_resolve_ref", lambda ref, *d: refs.append(ref["name"]) or
                        real_ref(ref, *d))
    steps, real_ew = [], weyl3.einstein_weyl_residual
    monkeypatch.setattr(weyl3, "einstein_weyl_residual", lambda base, alpha: steps.append(
        alpha.factor) or real_ew(base, alpha))
    code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"), *_sweep_args(
        "alpha.params.scale", "0.5:1.4", 8, "einstein_weyl", "einstein_weyl")], capsys)
    assert code == 0 and len(_sweep_rows(out)) == 8 and "# minimum,einstein_weyl," in out
    assert len(set(steps)) == len(steps) > 8
    assert built == {"ResolvedScene.__init__": len(steps), "ResolvedScene._sample_points": 1,
                     "HeldBase.__init__": 1, "_Job.__init__": len(steps)}
    assert refs == ["berger_s3"] + ["berger_lee"] * len(steps)


def test_a_fibration_sweep_without_a_lee_form_reads_one_zero_form(capsys, monkeypatch,
                                                                  tmp_path):
    """Each of 50 steps of type 4's c rebuilds the fibration, but the zero Lee
    form is made with h, which the steps share: the held base evaluates one
    form's arrays, not one per step."""
    bases, real = [], weyl3.HeldBase.__init__
    monkeypatch.setattr(weyl3.HeldBase, "__init__", lambda b, *a: bases.append(b) or real(b, *a))
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(CONSTRUCTION_WITHOUT_LEE_FORM))
    code, out = run_cli(["sweep", str(path), *_sweep_args(
        "construction.params.c", "1.0:2.2", 50, "einstein_weyl")], capsys)
    assert code == 0 and len(_sweep_rows(out)) == 50
    assert len(bases) == 1 and len(bases[0]._arrays) == 1


@pytest.mark.parametrize("points", [[[1.2, 2.0, 3.0]], [[1.2, 2.0, 3.0], [1.2, 2.0, 9.0]]],
                         ids=["clean", "bad_point"])
def test_a_located_check_without_an_interior_minimum_says_so(points, capsys, tmp_path):
    """einstein_weyl on berger_ew_sweep.json peaks at scale 0 and has its
    minima at +-0.96, outside -0.6:0.6: after the rows and the domain errors,
    one ``# no_minimum`` line names the check, and the exit code is the
    sweep's."""
    path = tmp_path / "scene.json"
    path.write_text(json.dumps(_scene_file("berger_ew_sweep.json", samples={"points": points})))
    code, out = run_cli(["sweep", str(path), *_sweep_args(
        "alpha.params.scale", "-0.6:0.6", 7, "einstein_weyl", "einstein_weyl")], capsys)
    lines = out.splitlines()
    errors = [l for l in lines if l.startswith("# domain_error,")]
    assert code == (2 if errors else 0) and len(errors) == 7 * (len(points) - 1)
    assert len(_sweep_rows(out)) == 7
    assert lines[8:] == errors + ["# no_minimum,einstein_weyl"]


@pytest.mark.parametrize("param", ["samples.random.seed", "samples.random.count"])
def test_sweep_over_an_integer_slot(param, capsys):
    code, out = run_cli(["sweep", scene_path("type4_berger_ew.json"), "--param", param,
                         "--range", "1:3", "--steps", "3", "--checks", "einstein_weyl"],
                        capsys)
    assert code == 0
    assert list(_sweep_rows(out)) == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("command", [["report"], ["verify", "--checks", "twistorial_sd"],
                                     ["classify"], ["sweep", "--param", "construction.params.c",
                                                    "--range", "1:2", "--steps", "2",
                                                    "--checks", "twistorial_sd"]])
def test_an_empty_list_of_points_is_a_usage_error(command, capsys, tmp_path):
    """An empty ``samples.points`` is malformed, as a grid or a random count
    of zero is; no command passes over zero points."""
    path = write_scene(tmp_path, "type4_berger_ew.json",
                       lambda scene: scene.update(samples={"points": []}))
    name, *args = command
    assert cli.main([name, path] + args) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "scene invalid at /samples/points: [] should be non-empty" in captured.err


def test_sweep_zero_steps_usage_error(capsys):
    code, _ = run_cli(["sweep", scene_path("berger_ew_sweep.json"),
                       "--param", "alpha.params.scale", "--range", "0.5:1.4",
                       "--steps", "0", "--checks", "einstein_weyl"], capsys)
    assert code == 64


def test_sweep_non_numeric_param_usage_error(capsys):
    code, _ = run_cli(["sweep", scene_path("berger_ew_sweep.json"),
                       "--param", "alpha.name", "--range", "0:1",
                       "--steps", "2", "--checks", "einstein_weyl"], capsys)
    assert code == 64


def test_sweep_locate_of_an_unswept_check_is_a_usage_error_before_any_step(capsys,
                                                                           monkeypatch):
    built = []
    monkeypatch.setattr(cli.ResolvedScene, "__init__", lambda *a: built.append(a))
    code = cli.main(["sweep", scene_path("berger_ew_sweep.json"),
                     "--param", "alpha.params.scale", "--range", "0.5:1.4",
                     "--steps", "4", "--checks", "einstein_weyl", "--locate", "beltrami"])
    assert code == 64 and built == []
    assert capsys.readouterr().err == "error: --locate check must be one of the swept checks\n"


@pytest.mark.parametrize("param, missing", [("samples.points.5.0", "5"),
                                            ("samples.points.x.0", "x"),
                                            ("alpha.params.scale.x", "x"),
                                            ("nothing.here", "nothing")])
def test_sweep_path_not_in_the_scene_usage_error(param, missing, capsys):
    code = cli.main(["sweep", scene_path("berger_ew_sweep.json"), "--param", param,
                     "--range", "0:1", "--steps", "2", "--checks", "einstein_weyl"])
    assert code == 64
    assert capsys.readouterr().err == \
        f"error: sweep parameter path {param!r} not found at {missing!r}\n"


def test_catalog_list_and_describe(capsys):
    code, out = run_cli(["catalog", "list"], capsys)
    assert code == 0
    entries = json.loads(out)["entries"]
    assert len(entries) >= 6
    code, out = run_cli(["catalog", "describe", "trkalian"], capsys)
    assert code == 0
    desc = json.loads(out)
    assert "cos z dx" in desc["formula"]
    assert desc["validation"]["beltrami_residual"] < 1e-10
    code, _ = run_cli(["catalog", "describe", "bogus"], capsys)
    assert code == 64


CATALOG_VALIDATION = {
    "berger_lee": "curl_deviation", "berger_s3": "scalar_deviation",
    "constant_curvature3": "sectional_deviation", "dirac_A": "monopole_deviation",
    "dirac_theta": "monopole_deviation",
    "euler_s3_frame": "structure_equation_deviation", "flat3": "riemann_norm",
    "flat3_spherical": "riemann_norm", "gh_potential": "laplacian",
    "round_s3_euler": "scalar_deviation", "trkalian": "beltrami_residual",
    "xdy": "min_beltrami_residual",
}


CATALOG_TOL = 1e-12          # every validation residual reads below it, but x dy's
NOT_BELTRAMI_FLOOR = 0.5     # x dy, the non-Beltrami control, reads above it


@pytest.mark.parametrize("name", con.catalog_names())
def test_catalog_describe_validates_every_entry(name, capsys):
    code, out = run_cli(["catalog", "describe", name], capsys)
    assert code == 0
    validation = json.loads(out)["validation"]
    assert list(validation) == [CATALOG_VALIDATION[name]]
    for key, value in validation.items():
        assert type(value) is float
        if key == "min_beltrami_residual":
            assert value > NOT_BELTRAMI_FLOOR
        else:
            assert value < CATALOG_TOL


def _perturbed_euler_frame():
    s1, s2, s3 = con.euler_s3_frame()
    return (s1, s2, geo.OneFormField(s3.chart, lambda c: [2.0 * x for x in s3.fn(c)], "2 s3"))


# For each catalog entry, (object, params) that its own validator must reject.
CATALOG_CONTROLS = {
    "flat3": lambda: (con.constant_curvature3(1.0), {}),
    "flat3_spherical": lambda: (geo.MetricField(                 # sin^2 th dropped
        con.flat3_spherical().chart,
        lambda c: [[1.0 + 0 * c[0], 0, 0], [0, c[0] * c[0], 0], [0, 0, c[0] * c[0]]]), {}),
    "constant_curvature3": lambda: (con.constant_curvature3(1.0), {"k": -1.0}),
    "round_s3_euler": lambda: (con.berger_s3(0.6), {}),
    "berger_s3": lambda: (con.berger_s3(0.8), {"mu": 0.6}),
    "euler_s3_frame": lambda: (_perturbed_euler_frame(), {}),
    "trkalian": lambda: (con.xdy(), {"sign": 1}),
    "xdy": lambda: (con.trkalian(1), {}),
    "berger_lee": lambda: (con.berger_lee(0.96), {"scale": 0.5}),
    "gh_potential": lambda: (geo.ScalarField(con.flat3_spherical().chart,
                                             lambda c: c[0] * c[0], "r^2"), {"m": 1.0}),
    "dirac_A": lambda: (con.dirac_A(1.0), {"m": 2.0, "sign": 1}),
    "dirac_theta": lambda: (con.dirac_theta(1.0), {"m": 2.0, "sign": 1}),
}


@pytest.mark.parametrize("name", con.catalog_names())
def test_catalog_validator_fails_its_negative_control(name):
    """Each catalog validator misses its own bar by at least 1e3 on a known-bad
    input, so a validator that reads 0 whatever its input cannot pass."""
    assert name in CATALOG_CONTROLS, f"catalog entry {name!r} has no negative control"
    obj, params = CATALOG_CONTROLS[name]()
    (key, value), = con.CATALOG[name].validate(obj, params).items()
    assert key == CATALOG_VALIDATION[name]
    if key == "min_beltrami_residual":
        assert value <= NOT_BELTRAMI_FLOOR / 1e3, value
    else:
        assert value >= 1e3 * CATALOG_TOL, value


def test_malformed_scene_reports_pointer(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"schema": 1, "samples": {"random": {"count": 3}}}))
    code, _ = run_cli(["report", str(p)], capsys)
    err = capsys.readouterr()
    assert code == 64


def test_unknown_scene_field_rejected(tmp_path, capsys):
    p = tmp_path / "bad2.json"
    p.write_text(json.dumps({"schema": 1, "samples": {"points": [[0, 0, 0]]},
                             "extra_field": 1}))
    code, _ = run_cli(["report", str(p)], capsys)
    assert code == 64


def test_wrong_schema_version_rejected(tmp_path, capsys):
    p = tmp_path / "bad3.json"
    p.write_text(json.dumps({"schema": 2, "samples": {"points": [[0, 0, 0]]}}))
    code, _ = run_cli(["report", str(p)], capsys)
    assert code == 64


def test_domain_violation_exit_two(tmp_path, capsys):
    scene = {
        "schema": 1,
        "base": {"name": "flat3"},
        "construction": {"family": "type3"},
        "samples": {"points": [[1.0, 0.0, 0.0, 0.0], [-2.0, 0.0, 0.0, 0.0]]},
        "checks": ["w_minus"],
    }
    p = tmp_path / "dom.json"
    p.write_text(json.dumps(scene))
    code, out = run_cli(["report", str(p)], capsys)
    assert code == 2
    rep = json.loads(out)
    assert len(rep["domain_errors"]) == 1
    assert rep["domain_errors"][0]["index"] == 1


def test_report_evaluates_its_points_in_one_pass(capsys, metric_shapes):
    """One evaluation of the total metric over the 5 points, with h's closure
    once at their base points."""
    code, out = run_cli(["report", scene_path("type4_berger_ew.json")], capsys)
    assert code == 0 and len(json.loads(out)["records"]) == 5
    assert metric_shapes == [("arrays", (5, 4)), ("jets", (5, 3))]


def _fallback_scene(tmp_path, points):
    """The type-4 Berger scene with c = -1, so that e^rho + c <= 0 where rho <= 0."""
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["construction"]["params"]["c"] = -1.0
    scene["samples"] = {"points": points}
    p = tmp_path / f"fallback{len(points)}.json"
    p.write_text(json.dumps(scene))
    return str(p)


def test_report_batch_with_bad_points_falls_back_to_each_point(capsys, tmp_path):
    """A point outside the chart and one with e^rho + c <= 0 fail the batch;
    ``errors.isolate`` then splits the job down to them, they are named as one
    point at a time names them, and the good points keep the batch's values."""
    good = [[0.5, 1.2, 2.0, 3.0], [1.1, 0.7, 4.0, 1.0], [0.3, 2.2, 1.0, 5.0]]
    mixed = [good[0], [0.9, 3.0, 2.0, 3.0], good[1], [-0.5, 1.2, 2.0, 3.0], good[2]]
    code, out = run_cli(["report", _fallback_scene(tmp_path, mixed)], capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["domain_errors"] == [
        {"index": 1, "point": [0.9, 3.0, 2.0, 3.0],
         "error": "point (0.9, 3.0, 2.0, 3.0) outside chart domain [('rho', -1.5, 1.5), "
                  "('th', 0.3, 2.8), ('ps', 0.1, 6.0), ('ph', 0.1, 6.0)]"},
        {"index": 3, "point": [-0.5, 1.2, 2.0, 3.0],
         "error": "e^rho + c must be positive on the domain, got -0.393469 "
                  "at (-0.5, 1.2, 2.0, 3.0)"}]
    code, out = run_cli(["report", _fallback_scene(tmp_path, good)], capsys)
    assert code == 1                       # c = -1 is not self-dual: w_minus fails
    batch = json.loads(out)["records"]
    alone = [rep["records"][i] for i in (0, 2, 4)]
    for one, many in zip(alone, batch):
        assert one["point"] == many["point"] and "error" not in one
        for name, entry in many["checks"].items():
            assert one["checks"][name]["pass"] == entry["pass"]
            for key in ("raw", "normalized"):
                ref = entry[key]
                assert abs(one["checks"][name][key] - ref) <= 1e-13 * (1 + abs(ref))


_OUTSIDE = ("outside chart domain [('rho', -1.5, 1.5), ('th', 0.3, 2.8), ('ps', 0.1, 6.0), "
            "('ph', 0.1, 6.0)]")
_NEIGHBOUR = ("e^rho + c must be positive on the domain, got -0.117503 "
              "at (-0.12499999999999997, 1.2, 2.0, 3.0)")


def assert_close(one, many, path=""):
    """Equal JSON, numbers within 1e-13 (1 + |many|)."""
    if isinstance(many, dict):
        assert one.keys() == many.keys(), path
        for key in many:
            assert_close(one[key], many[key], f"{path}.{key}")
    elif isinstance(many, list):
        assert len(one) == len(many), path
        for i, (a, b) in enumerate(zip(one, many)):
            assert_close(a, b, f"{path}[{i}]")
    elif isinstance(many, float) and not isinstance(one, bool):
        assert abs(one - many) <= 1e-13 * (1 + abs(many)), (path, one, many)
    else:
        assert one == many, path


@pytest.mark.parametrize("command, errors", [
    (["verify", "--checks", "fundamental_eq,twistorial_basic,twistorial_sd,monopole,"
                            "einstein_weyl,beltrami"],
     [f"point (0.9, 3.0, 2.0, 3.0) {_OUTSIDE}",
      "e^rho + c must be positive on the domain, got -0.393469 at (-0.5, 1.2, 2.0, 3.0)",
      _NEIGHBOUR]),
    (["classify"],
     [f"point (0.9, 3.0, 2.0, 3.0) {_OUTSIDE}",
      "e^rho + c must be positive on the domain, got -0.515675 at (-0.725, 1.2, 2.0, 3.0)",
      _NEIGHBOUR]),
])
def test_fibre_batch_with_bad_points_falls_back_to_each_point(command, errors, capsys,
                                                              tmp_path):
    """verify and classify evaluate a job's fibre samples in one batch.  A point
    outside the chart, one with e^rho + c <= 0, and one whose fibre neighbour
    has e^rho + c <= 0 fail the batch; ``errors.isolate`` then splits the job
    down to them, each named as one point at a time names it (the first sample
    that fails), and the good points agree with a batched run over them alone."""
    good = [[0.5, 1.2, 2.0, 3.0], [1.1, 0.7, 4.0, 1.0], [0.3, 2.2, 1.0, 5.0]]
    bad = [[0.9, 3.0, 2.0, 3.0], [-0.5, 1.2, 2.0, 3.0], [0.1, 1.2, 2.0, 3.0]]
    mixed = [good[0], bad[0], good[1], bad[1], bad[2], good[2]]
    name, *args = command
    code, out = run_cli([name, _fallback_scene(tmp_path, mixed)] + args, capsys)
    assert code == 2
    rep = json.loads(out)
    assert rep["domain_errors"] == [{"index": i, "point": p, "error": e} for i, p, e in
                                    zip((1, 3, 4), bad, errors)]
    code, out = run_cli([name, _fallback_scene(tmp_path, good)] + args, capsys)
    assert code == 1                       # c = -1 is not self-dual
    alone = json.loads(out)
    if name == "verify":
        assert [r["index"] for r in alone["records"]] == [0, 1, 2]
        assert_close([dict(rep["records"][i], index=j) for j, i in enumerate((0, 2, 5))],
                     alone["records"])
    else:
        assert_close(rep["results"], alone["results"])


@pytest.mark.parametrize("command", [["report"], ["verify", "--checks", "twistorial_basic"],
                                     ["classify"]])
def test_a_point_off_the_fibre_range_is_a_domain_error(command, capsys, tmp_path):
    """rho = 1.6 lies beyond the fibre range (-1.5, 1.5): every command
    records the point as a domain error and goes on with the others (classify
    took the samples clipped into the chart, too few to classify, and raised
    a ValueError that aborted the run)."""
    points = [[0.5, 1.2, 2.0, 3.0], [1.6, 1.2, 2.0, 3.0]]
    path = write_scene(tmp_path, "type4_berger_ew.json",
                       lambda scene: scene.update(samples={"points": points}))
    name, *args = command
    code, out = run_cli([name, path] + args, capsys)
    assert code == 2
    assert json.loads(out)["domain_errors"] == [
        {"index": 1, "point": points[1], "error": f"point (1.6, 1.2, 2.0, 3.0) {_OUTSIDE}"}]


@pytest.mark.parametrize("command", [["report"],
                                     ["verify", "--checks", "fundamental_eq,twistorial_sd"],
                                     ["classify"]])
def test_a_point_whose_metric_overflows_is_a_domain_error(command, capsys, tmp_path):
    """exp(3 x0) is beyond the float range at x0 = 300: each command names that
    point in domain_errors and exits 2, where an OverflowError escaped before.
    report and verify keep the good point's record; classify's fibre samples
    about it reach x0 = 11, where exp(±33) makes the metric numerically
    singular, so it names that point too."""
    points = [[300.0, 0.1, 0.2, 0.3], [1.0, 0.1, 0.2, 0.3]]

    def edit(scene):
        scene["construction"].update(params={"f": {"name": "fibre_exp", "params": {"rate": 3}}},
                                     fibre_range=[0, 400])
        scene["samples"] = {"points": points}
    path = write_scene(tmp_path, "type2_warped.json", edit)
    name, *args = command
    code, out = run_cli([name, path] + args, capsys)
    assert code == 2
    rep = json.loads(out)
    overflow, *others = rep["domain_errors"]
    assert overflow["index"] == 0 and overflow["point"] == points[0]
    assert re.fullmatch(r"exp overflows \(arg \d+\.0\) at point \(\d+\.0, 0\.1, 0\.2, 0\.3\)",
                        overflow["error"])
    if name == "classify":
        assert [(e["index"], e["error"].split(" at ")[0]) for e in others] == \
            [(1, "metric is singular")]
    else:
        assert others == [] and all(c["pass"] for c in rep["records"][1]["checks"].values())


def test_a_failing_hold_raises_the_first_point_that_fails_alone(tmp_path):
    """A hold whose batch fails is split down to one-point batches, and raises
    the error of the first point that fails alone: the fibre neighbour of a
    bad point here, named as a run of that point alone names it."""
    good, bad = (0.5, 1.2, 2.0, 3.0), (-0.5, 1.2, 2.0, 3.0)
    neighbour = (-0.12499999999999997, 1.2, 2.0, 3.0)   # a fibre sample about (0.1, 1.2, 2, 3)
    scene = cli.load_scene(_fallback_scene(tmp_path, [list(good)]))
    setup = cli.ResolvedScene(scene).setup
    with pytest.raises(DomainError) as exc:
        setup.hold([good, neighbour, bad])
    assert str(exc.value) == _NEIGHBOUR


def test_base_batch_with_a_bad_point_falls_back_to_each_point(capsys, tmp_path):
    """The base checks run once over the job's base points; a point outside
    the chart fails that batch, is named as one point at a time names it, and
    the other points agree with a run over them alone."""
    good = [[1.2, 2.0, 3.0], [0.7, 1.0, 5.0]]
    bad = [2.9, 2.0, 3.0]
    runs = {}
    for key, points in (("mixed", [good[0], bad, good[1]]), ("good", good)):
        path = write_scene(tmp_path, "berger_ew_sweep.json",
                           lambda scene: scene.update(samples={"points": points}))
        runs[key] = run_cli(["verify", path, "--checks", "einstein_weyl,beltrami"], capsys)
    code, out = runs["mixed"]
    assert code == 2
    rep = json.loads(out)
    assert rep["domain_errors"] == [{
        "index": 1, "point": bad,
        "error": "point (2.9, 2.0, 3.0) outside chart domain [('th', 0.3, 2.8), "
                 "('ps', 0.1, 6.0), ('ph', 0.1, 6.0)]"}]
    code, out = runs["good"]
    assert code == 1                       # scale 0.5 is off the Einstein-Weyl locus
    alone = json.loads(out)["records"]
    assert_close([dict(rep["records"][i], index=j) for j, i in enumerate((0, 2))], alone)


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    calls, real = [], cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: calls.append(1) or real())
    cli._parser.cache_clear()
    try:
        for _ in range(2):
            assert cli.main(["catalog", "list"]) == 0
        assert calls == [1]
    finally:
        cli._parser.cache_clear()
    capsys.readouterr()


def test_determinism_identical_hashes(capsys):
    outs = []
    for _ in range(2):
        _, out = run_cli(["report", scene_path("type3_trkalian.json")], capsys)
        outs.append(json.loads(out))
    assert outs[0]["report_hash"] == outs[1]["report_hash"]
    strip = lambda r: {k: v for k, v in r.items() if k != "timestamp"}
    assert json.dumps(strip(outs[0]), sort_keys=True) == \
        json.dumps(strip(outs[1]), sort_keys=True)


def _domain_error_scene(tmp_path):
    """type4_berger_ew.json with a point outside its chart between good ones."""
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["samples"] = {"points": [[0.5, 1.2, 2.0, 3.0], [0.9, 3.0, 2.0, 3.0],
                                   [1.1, 0.7, 4.0, 1.0]]}
    p = tmp_path / "domain_error.json"
    p.write_text(json.dumps(scene))
    return str(p)


@pytest.mark.parametrize("args", [
    ["report"], ["verify", "--checks", "fundamental_eq,twistorial_basic,einstein_weyl"]])
@pytest.mark.parametrize("bad", [False, True], ids=["good", "domain_error"])
def test_emitted_report_is_its_canonical_json_and_hashed(args, bad, capsys, tmp_path):
    """stdout is canonical_json of the report it parses to, and report_hash is
    the sha256 of canonical_json of the report without report_hash and
    timestamp; with and without domain_errors."""
    scene = _domain_error_scene(tmp_path) if bad else scene_path("type4_berger_ew.json")
    code, out = run_cli([args[0], scene, *args[1:]], capsys)
    assert code == (cli.EXIT_DOMAIN if bad else cli.EXIT_OK)
    rep = json.loads(out)
    assert ("domain_errors" in rep) == bad
    assert out == cli.canonical_json(rep) + "\n"
    rest = {k: v for k, v in rep.items() if k not in ("report_hash", "timestamp")}
    assert rep["report_hash"] == hashlib.sha256(cli.canonical_json(rest).encode()).hexdigest()


def _old_grid(chart, counts, margin):
    """The grid samples, one point at a time, as sample_points built them."""
    lo, hi = np.asarray(chart.lo), np.asarray(chart.hi)
    axes = [np.linspace(l + margin * (u - l), u - margin * (u - l), n)
            for l, u, n in zip(lo, hi, counts)]
    mesh = np.meshgrid(*axes, indexing="ij")
    return [tuple(float(m[idx]) for m in mesh) for idx in np.ndindex(*counts)]


def _old_random(chart, count, seed):
    """The random samples, one draw per point, as sample_points drew them."""
    lo, hi = np.asarray(chart.lo), np.asarray(chart.hi)
    rng, margin = np.random.default_rng(seed), 0.05 * (hi - lo)
    return [tuple(map(float, rng.uniform(lo + margin, hi - margin))) for _ in range(count)]


@pytest.mark.parametrize("name, counts", [("berger_ew_sweep.json", [3, 1, 4]),
                                          ("type4_berger_ew.json", [2, 3, 1, 4])])
def test_samples_equal_the_per_point_formulas(name, counts):
    """grid and random samples on a 3-chart and a 4-chart equal the per-point
    formulas element for element, as Python floats."""
    with open(scene_path(name)) as fh:
        scene = json.load(fh)
    for samples, expected in [
            ({"grid": {"counts": counts, "margin": 0.15}},
             lambda chart: _old_grid(chart, counts, 0.15)),
            ({"grid": {"counts": counts}}, lambda chart: _old_grid(chart, counts, 0.1)),
            ({"random": {"count": 7, "seed": 12345}}, lambda chart: _old_random(chart, 7, 12345))]:
        resolved = cli.ResolvedScene(dict(scene, samples=samples))
        points, _ = resolved.sample_points()
        assert len(points[0]) == resolved.chart.dim == len(counts)
        assert points == expected(resolved.chart)
        assert all(type(x) is float for p in points for x in p)


@settings(max_examples=40, deadline=None)
@given(counts=st.lists(st.integers(1, 5), min_size=4, max_size=4),
       margin=st.one_of(st.none(), st.floats(0.0, 0.45)),
       orientation=st.sampled_from([1, -1]))
def test_grid_samples_equal_the_meshgrid_construction_bit_for_bit(counts, margin, orientation):
    """The grid, the product of its axes in C order, equals the meshgrid of the
    same axes read point by point, bit for bit (signed zeros included), as
    Python floats, on the type-4 chart and on the flat chart's negative
    coordinates, at either orientation."""
    grid = {"counts": counts} if margin is None else {"counts": counts, "margin": margin}
    for name in ("type4_berger_ew.json", "type3_trkalian.json"):
        with open(scene_path(name)) as fh:
            scene = dict(json.load(fh), samples={"grid": grid}, orientation=orientation)
        resolved = cli.ResolvedScene(cli.validate_scene(scene))
        points, seed = resolved.sample_points()
        expected = _old_grid(resolved.chart, counts, 0.1 if margin is None else margin)
        assert seed is None and all(type(x) is float for p in points for x in p)
        assert np.array(points).tobytes() == np.array(expected).tobytes()


def test_tolerance_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e30")
    code, _ = run_cli(["report", scene_path("type3_control_xdy.json")], capsys)
    assert code == 0          # absurd tolerance turns the failure into a pass
    monkeypatch.delenv(cli.TOL_ENV_VAR)


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "0", "-1"])
@pytest.mark.parametrize("command", ["report", "verify"])
def test_tolerance_env_must_be_finite_and_positive(value, command, capsys, monkeypatch):
    """A bad SDHARM_TOL is a usage error naming the variable, not a traceback
    (abc) or a tolerance that fails (nan, 0, -1) or passes (inf) every check."""
    monkeypatch.setenv(cli.TOL_ENV_VAR, value)
    code = cli.main([command, scene_path("type3_trkalian.json")])
    captured = capsys.readouterr()
    assert code == cli.EXIT_USAGE and captured.out == ""
    assert captured.err == (f"error: environment variable SDHARM_TOL must be a finite "
                            f"positive number, got {value!r}\n")


def test_tolerance_env_is_read_once_per_command(capsys, monkeypatch):
    """The scene's default, else SDHARM_TOL read once, sets every gate."""
    monkeypatch.setenv(cli.TOL_ENV_VAR, "1e-3")
    reads, real = [], cli._env_tolerance
    monkeypatch.setattr(cli, "_env_tolerance", lambda: reads.append(1) or real())
    code, out = run_cli(["report", scene_path("type4_berger_ew.json")], capsys)
    assert code == 0 and len(json.loads(out)["records"]) == 5
    assert len(reads) == 1
    scene = cli.load_scene(scene_path("type3_trkalian.json"))
    assert cli.ResolvedScene(scene).tolerance_for("w_minus") == 1e-3
    scene["tolerances"] = {"default": 1e-6}
    assert cli.ResolvedScene(scene).tolerance_for("w_minus") == 1e-6


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "sdharm.cli", "catalog", "list"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "trkalian" in proc.stdout


def test_csv_format(capsys):
    code, out = run_cli(["report", scene_path("gibbons_hawking.json"),
                         "--format", "csv"], capsys)
    assert code == 0
    header = out.splitlines()[0]
    assert header.split(",") == ["index", "point", "check", "raw", "normalized",
                                 "pass"]


def test_grid_sampling(tmp_path, capsys):
    scene = {
        "schema": 1,
        "base": {"name": "flat3"},
        "construction": {"family": "type3",
                         "params": {"A": {"name": "trkalian", "params": {"sign": 1}}}},
        "samples": {"grid": {"counts": [2, 2, 2, 2], "margin": 0.2}},
        "checks": ["w_minus"],
    }
    p = tmp_path / "grid.json"
    p.write_text(json.dumps(scene))
    code, out = run_cli(["report", str(p)], capsys)
    assert code == 0
    rep = json.loads(out)
    assert len(rep["records"]) == 16


# ---------------------------------------------------------------------------
# the output file, CSV domain errors, and the usage errors of the command line
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args", [
    ["catalog", "describe", "flat3"],
    ["verify", scene_path("type4_berger_ew.json"), "--checks", "twistorial_sd", "--format",
     "csv"],
], ids=["catalog", "verify-csv"])
def test_out_writes_to_the_file_what_stdout_gets_without_it(args, capsys, tmp_path):
    code, out = run_cli(args, capsys)
    path = tmp_path / "out.txt"
    assert cli.main(args + ["--out", str(path)]) == code == 0
    assert capsys.readouterr().out == ""
    assert path.read_bytes() == out.encode() != b""


def test_verify_csv_writes_a_row_per_domain_error(capsys, tmp_path):
    """A point outside the chart is one ``domain_error`` row, with its message
    in the raw column, an empty normalized value and a failed pass; the good
    point keeps its check's row.  The exit code is that of a domain error."""
    def edit(scene):
        scene["samples"] = {"points": [[0.5, 1.2, 2.0, 3.0], [0.9, 3.0, 2.0, 3.0]]}
    path = write_scene(tmp_path, "type4_berger_ew.json", edit)
    code, out = run_cli(["verify", path, "--checks", "twistorial_sd", "--format", "csv"], capsys)
    assert code == 2
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["index", "point", "check", "raw", "normalized", "pass"]
    assert [r[:3] for r in rows[1:]] == [["0", "0.5 1.2 2.0 3.0", "twistorial_sd"],
                                         ["1", "0.9 3.0 2.0 3.0", "domain_error"]]
    assert rows[2][3].startswith("point (0.9, 3.0, 2.0, 3.0) outside chart domain")
    assert rows[2][4:] == ["", "False"]


NOT_FINITE = [(("construction", "params", "c"), 1e300, "beltrami"),
              (("construction", "params", "alpha", "params", "scale"), -1e300, "einstein_weyl")]


def _set_slot(keys, value):
    return lambda scene: functools.reduce(lambda n, k: n[k], keys[:-1], scene).update(
        {keys[-1]: value})


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("keys, value, check", NOT_FINITE, ids=["beltrami", "einstein_weyl"])
def test_a_check_that_is_not_finite_is_the_points_domain_error(keys, value, check, capsys,
                                                               tmp_path):
    """Where a residual overflows (Infinity) or is NaN, verify records each
    point as a domain error, so its JSON holds no NaN or Infinity and it exits
    2; a sweep step records the same errors and writes no row."""
    path = write_scene(tmp_path, "type4_berger_ew.json", _set_slot(keys, value))
    assert cli.main(["verify", path, "--checks", check]) == 2
    report = json.loads(capsys.readouterr().out, parse_constant=not_json)
    errors = report["domain_errors"]
    assert [e["index"] for e in errors] == list(range(5)) and report["summary"]["checks"] == {}
    for e, record in zip(errors, report["records"]):
        assert e["error"].startswith(f"check {check!r} is not finite (raw ")
        assert e["error"].endswith(f" at point {tuple(e['point'])}") and record["checks"] == {}
    param = ".".join(keys)
    assert cli.main(["sweep", path, "--param", param, f"--range={value}:{value}", "--steps", "1",
                     "--checks", check]) == 2
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == [param, f"{check}_max_normalized"] and len(rows) == 6
    assert [(r[0], r[2]) for r in rows[1:]] == [("# domain_error", str(i)) for i in range(5)]
    assert [r[4] for r in rows[1:]] == [e["error"] for e in errors]


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_job_that_is_not_finite_names_its_first_such_point(tmp_path):
    """A job of several points, or of one, raises at the first point where a
    check is not finite; ``errors.isolate`` then splits the job down to it."""
    path = write_scene(tmp_path, "type4_berger_ew.json", _set_slot(*NOT_FINITE[0][:2]))
    resolved = cli.ResolvedScene(cli.load_scene(path))
    points = resolved.sample_points()[0]
    for job in (points, points[2:3]):
        with pytest.raises(SingularEvaluationError, match=re.escape(f"at point {job[0]}")):
            cli._checks_at(job, ["beltrami"], resolved)


def test_a_scene_file_that_cannot_be_read_is_a_usage_error(capsys, tmp_path):
    missing = tmp_path / "missing.json"
    assert cli.main(["report", str(missing)]) == 64
    assert capsys.readouterr().err == (f"error: cannot read scene file: [Errno 2] No such file "
                                       f"or directory: {str(missing)!r}\n")
    not_json = tmp_path / "scene.json"
    not_json.write_text("schema: 1\n")
    assert cli.main(["report", str(not_json)]) == 64
    assert capsys.readouterr().err == ("error: scene is not valid JSON: Expecting value: "
                                       "line 1 column 1 (char 0)\n")


@pytest.mark.parametrize("args, message", [
    (["verify"], "no checks requested (scene 'checks' or --checks)"),
    (["sweep", "--param", "construction.params.c", "--range=1.2:2.0", "--steps", "2"],
     "sweep needs checks (scene 'checks' or --checks)"),
], ids=["verify", "sweep"])
def test_a_command_with_no_checks_is_a_usage_error(args, message, capsys, tmp_path):
    path = write_scene(tmp_path, "type4_berger_ew.json", lambda scene: scene.pop("checks"))
    assert cli.main([args[0], path, *args[1:]]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


def test_catalog_describe_without_a_name_is_a_usage_error(capsys):
    assert cli.main(["catalog", "describe"]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: describe needs an entry name\n")


@pytest.mark.parametrize("name, edit, message", [
    ("type2_warped.json", _set_type2_f({"name": "fibre_sin", "params": {"rate": 2.0}}),
     "unknown fibre scalar 'fibre_sin' (use fibre_exp or fibre_power)"),
    ("type4_berger_ew.json", lambda scene: scene.update(base={"name": "berger_lee"}),
     "base entry 'berger_lee' is not a 3-metric"),
    ("type4_berger_ew.json", lambda scene: scene.update(samples={"grid": {"counts": [2, 2, 2]}}),
     "grid counts must have 4 entries"),
    ("type4_berger_ew.json", lambda scene: scene["samples"]["random"].update(count=1e300),
     "samples ask for 1e+300 points, more than the 100000 allowed"),
    ("type4_berger_ew.json",
     lambda scene: scene["samples"]["random"].update(count=cli.MAX_SAMPLE_POINTS + 1),
     "samples ask for 100001 points, more than the 100000 allowed"),
    ("type4_berger_ew.json", lambda scene: scene.update(samples={"grid": {"counts": [
        1e300, 1, 1, 1]}}), "samples ask for 1e+300 points, more than the 100000 allowed"),
    ("type4_berger_ew.json", lambda scene: scene.update(samples={"grid": {"counts": [
        cli.MAX_SAMPLE_POINTS + 1, 1, 1, 1]}}),
     "samples ask for 100001 points, more than the 100000 allowed"),
    ("type4_berger_ew.json", lambda scene: scene.update(samples={"grid": {"counts": [
        1e300, 1e300, 1, 1]}}), "samples ask for 1e+300 points, more than the 100000 allowed"),
    ("type4_berger_ew.json", lambda scene: scene.update(samples={"grid": {"counts": [
        11, (cli.MAX_SAMPLE_POINTS + 1) // 11, 1, 1]}}),      # 11 * 9091 = the limit + 1
     "samples ask for 100001 points, more than the 100000 allowed"),
], ids=["fibre-scalar", "base-not-a-metric", "grid-counts", "random-count-1e300",
        "random-count-over-the-limit", "grid-1e300", "grid-over-the-limit",
        "grid-two-1e300", "grid-product-over-the-limit"])
def test_a_scene_that_does_not_resolve_is_a_usage_error(name, edit, message, capsys, tmp_path):
    assert cli.main(["report", write_scene(tmp_path, name, edit)]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", [["report"], ["verify", "--checks", "twistorial_sd"],
                                     ["classify"], ["sweep", "--param", "construction.params.c",
                                                    "--range", "1:2", "--steps", "2",
                                                    "--checks", "twistorial_sd"]])
@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity"])
def test_a_scene_holding_a_non_json_number_is_a_usage_error(literal, command, capsys, tmp_path):
    """JSON (RFC 8259) has no NaN or infinity: a scene that writes one, which
    Python's json module would read, is not valid JSON."""
    with open(scene_path("type4_berger_ew.json")) as fh:
        text = fh.read().replace('"c": 1.6', f'"c": {literal}')
    p = tmp_path / "scene.json"
    p.write_text(text)
    name, *args = command
    assert cli.main([name, str(p), *args]) == 64
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: scene is not valid JSON: {literal} is not a JSON number\n")


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, [1.0, math.nan]])
def test_canonical_json_refuses_a_non_finite_number(value):
    with pytest.raises(ValueError, match="not JSON compliant"):
        cli.canonical_json({"records": value})


# The values the property below puts into one numeric slot of a scene.  A
# sample count takes only those that fail before any point is made.
FUZZ_VALUES = [0, 1e300, -1e300, 1e-300, -1e-300, 700, -1, 2.5]
FUZZ_COUNT_VALUES = [v for v in FUZZ_VALUES if v != 700]


def _is_sample_count(keys):
    return keys[:3] in (("samples", "random", "count"), ("samples", "grid", "counts"))


@functools.cache
def _applicable_checks(name):
    """Every verify check that applies to the scene file: the total-space
    checks and the Weyl scalars need a construction, pullback_sd and closure
    a potential."""
    r = cli.ResolvedScene(cli.load_scene(scene_path(name)))
    return ",".join(n for n, c in cli.CHECKS.items()
                    if (r.fm is not None or not (c.space == "total" or c.weyl))
                    and (n not in ("pullback_sd", "closure") or r.pair_u is not None))


def _all_finite(node):
    if isinstance(node, dict):
        return all(map(_all_finite, node.values()))
    if isinstance(node, list):
        return all(map(_all_finite, node))
    return not isinstance(node, float) or math.isfinite(node)


def _main(argv):
    """(exit code, stdout) of one in-process command."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


@st.composite
def _fuzzed_slots(draw):
    name = draw(st.sampled_from(sorted(os.listdir(scene_path("")))))
    with open(scene_path(name)) as fh:
        scene = json.load(fh)
    keys = draw(st.sampled_from(_numeric_slots(scene)))
    value = draw(st.sampled_from(FUZZ_COUNT_VALUES if _is_sample_count(keys) else FUZZ_VALUES))
    return name, scene, keys, value


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
@settings(max_examples=100, deadline=None, derandomize=True)
@given(case=_fuzzed_slots())
def test_no_scene_number_escapes_the_commands_or_reaches_their_json(case):
    """One numeric slot of a scene set to an extreme, tiny, negative or
    fractional value: ``report``, ``verify`` with every check that applies,
    ``classify`` and a one-step ``sweep`` of that slot exit 0, 1, 2 or 64
    without an exception, and only a usage error (64) with an empty stdout;
    their JSON holds only finite numbers (NaN or Infinity fails the parse), so
    does each sweep row, and a report run twice has one report_hash."""
    name, scene, keys, value = case
    checks = _applicable_checks(name)
    with tempfile.TemporaryDirectory() as tmp:
        edited, original = os.path.join(tmp, "edited.json"), os.path.join(tmp, "original.json")
        with open(edited, "w") as fh:
            json.dump(cli.with_slot(scene, list(keys), value), fh)
        with open(original, "w") as fh:
            json.dump(scene, fh)
        hashes = []
        for argv in (["report", edited], ["report", edited],
                     ["verify", edited, "--checks", checks], ["classify", edited],
                     ["sweep", original, "--param", ".".join(map(str, keys)),
                      f"--range={value!r}:{value!r}", "--steps", "1", "--checks", checks]):
            code, out = _main(argv)
            assert code in (0, 1, 2, 64), argv
            if code == 64:                  # a usage error
                assert out == "", argv
            elif not out:                   # every other exit, 2 included, emits its output
                pytest.fail(f"exit {code} with an empty stdout: {argv}")
            elif argv[0] == "sweep":
                rows = [row for row in csv.reader(io.StringIO(out)) if row[0] != "# domain_error"]
                assert all(math.isfinite(float(x)) for row in rows[1:] for x in row), argv
            else:
                report = json.loads(out, parse_constant=not_json)
                assert _all_finite(report), argv
                hashes += [report["report_hash"]] if argv[0] == "report" else []
        assert len(set(hashes)) <= 1


# ---------------------------------------------------------------------------
# a job's bad points, each named as its one-point job names it
# ---------------------------------------------------------------------------

with open(scene_path("type4_berger_ew.json")) as _fh:
    _TYPE4 = json.load(_fh)
_TYPE4_RESOLVED = cli.ResolvedScene(cli.validate_scene(dict(
    _TYPE4, samples={"random": {"count": 12, "seed": 7}})))
_TYPE4_POINTS = _TYPE4_RESOLVED.sample_points()[0]
_TYPE4_COMMANDS = {"report": ["report"], "classify": ["classify"],
                   "verify": ["verify", "--checks", _applicable_checks("type4_berger_ew.json")]}


def _type4_job(command, points):
    """The JSON of ``command`` on the type-4 Berger scene at ``points``."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "scene.json")
        with open(path, "w") as fh:
            json.dump(dict(_TYPE4, samples={"points": [list(p) for p in points]}), fh)
        name, *args = _TYPE4_COMMANDS[command]
        return json.loads(_main([name, path] + args)[1])


@functools.cache
def _type4_alone(command, point):
    return _type4_job(command, [point])


@st.composite
def _jobs_with_bad_points(draw):
    """(points, bad indices): at most 12 points of the type-4 Berger scene, a
    random subset of them moved off the chart, in a base or the fibre
    coordinate, below or above its range."""
    points = [list(p) for p in _TYPE4_POINTS[:draw(st.integers(1, 12), label="count")]]
    bad = draw(st.sets(st.integers(0, len(points) - 1)), label="bad")
    lo, hi = _TYPE4_RESOLVED.chart.lo, _TYPE4_RESOLVED.chart.hi
    for i in sorted(bad):
        axis = draw(st.integers(0, 3), label=f"axis of {i}")
        points[i][axis] = draw(st.sampled_from([lo[axis] - 0.1, hi[axis] + 0.1]))
    return [tuple(p) for p in points], bad


@settings(max_examples=25, deadline=None)
@given(job=_jobs_with_bad_points())
def test_every_bad_point_of_a_job_is_named_as_its_one_point_job_names_it(job):
    """``report``, ``verify`` of every check that applies and ``classify`` of
    a job with points off the chart: each bad point has the domain error of
    its one-point job, and each good point agrees with its one-point job to
    1e-13 (1 + |alone|), though its values come from a sub-batch."""
    points, bad = job
    for command in _TYPE4_COMMANDS:
        out = _type4_job(command, points)
        alone = [_type4_alone(command, p) for p in points]
        assert out.get("domain_errors", []) == [dict(alone[i]["domain_errors"][0], index=i)
                                                for i in sorted(bad)], command
        if command == "classify":
            assert_close(out["results"], [r for i, one in enumerate(alone) if i not in bad
                                          for r in one["results"]])
        else:
            assert_close(out["records"], [dict(one["records"][0], index=i)
                                          for i, one in enumerate(alone)])


# ---------------------------------------------------------------------------
# one check table: report is the verify job of the curvature scalars
# ---------------------------------------------------------------------------

# Each shipped scene's exit code under verify of its own checks: the x dy
# connection is not self-dual, and the sweep scene starts at the Lee form scale
# 0.5, which is not Einstein-Weyl (its sweep finds the scale 0.96 that is).
SHIPPED_VERIFY_EXIT = {"berger_ew_sweep.json": 1, "flat_product.json": 0,
                       "gibbons_hawking.json": 0, "type2_warped.json": 0,
                       "type3_control_xdy.json": 1, "type3_trkalian.json": 0,
                       "type4_berger_ew.json": 0}


def test_the_shipped_scenes_are_the_ones_named():
    assert sorted(SHIPPED_VERIFY_EXIT) == sorted(os.listdir(SCENES))


@pytest.mark.parametrize("name", sorted(SHIPPED_VERIFY_EXIT))
def test_every_shipped_scene_runs_as_shipped(name, capsys):
    """verify of a scene's own checks gives a record of each at every point;
    report gives the same records of those checks, the metric's other
    curvature scalars beside them, and the same exit code."""
    with open(scene_path(name)) as fh:
        checks = json.load(fh)["checks"]
    code, out = run_cli(["verify", scene_path(name)], capsys)
    verified = json.loads(out)
    assert code == SHIPPED_VERIFY_EXIT[name] and "domain_errors" not in verified
    assert sorted(verified["summary"]["checks"]) == sorted(checks)
    code, out = run_cli(["report", scene_path(name)], capsys)
    reported = json.loads(out)
    assert code == SHIPPED_VERIFY_EXIT[name]
    assert reported["summary"] == verified["summary"]
    scalars = ["riemann", "ricci", "scalar_curv", "einstein"]
    scalars += ["weyl", "w_plus", "w_minus"] if name != "berger_ew_sweep.json" else []
    for rec, ver in zip(reported["records"], verified["records"], strict=True):
        assert set(rec["checks"]) == set(scalars) | set(checks)
        assert {c: rec["checks"][c] for c in checks} == ver["checks"]


def test_report_of_the_sweep_scene_reports_einstein_weyl(capsys):
    code, out = run_cli(["report", scene_path("berger_ew_sweep.json")], capsys)
    rep = json.loads(out)
    assert code == 1 and list(rep["summary"]["checks"]) == ["einstein_weyl"]
    (rec,) = rep["records"]
    assert set(rec["checks"]) == {"riemann", "ricci", "scalar_curv", "einstein",
                                  "einstein_weyl"}
    # the scalars the scene does not name are informational: the Berger sphere
    # is curved, yet they pass
    assert rec["checks"]["riemann"]["normalized"] > 0.5 and rec["checks"]["riemann"]["pass"]


@pytest.mark.parametrize("command", ["report", "verify"])
@pytest.mark.parametrize("check", ["weyl", "w_plus", "w_minus"])
def test_a_weyl_scalar_of_a_three_metric_is_a_usage_error(command, check, capsys, tmp_path):
    """A scene without a construction reads h, whose Weyl tensor vanishes
    identically: a gated Weyl scalar there would pass at no point."""
    path = write_scene(tmp_path, "berger_ew_sweep.json",
                       lambda scene: scene.update(checks=[check]))
    assert cli.main([command, path]) == 64
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check {check!r} needs a construction in the scene\n"


def test_a_report_job_evaluates_neither_the_base_nor_the_total_space(capsys, monkeypatch):
    """A job does no work for spaces it does not read: a report holds no
    HeldBase and no PointEval, and a base-only sweep step makes no curvature
    report."""
    def refuse(*args, **kwargs):
        raise AssertionError("evaluated a space no check reads")

    monkeypatch.setattr(weyl3, "HeldBase", refuse)
    monkeypatch.setattr(mor, "PointEval", refuse)
    code, out = run_cli(["report", scene_path("type4_berger_ew.json")], capsys)
    assert code == 0 and len(json.loads(out)["records"]) == 5
    monkeypatch.undo()
    monkeypatch.setattr(geo, "curvature_report", refuse)
    code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"), "--param",
                         "alpha.params.scale", "--range=0.5:1.4", "--steps", "3",
                         "--checks", "einstein_weyl"], capsys)
    assert code == 0 and len(out.splitlines()) == 4


# ---------------------------------------------------------------------------
# a domain error while the scene resolves
# ---------------------------------------------------------------------------

MU_ERROR = [{"error": "berger parameter mu must be positive"}]


@pytest.mark.parametrize("command", ["report", "verify", "classify"])
def test_a_scene_that_does_not_resolve_still_gets_its_json(command, capsys, tmp_path):
    path = write_scene(tmp_path, "type4_berger_ew.json", _set_base({"mu": 0}))
    code, out = run_cli([command, path], capsys)
    assert code == 2
    rep = json.loads(out, parse_constant=not_json)
    assert rep["domain_errors"] == MU_ERROR and rep["seed"] is None
    with open(path) as fh:
        assert rep["scene_hash"] == cli.scene_hash(json.load(fh))
    if command == "classify":
        assert rep["results"] == [] and rep["label"] == "nonstandard"
    else:
        assert rep["records"] == [] and rep["orientation"] == 1
        assert rep["summary"] == {"checks": {}, "num_points": 0, "verdict": "fail"}
        members = {k: v for k, v in rep.items() if k not in ("report_hash", "timestamp")}
        assert rep["report_hash"] == hashlib.sha256(
            cli.canonical_json(members).encode()).hexdigest()


@pytest.mark.parametrize("command", ["report", "verify", "classify"])
@pytest.mark.parametrize("bad", [False, True], ids=["residual", "residual_and_domain_error"])
def test_a_domain_error_outranks_a_failing_residual(command, bad, capsys, tmp_path):
    """The x dy control fails its residual (w_minus; classify's label is
    nonstandard) and exits 1 with no domain_errors; with a point off the chart
    beside its two points it still fails, exits 2 and carries that point's
    domain error.  Each document opens with the header every command shares."""
    off_chart = [[1.0, 0.2, 0.3, 9.0]] if bad else []
    path = write_scene(tmp_path, "type3_control_xdy.json",
                       lambda scene: scene["samples"]["points"].extend(off_chart))
    code, out = run_cli([command, path], capsys)
    doc = json.loads(out)
    assert code == (cli.EXIT_DOMAIN if bad else cli.EXIT_RESIDUAL)
    assert [e["index"] for e in doc.get("domain_errors", [])] == ([2] if bad else [])
    with open(path) as fh:
        assert {k: doc[k] for k in ("schema", "tool", "scene_hash", "seed")} == {
            "schema": 1, "tool": {"name": "sdharm", "version": __version__},
            "scene_hash": cli.scene_hash(json.load(fh)), "seed": None}
    if command == "classify":
        assert doc["label"] == "nonstandard" and len(doc["results"]) == 2
    else:
        assert doc["summary"]["checks"]["w_minus"]["pass"] is False


@pytest.mark.parametrize("command", [["report"], ["verify", "--checks", "twistorial_basic"],
                                     ["classify"]])
def test_every_command_names_a_point_off_the_chart_in_a_base_coordinate(command, capsys,
                                                                        tmp_path):
    """z = 9.0 lies off the x dy control's chart: every command names the
    point [1.0, 0.2, 0.3, 9.0] itself, not a fibre sample about it, as the
    samples are taken only about points inside the chart."""
    point = [1.0, 0.2, 0.3, 9.0]
    path = write_scene(tmp_path, "type3_control_xdy.json",
                       lambda scene: scene["samples"]["points"].append(point))
    name, *args = command
    code, out = run_cli([name, path] + args, capsys)
    assert code == cli.EXIT_DOMAIN
    assert json.loads(out)["domain_errors"] == [{
        "index": 2, "point": point,
        "error": "point (1.0, 0.2, 0.3, 9.0) outside chart domain [('rho', 0.1, 5.0), "
                 "('x', -2.0, 2.0), ('y', -2.0, 2.0), ('z', -2.0, 2.0)]"}]


@pytest.mark.parametrize("command, leaf", [(["verify", "--checks", "fundamental_eq"], 1),
                                           (["classify"], 4)])
def test_a_job_with_one_bad_point_is_split_once(command, leaf, capsys, tmp_path, built):
    """16 points of the type-4 Berger scene with c = -e^-0.5, so that
    e^rho + c <= 0 where rho <= -0.5, inside the chart: only the point at
    rho = -1.0 fails, with every fibre sample about it.  The job is split by
    point, each failing job evaluated once over its several fibres, at most
    2 ceil(log2 16) + 1 times; only the bad point's one-point job (its hold of
    ``leaf`` samples, one fibre) is split further, to name its first failing
    sample, beside the one-point job of its good neighbour."""
    points = [[0.08 * i, 1.2, 2.0, 3.0 + 0.1 * i] for i in range(16)]
    points[5][0] = -1.0
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["construction"]["params"]["c"] = -math.exp(-0.5)
    scene["samples"] = {"points": points}
    path = tmp_path / "one_bad.json"
    path.write_text(json.dumps(scene))
    name, *args = command
    code, out = run_cli([name, str(path)] + args, capsys)
    assert code == cli.EXIT_DOMAIN
    assert [e["index"] for e in json.loads(out)["domain_errors"]] == [5]
    fibres = [len({p[1:] for p in batch}) for batch in built]
    assert len([n for n in fibres if n > 1]) <= 2 * math.ceil(math.log2(16)) + 1
    # the good neighbour's job, and the bad one's hold split down to its samples
    assert len([n for n in fibres if n == 1]) <= 1 + 2 * leaf - 1


def test_a_swept_value_that_does_not_resolve_is_its_steps_domain_error(capsys):
    args = ["sweep", scene_path("berger_ew_sweep.json"), "--param", "base.params.mu",
            "--range=-0.2:0.8", "--steps", "3", "--checks", "einstein_weyl"]
    code, out = run_cli(args, capsys)
    assert code == 2
    header, *rows, error = out.splitlines()
    assert header == "base.params.mu,einstein_weyl_max_normalized"
    assert [float(r.split(",")[0]) for r in rows] == [0.3, 0.8]
    assert error == "# domain_error,-0.2,,,berger parameter mu must be positive"
    # the other steps are those of a sweep that never meets the bad value
    _, alone = run_cli(args[:4] + ["--range=0.3:0.8", "--steps", "2",
                                   "--checks", "einstein_weyl"], capsys)
    assert alone.splitlines()[1:] == rows


def test_a_locate_probe_where_the_scene_does_not_resolve_reads_inf(capsys, monkeypatch):
    probes = {}

    def locate(f, a, b, tol):
        probes.update(bad=f(-0.1), good=f(a))
        return a, probes["good"]

    monkeypatch.setattr(weyl3, "locate_residual_minimum", locate)
    code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"), "--param",
                         "base.params.mu", "--range=0.1:0.5", "--steps", "5",
                         "--checks", "einstein_weyl", "--locate", "einstein_weyl"], capsys)
    assert code == 0 and any(l.startswith("# minimum,") for l in out.splitlines())
    assert probes["bad"] == math.inf and math.isfinite(probes["good"])
