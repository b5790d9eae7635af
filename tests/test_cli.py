import contextlib
import csv
import dataclasses
import io
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdharm import cli, constructions as con, geometry as geo, morphism as mor

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
def metric_shapes(monkeypatch):
    """("arrays", shape) for every fibration-metric evaluation and ("jets",
    shape) for every metric_jets call while the test runs, in call order, with
    the shape of the points: a fibration's evaluation lists h's jets at its
    base points right after itself."""
    shapes, arrays, jets = [], con.FibredMetric.arrays, geo.metric_jets
    monkeypatch.setattr(con.FibredMetric, "arrays", lambda g, p: shapes.append(
        ("arrays", np.shape(p))) or arrays(g, p))
    monkeypatch.setattr(geo, "metric_jets", lambda g, p: shapes.append(
        ("jets", np.shape(p))) or jets(g, p))
    return shapes


def test_verify_shares_one_context_per_fibre_sample(capsys, tmp_path, built, metric_shapes):
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
    # one total-space metric evaluation over those samples, with h's jets at
    # their base points, and one evaluation of the base metric at the point
    n = len(built[0])
    assert metric_shapes == [("arrays", (n, 4)), ("jets", (n, 3)), ("jets", (1, 3))]


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
], ids=["unknown", "string", "bool", "fibre-unknown", "fibre-string", "fibre-missing",
        "type4-c-bool"])
def test_bad_ref_parameter_usage_error(name, edit, message, capsys, tmp_path):
    assert cli.main(["report", write_scene(tmp_path, name, edit)]) == 64
    assert message in capsys.readouterr().err


def test_out_of_range_ref_parameter_stays_a_domain_error(capsys, tmp_path):
    path = write_scene(tmp_path, "type4_berger_ew.json", _set_base({"mu": -1}))
    assert cli.main(["report", path]) == 2
    assert "berger parameter mu must be positive" in capsys.readouterr().err


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
    """Every check, run through the CHECKS table, total-space and base alike,
    reads at least 1e3 times the default tolerance on a known-failing input."""
    assert check in CONTROLS, f"check {check!r} has no negative control"
    resolved, points = CONTROLS[check]()
    worst = max(abs(raw) / (1.0 + scale) for raw, scale in
                (cli._checks_at(p, [check], resolved)[check] for p in points))
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
        lines = re.findall(r"^- `(\w+)`: .+ Scaled by the (total space|base)\.$",
                           fh.read(), re.M)
    assert len(lines) == len(cli.CHECKS)
    assert dict(lines) == {name: "total space" if check.space == "total" else "base"
                           for name, check in cli.CHECKS.items()}


# The checks whose value changes under ``orientation: -1`` on each construction
# scene.  Every other check that applies keeps its value to 1e-13; the two that
# need a potential apply to gibbons_hawking.json alone.
ORIENTATION_ODD = {
    "flat_product.json": set(),
    "gibbons_hawking.json": {"monopole"},                # 4.4e-16 -> 4.0
    "type2_warped.json": set(),
    "type3_control_xdy.json": set(),
    "type3_trkalian.json": {"twistorial_basic", "twistorial_sd", "monopole"},
    "type4_berger_ew.json": {"twistorial_basic", "twistorial_sd", "monopole"},
}


def _raw_at_orientation(name, check, orientation):
    with open(scene_path(name)) as fh:
        r = cli.ResolvedScene(cli.validate_scene(dict(json.load(fh), orientation=orientation)))
    return np.array([cli._checks_at(p, [check], r)[check][0] for p in r.sample_points()[0]])


@pytest.mark.parametrize("name", sorted(ORIENTATION_ODD))
def test_orientation_parity_of_every_check(name):
    """An orientation-odd check moves by more than 1e-3 (relative) at some
    point; every other check keeps its value at every point to 1e-13."""
    for check in cli.CHECKS:
        try:
            plus = _raw_at_orientation(name, check, 1)
        except cli.UsageError as exc:
            assert "needs a potential" in str(exc) and name != "gibbons_hawking.json"
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
    calls = []
    real = geo.metric_jets
    monkeypatch.setattr(geo, "metric_jets", lambda g, p: calls.append(p) or real(g, p))
    code, out = run_cli(["sweep", scene_path("berger_ew_sweep.json"),
                         "--param", "alpha.params.scale", "--range", "0.5:1.4",
                         "--steps", "8", "--checks", "einstein_weyl",
                         "--locate", "einstein_weyl"], capsys)
    assert code == 0
    assert any(l.startswith("# minimum,einstein_weyl,") for l in out.splitlines())
    # 8 steps and the golden-section calls all share the one base point
    assert calls == [(1.2, 2.0, 3.0)]


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


@pytest.mark.parametrize("param, value_range, pointer, message", [
    ("schema", "1:2", "/schema", "1 was expected"),
    ("samples.random.count", "0:1", "/samples/random/count",
     "0.0 is less than the minimum of 1"),
    ("samples.random.seed", "0.5:1", "/samples/random/seed",
     "0.5 is not of type 'integer'"),
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


def _scene_slots():
    scenes = {}
    for path in sorted(os.listdir(scene_path(""))):
        with open(scene_path(path)) as fh:
            scenes[path] = json.load(fh)
    scenes["all_slots"] = ALL_SLOTS_SCENE
    return [pytest.param(scene, keys, id=f"{name}:{'.'.join(map(str, keys))}")
            for name, scene in scenes.items() for keys in _numeric_slots(scene)]


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
    """A sweep checks only the value at its slot.  For any number there, that
    check and a validation of the whole edited scene give the same verdict and
    message; a list index may be written from the back."""
    node = scene
    for k in keys:
        node = node[k]
    value = data.draw(st.one_of(
        st.sampled_from([0, 0.0, -1, -0.5, 0.5, 1e300, -1e300, node]),
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


# The keywords that cli.slot_validator's path walk handles: the two it walks
# and those whose verdict on a valid scene does not change with the value at
# one slot below them.  A new keyword (oneOf, anyOf, allOf, if, $ref,
# patternProperties, uniqueItems, ...) must be handled there and added here.
SLOT_KEYWORDS = {"properties", "additionalProperties", "items", "type", "const", "enum",
                 "minimum", "required", "minItems", "maxItems", "minProperties",
                 "maxProperties"}


def test_scene_schema_uses_only_keywords_the_slot_check_handles():
    assert _schema_keywords(cli.SCENE_SCHEMA) <= SLOT_KEYWORDS


def test_sweep_step_copies_only_the_swept_path():
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    keys = cli.scene_slot(scene, "construction.params.alpha.params.scale")
    edited = cli.with_slot(scene, keys, 0.5)
    assert scene["construction"]["params"]["alpha"]["params"]["scale"] == 0.96
    assert edited["construction"]["params"]["alpha"]["params"]["scale"] == 0.5
    assert edited["samples"] is scene["samples"] and edited["base"] is scene["base"]
    assert edited["construction"]["params"] is not scene["construction"]["params"]


@pytest.mark.parametrize("param", ["samples.random.seed", "samples.random.count"])
def test_sweep_over_an_integer_slot(param, capsys):
    code, out = run_cli(["sweep", scene_path("type4_berger_ew.json"), "--param", param,
                         "--range", "1:3", "--steps", "3", "--checks", "einstein_weyl"],
                        capsys)
    assert code == 0
    assert list(_sweep_rows(out)) == [1.0, 2.0, 3.0]


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


def test_report_evaluates_its_points_in_one_pass(capsys, monkeypatch):
    calls = []
    real = geo.metric_jets
    monkeypatch.setattr(geo, "metric_jets", lambda g, p: calls.append(p) or real(g, p))
    code, out = run_cli(["report", scene_path("type4_berger_ew.json")], capsys)
    assert code == 0 and len(json.loads(out)["records"]) == 5
    assert len(calls) == 1 and len(calls[0]) == 5


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
    each point then runs alone, the two are named as one point at a time names
    them, and the good points keep the batch's values."""
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
     [f"point (0.675, 3.0, 2.0, 3.0) {_OUTSIDE}",
      "e^rho + c must be positive on the domain, got -0.515675 at (-0.725, 1.2, 2.0, 3.0)",
      _NEIGHBOUR]),
])
def test_fibre_batch_with_bad_points_falls_back_to_each_point(command, errors, capsys,
                                                              tmp_path):
    """verify and classify evaluate a job's fibre samples in one batch.  A point
    outside the chart, one with e^rho + c <= 0, and one whose fibre neighbour
    has e^rho + c <= 0 fail the batch; each point then runs alone, the bad ones
    are named as one point at a time names them (the first sample that fails),
    and the good points agree with a batched run over them alone."""
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
