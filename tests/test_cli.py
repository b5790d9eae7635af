import csv
import json
import os
import re
import subprocess
import sys

import pytest

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


def test_verify_shares_one_context_per_fibre_sample(capsys, tmp_path, monkeypatch):
    built = []

    class Counting(mor.PointEval):
        def __init__(self, fm, point):
            built.append(tuple(point))
            super().__init__(fm, point)

    monkeypatch.setattr(mor, "PointEval", Counting)
    with open(scene_path("type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["samples"] = {"points": [[0.2, 1.2, 2.0, 3.0]]}
    p = tmp_path / "one_point.json"
    p.write_text(json.dumps(scene))
    checks = "fundamental_eq,twistorial_basic,twistorial_sd,monopole,einstein_weyl,beltrami"
    code, out = run_cli(["verify", str(p), "--checks", checks], capsys)
    assert code == 0
    assert len(json.loads(out)["records"][0]["checks"]) == 6
    # the point itself and the two other samples of twistorial_basic's fibre
    assert (0.2, 1.2, 2.0, 3.0) in built
    assert len(built) == len(set(built)) <= 3


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


def test_readme_describes_every_verify_check():
    with open(README) as fh:
        lines = re.findall(r"^- `(\w+)`: .+ Scaled by the (total space|base)\.$",
                           fh.read(), re.M)
    assert len(lines) == len(cli.CHECKS)
    assert dict(lines) == {name: "total space" if check.space == "total" else "base"
                           for name, check in cli.CHECKS.items()}


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


@pytest.mark.parametrize("name", con.catalog_names())
def test_catalog_describe_validates_every_entry(name, capsys):
    code, out = run_cli(["catalog", "describe", name], capsys)
    assert code == 0
    validation = json.loads(out)["validation"]
    assert list(validation) == [CATALOG_VALIDATION[name]]
    for key, value in validation.items():
        assert type(value) is float
        if key == "min_beltrami_residual":       # x dy is the non-Beltrami control
            assert value > 0.5
        else:
            assert value < 1e-12


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
