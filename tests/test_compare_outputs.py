"""The parity tool (tools/compare_outputs.py) reads two records of CLI
outputs, compares their numbers in order and counts the other tokens that
differ.  This loads the tool, read only, and checks its reading of two
``verify`` records."""

import json
import math
import re
import types
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_outputs.py"


def load_tool():
    """Execute compare_outputs.py into a fresh module without writing next to it."""
    module = types.ModuleType("compare_outputs")
    exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    return module


def verify_record(raw, passed, report_hash):
    """A recorded ``verify`` job: exit code, stdout and stderr."""
    normalized = 0.15474890372711847
    check = {"normalized": normalized, "pass": passed, "raw": raw}
    stdout = {"orientation": 1,
              "records": [{"checks": {"einstein_weyl": check}, "index": 0, "point": [1.2, 2.0, 3.0]}],
              "report_hash": report_hash, "schema": 1,
              "summary": {"checks": {"einstein_weyl": {"max_normalized": normalized,
                                                        "max_raw": raw, "pass": passed}},
                          "num_points": 1, "verdict": "pass" if passed else "fail"},
              "timestamp": "-"}
    return {"code": 0 if passed else 1, "stdout": json.dumps(stdout, separators=(",", ":")),
            "stderr": ""}


A_HASH = "a6eb61c768ac23619e21ff8b2a02b9660d39aff4df7f3c2943193ceb4bf06c00"
B_HASH = "5e45654" + "0" * 57          # reads as a number, 5e45654 = inf, if left unmasked


def compare(tool, a, b):
    """What ``diff`` reports for one job, from the texts it compares."""
    return tool._compare(json.dumps(a, sort_keys=True), json.dumps(b, sort_keys=True))


def test_a_last_digit_and_the_hash_give_that_digit_alone():
    tool = load_tool()
    x, y = 0.8568110996110323, 0.8568110996110324
    worst, other = compare(tool, verify_record(x, True, A_HASH), verify_record(y, True, B_HASH))
    assert other == 0
    assert worst == abs(x - y) / (1.0 + abs(x)) and 0.0 < worst < 1e-16


def test_a_flipped_pass_counts_one_other_token():
    tool = load_tool()
    a = verify_record(0.5, True, A_HASH)
    b = verify_record(0.5, True, B_HASH)
    b["stdout"] = b["stdout"].replace('"pass":true', '"pass":false', 1)     # the point's record
    assert compare(tool, a, b) == (0.0, 1)


def test_diff_reports_the_masked_hash_as_identical_numbers(tmp_path, capsys):
    tool = load_tool()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"job": verify_record(0.25, True, A_HASH)}))
    b.write_text(json.dumps({"job": verify_record(0.25, True, B_HASH)}))
    assert tool.diff(a, b) == 1
    assert capsys.readouterr().out.splitlines() == [
        "0 of 1 outputs identical", "job: worst relative difference 0, 0 other tokens differ",
        "worst relative difference of all: 0, in job"]


def test_diff_ends_with_the_worst_difference_and_its_job(tmp_path, capsys):
    """The last line names the worst relative difference over every output of
    both records that differs, with its job; records that agree end by saying
    so."""
    tool = load_tool()
    paths = [tmp_path / f"{name}.json" for name in "abc"]
    records = [{"same": verify_record(0.5, True, A_HASH), "near": verify_record(x, True, A_HASH),
                "far": verify_record(y, True, A_HASH), "lone": verify_record(0.5, True, A_HASH)}
               for x, y in ((0.25, 2.0), (0.25 + 1e-15, 2.5))]
    del records[1]["lone"]
    for path, record in zip(paths, records + records[:1]):
        path.write_text(json.dumps(record))
    assert tool.diff(paths[0], paths[1]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "1 of 4 outputs identical" and f"lone: only in {paths[0]}" in lines
    assert lines[-1] == f"worst relative difference of all: {0.5 / 3.0:.3g}, in far"
    assert tool.diff(paths[0], paths[2]) == 0
    assert capsys.readouterr().out.splitlines() == ["4 of 4 outputs identical",
                                                    "no output of both records differs"]


def test_the_record_runs_the_catalog_command(tmp_path):
    """``catalog list`` and ``catalog describe`` of each entry are jobs of
    the record, run without a scene."""
    from sdharm import cli, constructions
    tool = load_tool()
    keys = {key for key, command, _, _ in tool._jobs(TOOL.parent.parent, cli)
            if command == "catalog"}
    assert keys == {"catalog/list"} | {f"catalog/describe/{n}" for n in constructions.CATALOG}
    out = tool._run(cli, "catalog", None, ["describe", "flat3"], tmp_path)
    assert out["code"] == 0 and json.loads(out["stdout"])["validation"] == {"riemann_norm": 0.0}


def test_the_record_runs_malformed_command_lines(tmp_path):
    """Each malformed command line of the record is a usage error: exit 64,
    its message on stderr, nothing on stdout."""
    from sdharm import cli
    tool = load_tool()
    jobs = [job for job in tool._jobs(TOOL.parent.parent, cli) if job[0].startswith("usage/")]
    assert len(jobs) == len(tool.USAGE_ERRORS) > 0
    for key, command, scene, args in jobs:
        out = tool._run(cli, command, scene, args, tmp_path)
        assert out["code"] == 64 and out["stdout"] == "" and out["stderr"], key


def test_the_record_runs_scenes_that_do_not_resolve(tmp_path):
    """Each edit of SCENE_ERRORS is a usage error of ``report``: the first seven
    pass the scene schema and name the ref, family parameter or sample count
    that does not resolve; the construction refs that are not catalog refs
    fail the schema; a NaN, though the schema admits it as ``c``, is not
    JSON."""
    from sdharm import cli
    tool = load_tool()
    malformed = {
        "alpha_not_an_object": "scene invalid at /construction/params/alpha: "
                               "5 is not of type 'object'",
        "alpha_without_a_name": "scene invalid at /construction/params/alpha: "
                                "'name' is a required property",
        "alpha_params_not_an_object": "scene invalid at /construction/params/alpha/params: "
                                      "[1] is not of type 'object'",
        "type2_f_not_an_object": "scene invalid at /construction/params/f: "
                                 "2.0 is not of type 'object'"}
    messages = {
        "unknown_catalog_entry": "unknown catalog entry 'berger_s4'; known: ",
        "ref_without_the_parameter": "catalog entry 'berger_s3' does not take parameter 'nu'",
        "parameter_not_a_number": "catalog entry 'berger_s3' parameter 'mu' must be a number",
        "ref_on_another_chart": "catalog entry 'trkalian(1)' lives on chart ('x', 'y', 'z'), "
                                "but the base chart is ('th', 'ps', 'ph')",
        "type4_c_not_a_number": "family 'type4' parameter 'c' must be a number, got 'one'",
        "family_without_the_parameter": "family 'type4' does not take parameter 'u'",
        "random_count_1e300": "samples ask for 1e+300 points, more than the 100000 allowed",
        "nan_literal": "scene is not valid JSON: NaN is not a JSON number"}
    jobs = {key: job for key, *job in tool._jobs(TOOL.parent.parent, cli)
            if key.startswith("unresolved/")}
    assert sorted(jobs) == sorted(f"unresolved/{name}/report" for name in messages | malformed)
    for name, message in (messages | malformed).items():
        command, scene, args = jobs[f"unresolved/{name}/report"]
        if name in messages:
            cli.validate_scene(scene)
        else:
            with pytest.raises(cli.UsageError, match=re.escape(message)):
                cli.validate_scene(scene)
        out = tool._run(cli, command, scene, args, tmp_path)
        assert out["code"] == 64 and out["stdout"] == "", name
        assert out["stderr"].startswith(f"error: {message}"), name


def test_the_record_runs_invalid_scenes_as_usage_errors(tmp_path):
    """Each ``report`` of the record's invalid scenes, the negative seed among
    them, exits 64 with the scene's schema error on stderr and nothing on
    stdout."""
    from sdharm import cli
    tool = load_tool()
    jobs = {key: job for key, *job in tool._jobs(TOOL.parent.parent, cli)
            if key.startswith("invalid/") and key.endswith("/report")}
    assert sorted(jobs) == sorted(f"invalid/{name}/report" for name in tool.INVALID_SCENES)
    for key, (command, scene, args) in jobs.items():
        with pytest.raises(cli.UsageError) as error:
            cli.validate_scene(scene)
        out = tool._run(cli, command, scene, args, tmp_path)
        assert out == {"code": 64, "stdout": "", "stderr": f"error: {error.value}\n"}, key


def test_the_record_runs_geometry_errors_of_far_fibre_samples(tmp_path):
    """The far-fibre scene's ``verify --checks twistorial_basic`` and
    ``classify`` record an overflow at the first point and, at the second, a
    singular metric at a fibre sample about it: both jobs exit 2."""
    from sdharm import cli
    tool = load_tool()
    jobs = {key: job for key, *job in tool._jobs(TOOL.parent.parent, cli)
            if key.startswith("far_fibre/")}
    assert sorted(jobs) == ["far_fibre/classify", "far_fibre/verify--checkstwistorial_basic"]
    for key, sample in (("far_fibre/verify--checkstwistorial_basic", "31.0"),
                        ("far_fibre/classify", "11.0")):
        out = tool._run(cli, *jobs[key], tmp_path)
        assert out["code"] == 2, key
        errors = [e["error"] for e in json.loads(out["stdout"])["domain_errors"]]
        assert errors[0].startswith("exp overflows (arg 810.0) at point (270.0, 0.1, 0.2, 0.3)")
        assert errors[1].startswith(f"metric is singular at point ({sample}, 0.1, 0.2, 0.3)")


def test_the_record_runs_a_failing_residual_with_a_domain_error(tmp_path):
    """The precedence jobs' ``report``, ``verify`` and ``classify`` fail their
    residual at the x dy control's points and name the point off the chart:
    each exits 2."""
    from sdharm import cli
    tool = load_tool()
    jobs = {key: job for key, *job in tool._jobs(TOOL.parent.parent, cli)
            if key.startswith("precedence/")}
    assert sorted(jobs) == ["precedence/classify", "precedence/report", "precedence/verify"]
    for key, job in jobs.items():
        out = tool._run(cli, *job, tmp_path)
        doc = json.loads(out["stdout"])
        assert out["code"] == 2, key
        assert [e["point"] for e in doc["domain_errors"]] == [tool.PRECEDENCE_POINT], key
        assert (doc["label"] == "nonstandard" if key == "precedence/classify"
                else doc["summary"]["checks"]["w_minus"]["pass"] is False), key


def not_json(name):
    raise AssertionError(f"{name} is not JSON")


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning",
                            "ignore:invalid value encountered:RuntimeWarning")
def test_the_record_runs_scenes_that_once_escaped_the_error_handling(tmp_path):
    """At warping rate 700 the sqrt of the warping underflows: ``report`` and
    ``classify`` exit 2 with a domain error at each point where it does.  At
    c = 1e300 g_00 is 1e-300: the anti-self-dual norm is its exact 0.0, as the
    trace forms take no power of V0 = g_00^(-1/2) beyond the first, but the
    twistorial_basic evidence overflows to NaN, which fires its gate, and
    ``classify`` exits 2 with a domain error at each point that names it; so
    does ``report``, whose Weyl norms are NaN there.  There the Beltrami
    residual is infinite, and at a Lee-form scale of -1e300 the Einstein-Weyl
    one is NaN: ``verify`` exits 2 with a domain error at each point.  No JSON
    output holds a non-finite number."""
    from sdharm import cli, morphism as mor
    tool = load_tool()
    jobs = {key: job for key, *job in tool._jobs(TOOL.parent.parent, cli)
            if key.startswith("singular/")}
    assert sorted(jobs) == [f"singular/{name}/{command}"
                            for name, (_, command, _, _) in sorted(tool.SINGULAR.items())]
    for key in ("singular/flat_product_rate_700/report",
                "singular/type2_warped_rate_700/classify"):
        out = tool._run(cli, *jobs[key], tmp_path)
        assert out["code"] == 2, key
        errors = [e["error"] for e in json.loads(out["stdout"])["domain_errors"]]
        assert any(e.startswith("sqrt's second derivative overflows") and " at point (" in e
                   for e in errors), key
    command, scene, args = jobs["singular/type4_c_1e300/classify"]
    resolved = cli.ResolvedScene(cli.validate_scene(scene))
    for point in resolved.sample_points()[0]:
        evidence = mor.classify_type(resolved.setup,
                                     mor.fibre_samples_about(resolved.fm, point, 4)).evidence
        assert evidence["twistorial_sd"] == [0.0] * 4
        assert math.isnan(evidence["twistorial_basic"])
        assert evidence["decided_by"] == "SPREAD_GATE_TOL: twistorial_basic"
    out = tool._run(cli, command, scene, args, tmp_path)
    assert out["code"] == 2
    classified = json.loads(out["stdout"], parse_constant=not_json)
    assert classified["results"] == [] and len(classified["domain_errors"]) == 5
    for e in classified["domain_errors"]:
        assert e["error"] == ("classify evidence 'twistorial_basic' is not finite at point "
                              f"{tuple(e['point'])}")
    out = tool._run(cli, *jobs["singular/type4_c_1e300_report/report"], tmp_path)
    assert out["code"] == 2
    report = json.loads(out["stdout"], parse_constant=not_json)
    assert [r["checks"] for r in report["records"]] == [{}] * 5
    assert all(e["error"].startswith("check 'weyl' is not finite (raw nan, scale ")
               for e in report["domain_errors"])
    for key, check in (("singular/type4_c_1e300_beltrami/verify", "beltrami"),
                       ("singular/type4_scale_minus_1e300_einstein_weyl/verify",
                        "einstein_weyl")):
        out = tool._run(cli, *jobs[key], tmp_path)
        assert out["code"] == 2, key
        report = json.loads(out["stdout"], parse_constant=not_json)
        errors = [e["error"] for e in report["domain_errors"]]
        assert len(errors) == 5 and report["summary"]["checks"] == {}, key
        assert all(e.startswith(f"check {check!r} is not finite (raw ") for e in errors), key


def test_reach_counts_each_def_and_lambda_body(tmp_path):
    """tools/reach.py's bodies: a def (decorator lines included) and a lambda,
    with their line counts; not a comprehension nor a class body."""
    path = TOOL.parent / "reach.py"
    reach = types.ModuleType("reach")
    reach.__file__ = str(path)
    exec(compile(path.read_text(), str(path), "exec"), reach.__dict__)
    source = tmp_path / "m.py"
    source.write_text("def f(x):\n"
                      "    g = lambda y: y\n"
                      "    return [g(v) for v in x]\n"
                      "\n"
                      "\n"
                      "class C:\n"
                      "    @staticmethod\n"
                      "    def h(\n"
                      "            a):\n"
                      "        return (a\n"
                      "                + 1)\n")
    assert sorted(reach.bodies(source).values()) == [
        ("C.h", 7, 5), ("f", 1, 3), ("f.<locals>.<lambda>", 2, 1)]
