"""Record the CLI's outputs on a fixed set of jobs, and compare two records.

    python tools/compare_outputs.py dump --root <checkout> out.json
    python tools/compare_outputs.py diff a.json b.json

``dump`` imports ``sdharm`` from ``<checkout>/src`` and runs ``cli.main`` in
process on

- every job of the ``report_grid`` and ``verify_classify`` pools of
  ``<checkout>/perfbench/workloads.py``, at orientation +1 and -1, and every
  job of its ``sweep_locate`` pool;
- every ``<checkout>/scenes/*.json`` under ``report``, ``verify``, ``verify``
  with every check of ``cli.CHECKS`` (keyed ``verify--checks every``, so
  that records of two check tables share the key), ``classify``, and
  ``report`` and ``verify`` with ``--format csv``;
- ``report``, ``verify`` with every check that applies, ``classify``, a
  ``sweep`` of the first point's fibre coordinate (``DOMAIN_ERROR_SWEEP``),
  and ``report`` and ``verify`` with ``--format csv`` on a scene with points
  outside its chart (``DOMAIN_ERROR_POINTS``), whose ``domain_errors`` and
  good points come from splitting the failing job (``errors.isolate``);
- ``report``, ``verify`` and ``classify`` of the x dy control with a point
  outside its chart beside its own (``PRECEDENCE_POINT``): a failing residual
  and a domain error in one job, so the exit code's precedence is recorded;
- ``verify`` of the scene ``pair`` edits of ``PAIRS``: a monopole pair in
  place of the family's, a potential alone, and one on another chart;
- ``verify --checks twistorial_basic`` and ``classify`` of a type-2 scene
  whose fibre range reaches far enough for its warping to overflow
  (``FAR_FIBRE``): the one point overflows, the other is named by a fibre
  sample whose metric is singular, so the geometry errors and the split of
  a failing hold are recorded;
- ``report``, ``classify`` and ``verify`` of the edits of ``SINGULAR``:
  scenes whose evaluation once escaped the commands' error handling, a
  warping whose ``sqrt`` underflows, and type-4 curvature scalars, checks and
  classify evidence that are infinite or NaN (a domain error at each point);
- a few sweeps (``SWEEPS``): with total-space checks, and of a Lee-form
  scale through 0 with base checks alone;
- ``report`` of each scene of ``INVALID_SCENES``, edits of a valid scene that
  break the scene schema, and a sweep into an invalid slot
  (``INVALID_SWEEP``), so every usage-error message of scene validation is
  recorded;
- ``report`` of each edit of ``SCENE_ERRORS``: a valid scene whose refs or
  family parameters do not resolve, or whose samples are too many, so the
  usage errors of scene resolution are recorded too; construction refs that
  the scene schema rejects; and a NaN, which is not JSON;
- ``report``, ``verify`` and ``classify`` of each edit of
  ``RESOLVE_DOMAIN_ERRORS``, a scene that raises a domain error while it
  resolves, and a sweep of the unedited scene through that value;
- each malformed command line of ``USAGE_ERRORS`` (an unknown flag, a
  ``--steps`` that is not an integer or is above ``cli.MAX_SAMPLE_POINTS``, a
  ``--range`` without ``:``, no scene),
  so the usage errors of the command line are recorded too;
- ``catalog list``, and ``catalog describe`` of each entry of the catalog,
  which runs the entry's validator.

It keeps each job's exit code (or the exception a command let escape), stdout
and stderr, with the report
``timestamp`` masked, and writes them to ``out.json`` as one JSON object keyed
by job.  Python warnings are not kept: each shows once per process and source
line, so its text would depend on the jobs before it and on the checkout's
path.  The workloads file is executed from its text, so nothing is written
under ``perfbench/``; scenes go to a temporary directory.

``diff`` counts the jobs whose outputs are identical.  For each job that
differs it prints the worst relative difference |a - b| / (1 + |a|) over the
numbers of the two outputs, read in order, and the number of other tokens
that differ (a report's ``report_hash`` follows its numbers and is not
counted).  Its last line names the worst of those differences with its job,
or says that no output of both records differs.  It exits 1 if any output differs, else 0.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import re
import sys
import tempfile
import types
import warnings
from pathlib import Path

# (scene file, swept slot, range, steps, checks[, --locate check])
SWEEPS = [
    ("type4_berger_ew.json", "construction.params.c", "1.2:2.0", 4,
     "fundamental_eq,twistorial_basic,twistorial_sd,monopole"),
    ("type4_berger_ew.json", "construction.params.c", "1.0:2.2", 5, "twistorial_sd",
     "twistorial_sd"),
    ("type2_warped.json", "construction.params.f.params.rate", "0.5:2.5", 3,
     "fundamental_eq,twistorial_basic,twistorial_sd"),
    ("gibbons_hawking.json", "construction.params.u.params.m", "0.5:1.5", 3,
     "fundamental_eq,twistorial_sd,pullback_sd"),
    # the Lee form's scale through 0, where beltrami has its minimum (einstein_weyl's,
    # at about +-0.96, lie outside), so the probes scale held arrays by both signs
    ("berger_ew_sweep.json", "alpha.params.scale", "-0.6:0.6", 7, "beltrami,einstein_weyl",
     "beltrami"),
]

# type4_berger_ew.json sampled at good points and at two points outside its
# chart (theta = 3.0 > 2.8, rho = 1.6 > 1.5), and the checks that apply to it
DOMAIN_ERROR_POINTS = [[0.5, 1.2, 2.0, 3.0], [0.9, 3.0, 2.0, 3.0], [1.1, 0.7, 4.0, 1.0],
                       [1.6, 1.2, 2.0, 3.0], [0.3, 2.2, 1.0, 5.0]]
DOMAIN_ERROR_CHECKS = ("fundamental_eq,twistorial_basic,twistorial_sd,monopole,einstein_weyl,"
                       "beltrami")
DOMAIN_ERROR_SWEEP = ["--param", "samples.points.0.0", "--range=0.3:1.5", "--steps", "3",
                      "--checks", DOMAIN_ERROR_CHECKS]

# A point outside the chart of type3_control_xdy.json (z = 9.0 > 2.0), put
# beside its two points, which fail w_minus: the job fails its residual and
# has a domain error, and exits 2.
PRECEDENCE_POINT = [1.0, 0.2, 0.3, 9.0]

# Scene pairs, each (scene file, pair), verified with PAIR_CHECKS: the
# Gibbons-Hawking monopole pair at m = 2 (passes), its potential alone beside
# the family's A at m = 1 (fails), and a potential whose chart is not the
# type-3 base's (a usage error).
PAIR_CHECKS = ["--checks", "pullback_sd,closure"]
GH_POTENTIAL_2 = {"name": "gh_potential", "params": {"m": 2.0}}
PAIRS = {
    "gh_m2": ("gibbons_hawking.json",
              {"u": GH_POTENTIAL_2, "A": {"name": "dirac_A", "params": {"m": 2.0}}}),
    "gh_u_alone": ("gibbons_hawking.json", {"u": GH_POTENTIAL_2}),
    "trkalian_chart_mismatch": ("type3_trkalian.json", {"u": GH_POTENTIAL_2}),
}

# Edits of type4_berger_ew.json, each a list of (keys, value) put in place,
# or deleted where the value is DELETE: one violation of each keyword of the
# scene schema, two at one pointer, and an unknown key beside a missing one.
DELETE = object()
INVALID_SCENES = {
    "type": [(("checks",), "twistorial_sd")],
    "type_integer": [(("samples", "random", "seed"), 2.5)],
    "const": [(("schema",), 2)],
    "enum": [(("orientation",), 0)],
    "minimum": [(("samples", "random", "count"), 0)],
    "minimum_seed": [(("samples", "random", "seed"), -1)],
    "properties": [(("base", "name"), 3)],
    "additionalProperties": [(("construction", "colour"), 1)],
    "additionalProperties_three": [(("construction", k), 1) for k in ("colour", "alpha", "shape")],
    "additionalProperties_schema": [(("tolerances",), {"default": "tight"})],
    "required": [(("construction", "family"), DELETE)],
    "minProperties": [(("samples",), {})],
    "maxProperties": [(("samples", "points"), [[0.5, 1.2, 2.0, 3.0]])],
    "items": [(("checks",), ["twistorial_sd", 1])],
    "minItems": [(("samples",), {"points": []})],
    "minItems_two": [(("construction", "fibre_range"), [0.5])],
    "maxItems": [(("construction", "fibre_range"), [-1.0, 0.0, 1.0])],
    "two_at_one_pointer": [(("samples", "colour"), 1)],
    "unknown_key_missing_samples": [(("colour",), 1), (("samples",), DELETE)],
}
INVALID_SWEEP = ["--param", "samples.random.count", "--range=0:1", "--steps", "2",
                 "--checks", "twistorial_sd"]

# Edits of type4_berger_ew.json that do not resolve: the first seven pass the
# scene schema (refs or family parameters that do not resolve, and a random
# count that once tried to allocate 1e300 points), the construction refs that
# are not catalog refs (once tracebacks at resolution) fail it, and a NaN is
# written as the literal NaN, which is not JSON.
SCENE_ERRORS = {
    "unknown_catalog_entry": [(("base", "name"), "berger_s4")],
    "ref_without_the_parameter": [(("base", "params", "nu"), 0.8)],
    "parameter_not_a_number": [(("base", "params", "mu"), "wide")],
    "ref_on_another_chart": [(("construction", "params", "alpha"), {"name": "trkalian"})],
    "type4_c_not_a_number": [(("construction", "params", "c"), "one")],
    "family_without_the_parameter": [(("construction", "params", "u"), {"name": "gh_potential"})],
    "random_count_1e300": [(("samples", "random", "count"), 1e300)],
    "alpha_not_an_object": [(("construction", "params", "alpha"), 5)],
    "alpha_without_a_name": [(("construction", "params", "alpha"), {"params": {}})],
    "alpha_params_not_an_object": [(("construction", "params", "alpha"),
                                    {"name": "berger_lee", "params": [1]})],
    "type2_f_not_an_object": [(("construction", "family"), "type2"),
                              (("construction", "params"), {"f": 2.0})],
    "nan_literal": [(("construction", "params", "c"), float("nan"))],
}

# Scenes that pass the scene schema but raise a domain error while they
# resolve, each (scene file, edits, sweep arguments): report, verify and
# classify of the edited scene, and a sweep of the original whose middle step
# is that value, which a --locate probe reads too.
RESOLVE_DOMAIN_ERRORS = {
    "berger_mu_0": ("type4_berger_ew.json", [(("base", "params", "mu"), 0.0)],
                    ["--param", "base.params.mu", "--range=-0.2:0.8", "--steps", "3",
                     "--checks", "twistorial_sd,einstein_weyl"]),
    "berger_ew_sweep_mu_0": ("berger_ew_sweep.json", [(("base", "params", "mu"), 0.0)],
                             ["--param", "base.params.mu", "--range=-0.1:0.5", "--steps", "7",
                              "--checks", "einstein_weyl", "--locate", "einstein_weyl"]),
}

# A type-2 scene, warping e^(3 tau) on a fibre range of [0, 400]: e^900 overflows
# at the first point, and at the second (tau = 1) the fibre samples about it
# reach tau = 31 for twistorial_basic and 11 for classify, where g is singular.
FAR_FIBRE = {"schema": 1, "base": {"name": "flat3"},
             "construction": {"family": "type2", "fibre_range": [0, 400], "params": {
                 "f": {"name": "fibre_exp", "params": {"rate": 3.0}}}},
             "samples": {"points": [[300, 0.1, 0.2, 0.3], [1, 0.1, 0.2, 0.3]]}}

# Edits of scenes/ that once escaped the commands' error handling, each
# (scene file, command, arguments, edits).  At a warping rate of 700 the sqrt
# of the warping underflows at most points (a ZeroDivisionError once, a domain
# error now); at c = 1e300 the type-4 evidence is NaN, which once passed every
# gate (label type1), the Weyl norms are NaN, and the Beltrami residual
# overflows, as the Einstein-Weyl one is NaN at a Lee-form scale of -1e300:
# classify, report and verify once wrote them into their JSON as NaN and
# Infinity, and now record a domain error at each point.
SINGULAR = {
    "flat_product_rate_700": ("flat_product.json", "report", [],
                              [(("construction", "params", "f", "params", "rate"), 700)]),
    "type2_warped_rate_700": ("type2_warped.json", "classify", [],
                              [(("construction", "params", "f", "params", "rate"), 700)]),
    "type4_c_1e300": ("type4_berger_ew.json", "classify", [],
                      [(("construction", "params", "c"), 1e300)]),
    "type4_c_1e300_report": ("type4_berger_ew.json", "report", [],
                             [(("construction", "params", "c"), 1e300)]),
    "type4_c_1e300_beltrami": ("type4_berger_ew.json", "verify", ["--checks", "beltrami"],
                               [(("construction", "params", "c"), 1e300)]),
    "type4_scale_minus_1e300_einstein_weyl": (
        "type4_berger_ew.json", "verify", ["--checks", "einstein_weyl"],
        [(("construction", "params", "alpha", "params", "scale"), -1e300)]),
}

# Malformed command lines, each (command, whether it names type4_berger_ew.json,
# arguments after the scene): every one is a usage error (exit 64).
USAGE_ERRORS = {
    "unknown_flag": ("report", True, ["--colour", "red"]),
    "steps_not_an_integer": ("sweep", True, ["--param", "construction.params.c",
                                             "--range=1.2:2.0", "--steps", "x",
                                             "--checks", "twistorial_sd"]),
    "range_without_colon": ("sweep", True, ["--param", "construction.params.c", "--range=1.2",
                                            "--steps", "3", "--checks", "twistorial_sd"]),
    "missing_scene": ("report", False, []),
    "steps_above_max": ("sweep", True, ["--param", "construction.params.c", "--range=1.2:2.0",
                                        "--steps", "10000000000000", "--checks", "twistorial_sd"]),
}

_TIMESTAMP = re.compile(r'"timestamp":"[^"]*"')
_NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?(?:inf|nan)")
# as it reads in the JSON text of a record, where stdout's quotes are escaped
_HASH = re.compile(r'\\"report_hash\\":\\"[0-9a-f]*\\"')


def _load(path, name):
    module = types.ModuleType(name)
    exec(compile(path.read_text(), str(path), "exec"), module.__dict__)
    return module


def _run(cli, command, scene, args, tmp):
    """(exit code, stdout, stderr) of one in-process command on a scene, or of
    a command that reads none (``scene`` None)."""
    argv = [command, *args]
    if scene is not None:
        path = Path(tmp) / "scene.json"
        path.write_text(json.dumps(scene))
        argv.insert(1, str(path))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        try:
            code = cli.main(argv)
        except Exception as exc:           # a command that crashes is recorded, not fatal
            code = f"uncaught {type(exc).__name__}: {exc}"
    return {"code": code, "stdout": _TIMESTAMP.sub('"timestamp":"-"', out.getvalue()),
            "stderr": err.getvalue()}


def _edited(scene, edits):
    """A deep copy of ``scene`` with each (keys, value) of ``edits`` made."""
    scene = json.loads(json.dumps(scene))
    for keys, value in edits:
        node = scene
        for k in keys[:-1]:
            node = node[k]
        if value is DELETE:
            del node[keys[-1]]
        else:
            node[keys[-1]] = value
    return scene


def _jobs(root, cli):
    """(key, command, scene, args) of every job ``dump`` runs."""
    workloads = _load(root / "perfbench" / "workloads.py", "workloads")
    for workload in ("report_grid", "verify_classify"):
        for job in workloads.all_jobs(workload):
            for orientation in (1, -1):
                yield (f"{job['id']}{orientation:+d}", job["command"],
                       dict(job["scene"], orientation=orientation), job["args"])
    for job in workloads.all_jobs("sweep_locate"):
        yield job["id"], job["command"], job["scene"], job["args"]
    scenes = {p.name: json.loads(p.read_text()) for p in sorted((root / "scenes").glob("*.json"))}
    csv = ["--format", "csv"]
    for name, scene in scenes.items():
        for command, args in (("report", []), ("verify", []), ("classify", []),
                              ("report", csv), ("verify", csv)):
            yield f"scenes/{name}/{command}{''.join(args)}", command, scene, args
        # keyed by a fixed name, so that records of tables that differ share it
        yield (f"scenes/{name}/verify--checks every", "verify", scene,
               ["--checks", ",".join(cli.CHECKS)])
    bad = dict(scenes["type4_berger_ew.json"], samples={"points": DOMAIN_ERROR_POINTS})
    for command, args in (("report", []), ("verify", ["--checks", DOMAIN_ERROR_CHECKS]),
                          ("classify", []), ("sweep", DOMAIN_ERROR_SWEEP), ("report", csv),
                          ("verify", ["--checks", DOMAIN_ERROR_CHECKS, *csv])):
        yield f"domain_error/{command}{''.join(args)}", command, bad, args
    xdy = scenes["type3_control_xdy.json"]
    precedence = dict(xdy, samples={"points": [*xdy["samples"]["points"], PRECEDENCE_POINT]})
    for command in ("report", "verify", "classify"):
        yield f"precedence/{command}", command, precedence, []
    for name, (scene, pair) in PAIRS.items():
        yield f"pair/{name}/verify", "verify", dict(scenes[scene], pair=pair), PAIR_CHECKS
    for command, args in (("verify", ["--checks", "twistorial_basic"]), ("classify", [])):
        yield f"far_fibre/{command}{''.join(args)}", command, FAR_FIBRE, args
    for name, (scene, command, args, edits) in SINGULAR.items():
        yield f"singular/{name}/{command}", command, _edited(scenes[scene], edits), args
    for name, param, span, steps, checks, *locate in SWEEPS:
        args = ["--param", param, f"--range={span}", "--steps", str(steps), "--checks", checks]
        args += ["--locate", locate[0]] if locate else []
        yield f"sweep/{name}/{' '.join(args)}", "sweep", scenes[name], args
    valid = scenes["type4_berger_ew.json"]
    for name, edits in INVALID_SCENES.items():
        yield f"invalid/{name}/report", "report", _edited(valid, edits), []
    yield f"invalid/sweep/{' '.join(INVALID_SWEEP)}", "sweep", valid, INVALID_SWEEP
    for name, edits in SCENE_ERRORS.items():
        yield f"unresolved/{name}/report", "report", _edited(valid, edits), []
    for name, (scene, edits, sweep) in RESOLVE_DOMAIN_ERRORS.items():
        edited = _edited(scenes[scene], edits)
        for command in ("report", "verify", "classify"):
            yield f"resolve_domain_error/{name}/{command}", command, edited, []
        yield f"resolve_domain_error/{name}/sweep", "sweep", scenes[scene], sweep
    for name, (command, named, args) in USAGE_ERRORS.items():
        yield f"usage/{name}", command, valid if named else None, args
    yield "catalog/list", "catalog", None, ["list"]
    from sdharm.constructions import CATALOG          # the package ``cli`` came from
    for name in sorted(CATALOG):
        yield f"catalog/describe/{name}", "catalog", None, ["describe", name]


def import_cli(root):
    """``sdharm.cli`` imported from ``<root>/src``, with the tolerance override
    of the environment unset."""
    sys.path.insert(0, str(root / "src"))
    from sdharm import cli
    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"sdharm was imported from {cli.__file__}, not from {root}")
    os.environ.pop(cli.TOL_ENV_VAR, None)
    return cli


def run_jobs(root, cli):
    """{key: output} of every job, run in process."""
    with tempfile.TemporaryDirectory() as tmp:
        return {key: _run(cli, command, scene, args, tmp)
                for key, command, scene, args in _jobs(root, cli)}


def dump(root, out):
    root = Path(root).resolve()
    record = run_jobs(root, import_cli(root))
    Path(out).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    print(f"{len(record)} outputs written to {out}")


def _compare(a, b):
    """(worst relative difference of the numbers, count of other differing
    tokens) of two output texts, their numbers and the text between them
    compared in order."""
    a, b = _HASH.sub("", a), _HASH.sub("", b)
    na, nb = _NUMBER.findall(a), _NUMBER.findall(b)
    ta, tb = _NUMBER.split(a), _NUMBER.split(b)
    other = sum(x != y for x, y in zip(ta, tb)) + abs(len(ta) - len(tb))
    worst = 0.0
    for x, y in zip(na, nb):
        x, y = float(x), float(y)
        if x != y:
            worst = max(worst, abs(x - y) / (1.0 + abs(x)))
    return worst, other + abs(len(na) - len(nb))


def differences(a, b):
    """(count of identical outputs, {job: (worst relative difference, count of
    other differing tokens)} of the outputs of both records that differ, in
    job order, the sorted jobs of one record only) of two records."""
    same, moved = 0, {}
    for key in sorted(set(a) & set(b)):
        if a[key] == b[key]:
            same += 1
        else:
            moved[key] = _compare(json.dumps(a[key], sort_keys=True),
                                  json.dumps(b[key], sort_keys=True))
    return same, moved, sorted(set(a) ^ set(b))


def diff(a_path, b_path):
    a, b = (json.loads(Path(p).read_text()) for p in (a_path, b_path))
    same, moved, only = differences(a, b)
    keys = sorted(set(a) | set(b))
    print(f"{same} of {len(keys)} outputs identical")
    for key in keys:
        if key in moved:
            print(f"{key}: worst relative difference {moved[key][0]:.3g}, "
                  f"{moved[key][1]} other tokens differ")
        elif key in only:
            print(f"{key}: only in {a_path if key in a else b_path}")
    if not moved:
        print("no output of both records differs")
    else:
        worst = max(moved, key=lambda k: moved[k][0])
        print(f"worst relative difference of all: {moved[worst][0]:.3g}, in {worst}")
    return 1 if moved or only else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    pd = sub.add_parser("dump", help="run every job and record its output")
    pd.add_argument("--root", default=".", help="the checkout whose src/ and scenes/ to run")
    pd.add_argument("out")
    pc = sub.add_parser("diff", help="compare two records")
    pc.add_argument("a")
    pc.add_argument("b")
    args = p.parse_args(argv)
    if args.command == "dump":
        dump(args.root, args.out)
        return 0
    return diff(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
