"""Scene-driven command line front end.

A scene is a JSON document naming a construction (or just a base geometry),
sample points, checks to run and tolerance overrides.  Reports are emitted as
canonical JSON (sorted keys) or CSV; a report hash over everything except the
timestamp makes runs comparable byte-for-byte.

Exit codes: 0 all checks pass, 1 residual failure, 2 domain error,
64 usage / malformed input.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import csv
import functools
import hashlib
import io
import json
import math
import os
import re
import sys
from typing import Callable, NamedTuple

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from . import constructions as con
from . import geometry as geo
from . import morphism as mor
from . import weyl3
from .errors import DomainError, GeometryError

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

DEFAULT_TOL = 1e-8
TOL_ENV_VAR = "SDHARM_TOL"

REPORT_SCALARS = ("riemann", "ricci", "scalar_curv", "einstein",
                  "weyl", "w_plus", "w_minus")


class UsageError(Exception):
    pass


_REF = {
    "type": "object",
    "required": ["name"],
    "additionalProperties": False,
    "properties": {"name": {"type": "string"}, "params": {"type": "object"}},
}

SCENE_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["schema", "samples"],
    "properties": {
        "schema": {"const": 1},
        "base": _REF,
        "construction": {
            "type": "object",
            "additionalProperties": False,
            "required": ["family"],
            "properties": {
                "family": {"enum": ["type1", "jones_tod", "type2", "type3",
                                    "type4", "bryant"]},
                "params": {"type": "object"},
                "fibre_range": {"type": "array", "items": {"type": "number"},
                                "minItems": 2, "maxItems": 2},
            },
        },
        "orientation": {"enum": [1, -1]},
        "alpha": _REF,
        "beltrami_sign": {"enum": [1, -1]},
        "pair": {
            "type": "object",
            "additionalProperties": False,
            "properties": {"u": _REF, "A": _REF},
        },
        "samples": {
            "type": "object",
            "additionalProperties": False,
            "minProperties": 1,
            "maxProperties": 1,
            "properties": {
                "points": {"type": "array",
                           "items": {"type": "array", "items": {"type": "number"}}},
                "grid": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["counts"],
                    "properties": {
                        "counts": {"type": "array", "items": {"type": "integer",
                                                              "minimum": 1}},
                        "margin": {"type": "number"},
                    },
                },
                "random": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["count", "seed"],
                    "properties": {"count": {"type": "integer", "minimum": 1},
                                   "seed": {"type": "integer"}},
                },
            },
        },
        "tolerances": {"type": "object",
                       "additionalProperties": {"type": "number"}},
        "checks": {"type": "array", "items": {"type": "string"}},
    },
}


def load_scene(path):
    try:
        with open(path) as fh:
            scene = json.load(fh)
    except OSError as exc:
        raise UsageError(f"cannot read scene file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"scene is not valid JSON: {exc}")
    return validate_scene(scene)


def validate_scene(scene):
    errors = sorted(Draft202012Validator(SCENE_SCHEMA).iter_errors(scene),
                    key=lambda e: list(e.absolute_path))
    if errors:
        e = errors[0]
        pointer = "/" + "/".join(str(p) for p in e.absolute_path)
        raise UsageError(f"scene invalid at {pointer or '/'}: {e.message}")
    return scene


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def scene_hash(scene):
    return hashlib.sha256(canonical_json(scene).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scene resolution
# ---------------------------------------------------------------------------

def _resolve_ref(ref, default_name=None, default_params=None):
    if ref is None:
        if default_name is None:
            return None
        return con.catalog(default_name, **(default_params or {}))
    return con.catalog(ref["name"], **ref.get("params", {}))


def _fibre_scalar(ref):
    """A fibre-coordinate scalar of a type2/bryant construction.  Only its
    ``fn`` enters the metric, so it carries no chart."""
    name = ref["name"]
    params = ref.get("params", {})
    if name == "fibre_exp":
        return con.fibre_exp(**params)(None)
    if name == "fibre_power":
        return con.fibre_power(**params)(None)
    raise UsageError(f"unknown fibre scalar {name!r} (use fibre_exp or fibre_power)")


class ResolvedScene:
    def __init__(self, scene):
        self.scene = scene
        self.orientation = scene.get("orientation", 1)
        base_ref = scene.get("base", {"name": "flat3"})
        self.h = _resolve_ref(base_ref)
        if not isinstance(self.h, geo.MetricField):
            raise UsageError(f"base entry {base_ref['name']!r} is not a 3-metric")
        self.alpha = _resolve_ref(scene.get("alpha"))
        self.fm = None
        self.family_alpha = None
        self.family_c = None
        self.family_u = None
        self.family_A = None
        if "construction" in scene:
            self._build(scene["construction"])
        if self.orientation == -1:
            if self.fm is not None:
                self.fm = self.fm.with_orientation(-1)
            else:
                self.h = geo.MetricField(self.h.chart.flipped(), self.h.fn, self.h.name)

    def _build(self, spec):
        family = spec["family"]
        params = spec.get("params", {})
        kwargs = {"fibre_range": tuple(spec["fibre_range"])} if "fibre_range" in spec else {}
        h = self.h

        def chart_matches(field):
            if field is not None and field.chart.names != h.chart.names:
                raise UsageError(
                    f"catalog entry {field.name!r} lives on chart {field.chart.names}, "
                    f"but the base chart is {h.chart.names}")
            return field

        if family in ("type1", "jones_tod"):
            u = chart_matches(_resolve_ref(params.get("u"), "gh_potential"))
            A = chart_matches(_resolve_ref(params.get("A"), "dirac_A"))
            self.fm = con.jones_tod_metric(h, u, A=A, **kwargs)
            self.family_u, self.family_A = u, A
        elif family == "type2":
            f = _fibre_scalar(params.get("f", {"name": "fibre_exp", "params": {"rate": 2.0}}))
            self.fm = con.type2_warped(h, f, **kwargs)
        elif family == "type3":
            A = chart_matches(_resolve_ref(params.get("A")))
            self.fm = con.type3_metric(h, A, **kwargs)
            self.family_A = A     # no family_alpha: the induced Weyl connection is Levi-Civita
        elif family == "type4":
            alpha = chart_matches(_resolve_ref(params.get("alpha")))
            c = params.get("c", 1.0)
            if not isinstance(c, (int, float)):
                raise UsageError("type4 parameter c must be a number in scenes")
            self.fm = con.type4_metric(h, alpha, c=float(c), **kwargs)
            self.family_alpha = alpha
            self.family_c = float(c)
        elif family == "bryant":
            A = chart_matches(_resolve_ref(params.get("A")))
            lam = _fibre_scalar(params.get("lam", {"name": "fibre_power", "params": {"p": -0.5}}))
            self.fm = con.bryant_metric(h, lam, A, **kwargs)
            self.family_A = A
        else:                                  # pragma: no cover - schema guards
            raise UsageError(f"unknown family {family!r}")

    @property
    def chart(self):
        return self.fm.total_chart if self.fm is not None else self.h.chart

    def sample_points(self):
        spec = self.scene["samples"]
        chart = self.chart
        lo = np.asarray(chart.lo)
        hi = np.asarray(chart.hi)
        if "points" in spec:
            return [tuple(map(float, p)) for p in spec["points"]], None
        if "grid" in spec:
            counts = spec["grid"]["counts"]
            if len(counts) != chart.dim:
                raise UsageError(f"grid counts must have {chart.dim} entries")
            margin = spec["grid"].get("margin", 0.1)
            axes = [np.linspace(l + margin * (u - l), u - margin * (u - l), n)
                    for l, u, n in zip(lo, hi, counts)]
            mesh = np.meshgrid(*axes, indexing="ij")
            return [tuple(float(m[idx]) for m in mesh)
                    for idx in np.ndindex(*[len(a) for a in axes])], None
        rnd = spec["random"]
        rng = np.random.default_rng(rnd["seed"])     # PCG64, fixed by seed
        margin = 0.05 * (hi - lo)
        return [tuple(map(float, rng.uniform(lo + margin, hi - margin)))
                for _ in range(rnd["count"])], rnd["seed"]

    def tolerance_for(self, check):
        tols = self.scene.get("tolerances", {})
        default = tols.get("default",
                           float(os.environ.get(TOL_ENV_VAR, DEFAULT_TOL)))
        return tols.get(check, default)


# ---------------------------------------------------------------------------
# check evaluation
# ---------------------------------------------------------------------------

class _SamplePoint:
    """One sample point as the checks see it.  The base metric there is read
    once, on first use, into (h, dh, ddh); h^-1, (Gamma, dGamma), the base
    curvature scale, the Weyl connection and the Laplacian derive from it."""

    def __init__(self, resolved, setup, point):
        self.r, self.setup, self.point = resolved, setup, point
        self.base_point = tuple(point[1:]) if setup is not None else tuple(point)

    @functools.cached_property
    def base(self):
        """((h, dh, ddh), h^-1, Gamma, dGamma) at the base point."""
        arrays = geo.metric_arrays(self.r.h.jets(self.base_point), self.base_point)
        hv, dh, ddh = arrays
        hinv, dhinv = geo.jet_matrix_inverse(hv, dh)
        return (arrays, hinv) + geo.christoffel_jets(hinv, dhinv, dh, ddh)

    @functools.cached_property
    def base_riemann_norm(self):
        (hv, _, _), hinv, G, dG = self.base
        return geo.tensor_norm(geo.curvature_from_gamma(hv, hinv, G, dG, self.base_point)[1], hv)

    def scale(self, space):
        """Riemann norm of the total space (from the point's shared ``PointEval``)
        or of the base."""
        if space == "total":
            return self.setup.ctx(self.point).riemann_norm
        return self.base_riemann_norm

    def einstein_weyl(self, alpha):
        arrays = self.base[0]
        connection = weyl3._weyl_connection(arrays, alpha.jets(self.base_point))
        return weyl3._einstein_weyl(arrays[0], connection)

    def laplacian(self, u):
        _, hinv, G, _ = self.base
        return geo.laplacian_from_gamma(hinv, G, u.jet(self.base_point))


def _lee_form(resolved):
    """The Lee form of the base Weyl structure: the family's, the scene's, or zero."""
    alpha = resolved.family_alpha or resolved.alpha
    if alpha is None:
        alpha = geo.OneFormField(resolved.h.chart, lambda c: [0.0 * c[0]] * 3, "zero")
    return alpha


def _pair(resolved, key):
    """The monopole pair's ``u`` or ``A``: the scene's ``pair``, else the family's."""
    pair = resolved.scene.get("pair", {})
    return _resolve_ref(pair[key]) if key in pair else getattr(resolved, f"family_{key}")


def _potential(s, check):
    u = _pair(s.r, "u")
    if u is None:
        raise UsageError(f"check {check!r} needs a potential "
                         "(scene 'pair.u' or a type1 construction)")
    return u


def _beltrami(s):
    r = s.r
    if r.family_c is not None:
        c = geo.ScalarField(r.h.chart, lambda _c, v=r.family_c: v + 0.0 * _c[0])
        w = weyl3.WeylStructure3(r.h, _lee_form(r))
        return weyl3.generalized_beltrami_residual(w, c, s.base_point)
    w = weyl3.WeylStructure3(r.h, r.family_A or _lee_form(r))
    return weyl3.beltrami_residual(w, r.scene.get("beltrami_sign", -1), s.base_point)


class Check(NamedTuple):
    space: str           # "total": needs a fibration, scaled by its Riemann norm; or "base"
    residual: Callable   # _SamplePoint -> raw residual


# The verify checks; README.md describes each one.
CHECKS = {
    "fundamental_eq": Check("total", lambda s: mor.fundamental_eq_residual(s.setup, s.point)),
    "twistorial_basic": Check("total", lambda s: mor.twistorial_basic_residual(
        s.setup, mor.fibre_samples_about(s.r.fm, s.point, 3))),
    "twistorial_sd": Check("total", lambda s: mor.twistorial_sd_residual(s.setup, s.point)),
    "monopole": Check("total", lambda s: mor.monopole_eq_residual(
        s.setup, s.r.family_alpha or s.r.alpha, s.point)),
    "pullback_sd": Check("total", lambda s: mor.pullback_sd_residual(
        s.setup, _potential(s, "pullback_sd"), _pair(s.r, "A"), s.point)),
    "einstein_weyl": Check("base", lambda s: s.einstein_weyl(_lee_form(s.r))),
    "beltrami": Check("base", _beltrami),
    "closure": Check("base", lambda s: abs(s.laplacian(_potential(s, "closure")))),
}


def _require_checks(names, resolved):
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise UsageError(f"unknown check {unknown[0]!r}; known: {', '.join(CHECKS)}")
    for name in names:
        if CHECKS[name].space == "total" and resolved.fm is None:
            raise UsageError(f"check {name!r} needs a construction in the scene")


def _checks_at(point, checks, resolved, setup):
    """{name: (raw, scale)} at one sample point.  All checks there share one
    ``PointEval`` per distinct point and one base evaluation, dropped when the
    point is done."""
    s = _SamplePoint(resolved, setup, point)
    with setup.sharing() if setup is not None else contextlib.nullcontext():
        return {name: (CHECKS[name].residual(s), s.scale(CHECKS[name].space))
                for name in checks}


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _record_entry(raw, scale, tol):
    normalized = abs(raw) / (1.0 + scale)
    return {"raw": float(raw), "normalized": float(normalized),
            "pass": bool(normalized < tol)}


def build_report(resolved, points, seed, check_names, evaluator):
    records = []
    domain_errors = []
    for idx, point in enumerate(points):
        entry = {"index": idx, "point": list(point), "checks": {}}
        try:
            entry["checks"] = evaluator(point)
        except (DomainError, GeometryError) as exc:
            domain_errors.append({"index": idx, "point": list(point),
                                  "error": str(exc)})
            entry["error"] = str(exc)
        records.append(entry)

    summary = {"checks": {}, "num_points": len(points)}
    all_pass = True
    for name in check_names:
        vals = [r["checks"][name] for r in records if name in r["checks"]]
        if not vals:
            continue
        max_norm = max(v["normalized"] for v in vals)
        summary["checks"][name] = {
            "max_raw": max(abs(v["raw"]) for v in vals),
            "max_normalized": max_norm,
            "mean_normalized": sum(v["normalized"] for v in vals) / len(vals),
            "pass": all(v["pass"] for v in vals),
        }
        all_pass = all_pass and summary["checks"][name]["pass"]
    summary["verdict"] = "pass" if (all_pass and not domain_errors) else "fail"

    report = {
        "schema": 1,
        "tool": {"name": "sdharm", "version": __version__},
        "scene_hash": scene_hash(resolved.scene),
        "seed": seed,
        "orientation": resolved.orientation,
        "records": records,
        "summary": summary,
    }
    if domain_errors:
        report["domain_errors"] = domain_errors
    report["report_hash"] = hashlib.sha256(canonical_json(report).encode()).hexdigest()
    import time
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    return report


def report_to_csv(report):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["index", "point", "check", "raw", "normalized", "pass"])
    for rec in report["records"]:
        for name, entry in sorted(rec.get("checks", {}).items()):
            writer.writerow([rec["index"], " ".join(map(str, rec["point"])), name,
                             repr(entry["raw"]), repr(entry["normalized"]),
                             entry["pass"]])
        if "error" in rec:
            writer.writerow([rec["index"], " ".join(map(str, rec["point"])),
                             "domain_error", rec["error"], "", False])
    return buf.getvalue()


def _emit(text, out):
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _exit_code(report):
    if report.get("domain_errors"):
        return EXIT_DOMAIN
    return EXIT_OK if report["summary"]["verdict"] == "pass" else EXIT_RESIDUAL


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_report(args):
    scene = load_scene(args.scene)
    resolved = ResolvedScene(scene)
    checks = scene.get("checks", [])
    for name in checks:
        if name not in REPORT_SCALARS:
            raise UsageError(f"report check {name!r} is not a curvature scalar; "
                             f"choose from {', '.join(REPORT_SCALARS)}")
    points, seed = resolved.sample_points()
    metric = resolved.fm.g if resolved.fm is not None else resolved.h

    def evaluator(point):
        rep = geo.curvature_report(metric, point)
        raw = rep.raw()
        out = {}
        for name in REPORT_SCALARS:
            if name not in raw:
                continue
            tol = resolved.tolerance_for(name)
            entry = _record_entry(raw[name], rep.riemann_norm, tol)
            if name not in checks:
                entry["pass"] = True      # informational scalar, not a gate
            out[name] = entry
        return out

    report = build_report(resolved, points, seed, checks or REPORT_SCALARS, evaluator)
    text = (canonical_json(report) + "\n" if args.format == "json"
            else report_to_csv(report))
    _emit(text, args.out)
    return _exit_code(report)


def cmd_verify(args):
    scene = load_scene(args.scene)
    resolved = ResolvedScene(scene)
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    else:
        checks = scene.get("checks", [])
    if not checks:
        raise UsageError("no checks requested (scene 'checks' or --checks)")
    _require_checks(checks, resolved)
    points, seed = resolved.sample_points()
    setup = mor.SubmersionSetup(resolved.fm) if resolved.fm is not None else None

    def evaluator(point):
        return {name: _record_entry(raw, scale, resolved.tolerance_for(name))
                for name, (raw, scale) in
                _checks_at(point, checks, resolved, setup).items()}

    report = build_report(resolved, points, seed, checks, evaluator)
    text = (canonical_json(report) + "\n" if args.format == "json"
            else report_to_csv(report))
    _emit(text, args.out)
    return _exit_code(report)


def cmd_classify(args):
    scene = load_scene(args.scene)
    resolved = ResolvedScene(scene)
    if resolved.fm is None:
        raise UsageError("classify needs a construction in the scene")
    points, seed = resolved.sample_points()
    setup = mor.SubmersionSetup(resolved.fm)
    results = []
    domain_errors = []
    for idx, point in enumerate(points):
        try:
            cls = mor.classify_type(setup, mor.fibre_samples_about(resolved.fm, point, 4))
        except (DomainError, GeometryError) as exc:
            domain_errors.append({"index": idx, "point": list(point), "error": str(exc)})
            continue
        results.append({"point": list(point), "label": cls.label,
                        "recovered_c": cls.recovered_c,
                        "evidence": _jsonable(cls.evidence)})
    labels = {r["label"] for r in results}
    overall = labels.pop() if len(labels) == 1 else "nonstandard"
    out = {
        "schema": 1,
        "tool": {"name": "sdharm", "version": __version__},
        "scene_hash": scene_hash(scene),
        "seed": seed,
        "label": overall,
        "results": results,
    }
    if domain_errors:
        out["domain_errors"] = domain_errors
    _emit(canonical_json(out) + "\n", args.out)
    if domain_errors:
        return EXIT_DOMAIN
    return EXIT_OK if overall != "nonstandard" else EXIT_RESIDUAL


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return float(obj)
    return obj


def _set_path(obj, path, value):
    keys = path.split(".")
    node = obj
    for k in keys[:-1]:
        if isinstance(node, list):
            node = node[int(k)]
        elif k in node:
            node = node[k]
        else:
            raise UsageError(f"sweep parameter path {path!r} not found at {k!r}")
    last = keys[-1]
    if isinstance(node, list):
        node[int(last)] = value
    else:
        if last not in node:
            raise UsageError(f"sweep parameter path {path!r} not found at {last!r}")
        if not isinstance(node[last], (int, float)) or isinstance(node[last], bool):
            raise UsageError(f"sweep parameter {path!r} is not numeric")
        node[last] = value


def cmd_sweep(args):
    scene = load_scene(args.scene)
    try:
        lo_s, hi_s = args.range.split(":")
        lo, hi = float(lo_s), float(hi_s)
    except ValueError:
        raise UsageError("range must be lo:hi")
    if args.steps < 1:
        raise UsageError("steps must be a positive integer")
    checks = [c.strip() for c in (args.checks or "").split(",") if c.strip()] \
        or scene.get("checks", [])
    if not checks:
        raise UsageError("sweep needs checks (scene 'checks' or --checks)")

    def run_at(value, errors):
        """Each check's maximum over the good points at one parameter value
        (empty if no point is good); bad points go to ``errors``."""
        trial = copy.deepcopy(scene)
        _set_path(trial, args.param, value)
        resolved = ResolvedScene(validate_scene(trial))
        _require_checks(checks, resolved)
        points, _ = resolved.sample_points()
        setup = mor.SubmersionSetup(resolved.fm) if resolved.fm is not None else None
        good = []
        for idx, p in enumerate(points):
            try:
                good.append(_checks_at(p, checks, resolved, setup))
            except (DomainError, GeometryError) as exc:
                errors.append((value, idx, p, str(exc)))
        return {name: max(abs(raw) / (1.0 + scale) for raw, scale in
                          (vals[name] for vals in good)) for name in checks} if good else {}

    values = np.linspace(lo, hi, args.steps) if args.steps > 1 else np.array([lo])
    errors = []
    rows = [(float(v), run_at(float(v), errors)) for v in values]
    rows = [row for row in rows if row[1]]       # a step with no good point has no row

    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow([args.param] + [f"{c}_max_normalized" for c in checks])
    for v, res in rows:
        writer.writerow([repr(v)] + [repr(res[c]) for c in checks])
    for value, idx, point, error in errors:
        writer.writerow(["# domain_error", repr(value), idx, " ".join(map(str, point)), error])

    if args.locate:
        if args.locate not in checks:
            raise UsageError("--locate check must be one of the swept checks")
        series = [res[args.locate] for _, res in rows]
        for i in range(1, len(series) - 1):
            if series[i] <= series[i - 1] and series[i] <= series[i + 1]:
                x, fx = weyl3.locate_residual_minimum(
                    lambda t: run_at(t, []).get(args.locate, math.inf),
                    rows[i - 1][0], rows[i + 1][0], tol=1e-8)
                buf.write(f"# minimum,{args.locate},{float(x)!r},{float(fx)!r}\n")
    _emit(buf.getvalue(), args.out)
    return EXIT_DOMAIN if errors else EXIT_OK


def cmd_catalog(args):
    if args.action == "list":
        entries = [dict(con.catalog_describe(n)) for n in con.catalog_names()]
        _emit(canonical_json({"entries": entries}) + "\n", args.out)
        return EXIT_OK
    if not args.name:
        raise UsageError("describe needs an entry name")
    try:
        desc = con.catalog_describe(args.name)
    except KeyError as exc:
        raise UsageError(str(exc))
    desc = dict(desc, validation=con.catalog_validate(args.name))
    _emit(canonical_json(desc) + "\n", args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # A value starting with a minus and a digit, such as the sweep range
        # "-1:1", is a value, not an unknown flag.
        self._negative_number_matcher = re.compile(r"-\.?\d")

    def error(self, message):
        raise UsageError(message)


def build_parser():
    p = _Parser(prog="sdharm",
                description="construct and verify self-dual metric fibrations")
    sub = p.add_subparsers(dest="command", required=True)

    pr = sub.add_parser("report", help="full curvature scalars per sample point")
    pr.add_argument("scene")
    pr.add_argument("--format", choices=["json", "csv"], default="json")
    pr.add_argument("--out")
    pr.set_defaults(fn=cmd_report)

    pv = sub.add_parser("verify", help="run named residual checks")
    pv.add_argument("scene")
    pv.add_argument("--checks", help="comma separated check names")
    pv.add_argument("--format", choices=["json", "csv"], default="json")
    pv.add_argument("--out")
    pv.set_defaults(fn=cmd_verify)

    pc = sub.add_parser("classify", help="decide the family of the construction")
    pc.add_argument("scene")
    pc.add_argument("--out")
    pc.set_defaults(fn=cmd_classify)

    ps = sub.add_parser("sweep", help="sweep one numeric scene parameter")
    ps.add_argument("scene")
    ps.add_argument("--param", required=True, help="dotted path into the scene JSON")
    ps.add_argument("--range", required=True, help="lo:hi")
    ps.add_argument("--steps", type=int, required=True)
    ps.add_argument("--checks", help="comma separated check names")
    ps.add_argument("--locate", help="refine minima of this check's residual curve")
    ps.add_argument("--out")
    ps.set_defaults(fn=cmd_sweep)

    pg = sub.add_parser("catalog", help="list or describe catalog entries")
    pg.add_argument("action", choices=["list", "describe"])
    pg.add_argument("name", nargs="?")
    pg.add_argument("--out")
    pg.set_defaults(fn=cmd_catalog)
    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (DomainError, GeometryError) as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
