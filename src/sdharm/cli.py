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

import numpy as np
from jsonschema import Draft202012Validator

from . import __version__
from . import constructions as con
from . import geometry as geo
from . import jets
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
VERIFY_CHECKS = ("fundamental_eq", "twistorial_basic", "twistorial_sd", "monopole",
                 "einstein_weyl", "beltrami", "pullback_sd", "closure")


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


def _scalar_on_total(ref, chart):
    """Fibre-coordinate scalar fields used by type2/bryant constructions."""
    name = ref["name"]
    params = ref.get("params", {})
    if name == "fibre_exp":
        return con.fibre_exp(**params)(chart)
    if name == "fibre_power":
        return con.fibre_power(**params)(chart)
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
        fr = tuple(spec.get("fibre_range", ())) or None
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
            kwargs = {} if fr is None else {"fibre_range": fr}
            self.fm = con.jones_tod_metric(h, u, A=A, **kwargs)
            self.family_u, self.family_A = u, A
        elif family == "type2":
            kwargs = {} if fr is None else {"fibre_range": fr}
            probe = con.type2_warped(h, geo.ScalarField(h.chart, lambda c: 1.0),
                                     **kwargs)
            f_ref = params.get("f", {"name": "fibre_exp", "params": {"rate": 2.0}})
            f = _scalar_on_total(f_ref, probe.total_chart)
            self.fm = con.type2_warped(h, f, **kwargs)
        elif family == "type3":
            A = chart_matches(_resolve_ref(params.get("A")))
            kwargs = {} if fr is None else {"fibre_range": fr}
            self.fm = con.type3_metric(h, A, **kwargs)
            self.family_alpha = None          # the induced Weyl connection is Levi-Civita
            self.family_A = A
        elif family == "type4":
            alpha = chart_matches(_resolve_ref(params.get("alpha")))
            c = params.get("c", 1.0)
            if not isinstance(c, (int, float)):
                raise UsageError("type4 parameter c must be a number in scenes")
            kwargs = {} if fr is None else {"fibre_range": fr}
            self.fm = con.type4_metric(h, alpha, c=float(c), **kwargs)
            self.family_alpha = alpha
            self.family_c = float(c)
        elif family == "bryant":
            A = chart_matches(_resolve_ref(params.get("A")))
            kwargs = {} if fr is None else {"fibre_range": fr}
            probe = con.type3_metric(h, None, **({} if fr is None
                                                 else {"fibre_range": fr}))
            lam_ref = params.get("lam", {"name": "fibre_power", "params": {"p": -0.5}})
            lam = _scalar_on_total(lam_ref, probe.total_chart)
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

class _PointCache:
    """Base curvature scales and the base Weyl structure, shared by all checks.
    The total-space scale comes from the point's ``PointEval``."""

    def __init__(self, resolved):
        self.r = resolved
        self.base_scales = {}

    def base_scale(self, base_point):
        if base_point not in self.base_scales:
            self.base_scales[base_point] = geo.curvature_report(
                self.r.h, base_point).riemann_norm
        return self.base_scales[base_point]

    @functools.cached_property
    def base_weyl(self):
        return _base_weyl_structure(self.r)


def _base_weyl_structure(resolved):
    alpha = resolved.family_alpha or resolved.alpha
    if alpha is None:
        alpha = geo.OneFormField(resolved.h.chart, lambda c: [0.0 * c[0]] * 3, "zero")
    return weyl3.WeylStructure3(resolved.h, alpha)


def _monopole_u(resolved):
    pair = resolved.scene.get("pair", {})
    if "u" in pair:
        return _resolve_ref(pair["u"])
    return resolved.family_u


def _monopole_A(resolved):
    pair = resolved.scene.get("pair", {})
    if "A" in pair:
        return _resolve_ref(pair["A"])
    return resolved.family_A


def _scale(setup, point):
    """Riemann norm of the total space, read from the point's shared evaluation."""
    return setup.ctx(point).riemann_norm


def _checks_at(point, checks, resolved, setup, cache):
    """{name: (raw, scale)} at one sample point.  All checks there share one
    ``PointEval`` per distinct point, dropped when the point is done."""
    with setup.sharing() if setup is not None else contextlib.nullcontext():
        return {name: evaluate_check(name, resolved, setup, cache, point)
                for name in checks}


def evaluate_check(name, resolved, setup, cache, point):
    """Return (raw, scale) for one named check at one sample point."""
    fm = resolved.fm
    if name in ("fundamental_eq", "twistorial_basic", "twistorial_sd", "monopole",
                "pullback_sd") and fm is None:
        raise UsageError(f"check {name!r} needs a construction in the scene")

    if name == "fundamental_eq":
        return mor.fundamental_eq_residual(setup, point), _scale(setup, point)
    if name == "twistorial_basic":
        samples = mor.fibre_samples_about(fm, point, 3)
        return mor.twistorial_basic_residual(setup, samples), _scale(setup, point)
    if name == "twistorial_sd":
        return mor.twistorial_sd_residual(setup, point), _scale(setup, point)
    if name == "monopole":
        alpha = resolved.family_alpha or resolved.alpha
        return mor.monopole_eq_residual(setup, alpha, point), _scale(setup, point)
    if name == "pullback_sd":
        u, A = _monopole_u(resolved), _monopole_A(resolved)
        if u is None:
            raise UsageError("check 'pullback_sd' needs a monopole pair "
                             "(scene 'pair' or a type1 construction)")
        return mor.pullback_sd_residual(setup, u, A, point), _scale(setup, point)

    base_point = tuple(point[1:]) if fm is not None else tuple(point)
    w = cache.base_weyl
    h_scale = cache.base_scale(base_point)
    if name == "einstein_weyl":
        return weyl3.einstein_weyl_residual(w, base_point), h_scale
    if name == "beltrami":
        if resolved.family_c is not None:
            c = geo.ScalarField(resolved.h.chart,
                                lambda _c, v=resolved.family_c: v + 0.0 * _c[0])
            return weyl3.generalized_beltrami_residual(w, c, base_point), h_scale
        alpha = resolved.family_A if fm is not None and resolved.family_A is not None \
            else None
        if alpha is not None:
            w = weyl3.WeylStructure3(resolved.h, alpha)
        sign = resolved.scene.get("beltrami_sign", -1)
        return weyl3.beltrami_residual(w, sign, base_point), h_scale
    if name == "closure":
        u = _monopole_u(resolved)
        if u is None:
            raise UsageError("check 'closure' needs a potential "
                             "(scene 'pair.u' or a type1 construction)")
        hfield = resolved.h

        def F_fn(coords):
            uj = u.fn(coords)
            pt = [x.value if isinstance(x, jets.Jet) else float(x) for x in coords]
            hv = hfield.values(pt)
            grads = np.array([uj.deriv(a).value for a in range(3)])
            Fv = geo.hodge_star(grads, hv, 1, hfield.chart.orientation)
            return [[jets.constant(Fv[a][b], 3) for b in range(3)] for a in range(3)]

        F = geo.TwoFormField(resolved.h.chart, F_fn, "star_du")
        return weyl3.closure_residual(F, base_point, resolved.h), h_scale
    raise UsageError(f"unknown check {name!r}; known: {', '.join(VERIFY_CHECKS)}")


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
    for name in checks:
        if name not in VERIFY_CHECKS:
            raise UsageError(f"unknown check {name!r}; known: "
                             f"{', '.join(VERIFY_CHECKS)}")
    points, seed = resolved.sample_points()
    setup = mor.SubmersionSetup(resolved.fm) if resolved.fm is not None else None
    cache = _PointCache(resolved)

    def evaluator(point):
        return {name: _record_entry(raw, scale, resolved.tolerance_for(name))
                for name, (raw, scale) in
                _checks_at(point, checks, resolved, setup, cache).items()}

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
        points, _ = resolved.sample_points()
        setup = mor.SubmersionSetup(resolved.fm) if resolved.fm is not None else None
        cache = _PointCache(resolved)
        good = []
        for idx, p in enumerate(points):
            try:
                good.append(_checks_at(p, checks, resolved, setup, cache))
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
    desc = dict(desc)
    desc["validation"] = {k: float(v)
                          for k, v in con.catalog_validate(args.name).items()}
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
