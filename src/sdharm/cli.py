"""Scene-driven command line front end.

A scene is a JSON document naming a construction (or just a base geometry),
sample points, checks to run and tolerance overrides.  Reports are emitted as
canonical JSON (sorted keys) or CSV; a report hash over everything except the
timestamp makes runs comparable byte-for-byte.

Exit codes (``_exit_code``): 2 domain error, else 1 residual failure,
else 0; 64 usage / malformed input.
"""

from __future__ import annotations

import argparse
import copy
import csv
import functools
import hashlib
import inspect
import io
import json
import math
import operator
import os
import re
import sys
import time
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from . import constructions as con
from . import geometry as geo
from . import morphism as mor
from . import weyl3
from .errors import GeometryError, SingularEvaluationError, isolate

EXIT_OK = 0
EXIT_RESIDUAL = 1
EXIT_DOMAIN = 2
EXIT_USAGE = 64

DEFAULT_TOL = 1e-8
TOL_ENV_VAR = "SDHARM_TOL"

# The most sample points a scene, or sweep values --steps, may ask for; refused before any is made.
MAX_SAMPLE_POINTS = 100_000


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
                # a family's refs; type4's c is checked, and named, at resolution
                "params": {"type": "object",
                           "properties": {k: _REF for k in ("u", "A", "alpha", "f", "lam")}},
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
                "points": {"type": "array", "minItems": 1,
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
                                   "seed": {"type": "integer", "minimum": 0}},
                },
            },
        },
        "tolerances": {"type": "object",
                       "additionalProperties": {"type": "number"}},
        "checks": {"type": "array", "items": {"type": "string"}},
    },
}


def _not_a_number(name):
    """NaN and the infinities, which JSON (RFC 8259) has no literal for."""
    raise UsageError(f"scene is not valid JSON: {name} is not a JSON number")


def load_scene(path):
    try:
        with open(path) as fh:
            scene = json.load(fh, parse_constant=_not_a_number)
    except OSError as exc:
        raise UsageError(f"cannot read scene file: {exc}")
    except json.JSONDecodeError as exc:
        raise UsageError(f"scene is not valid JSON: {exc}")
    return validate_scene(scene)


def validate_scene(scene):
    """Raise a UsageError at the first schema violation."""
    _validate(SCENE_SCHEMA, scene)
    return scene


def _validate(schema, instance, keys=()):
    """Raise a UsageError at the first violation in ``instance``, which sits at
    the slot ``keys`` of a scene: of the violations at the least path, the
    first found, as jsonschema's Draft 2020-12 validator reports it."""
    found = []
    _walk(schema, instance, (), found)
    if found:
        path, message = min(found, key=lambda e: e[0])
        pointer = "/" + "/".join(str(p) for p in [*keys, *path])
        raise UsageError(f"scene invalid at {pointer}: {message}")


def _walk(schema, value, path, found):
    """Append (path, message) of each violation of ``schema`` by ``value`` to
    ``found``, in the order jsonschema finds them: keywords, and
    ``properties``, in the order the schema lists them.  A keyword without a
    check in _KEYWORDS raises."""
    for keyword, arg in schema.items():
        check = _KEYWORDS.get(keyword)
        if check is None:
            raise ValueError(f"scene schema keyword {keyword!r} is not supported")
        message = check(arg, value, schema, path, found)
        if message is not None:
            found.append((path, message))


def _is_number(value):
    """A JSON number; a boolean is not one, though Python counts it as an int."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


# The types of SCENE_SCHEMA, as jsonschema's Draft 2020-12 reads them: a
# boolean is not a number, and a float with no fraction is an integer.
_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict), "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str), "number": _is_number,
    "integer": lambda v: _is_number(v) and (isinstance(v, int) or v.is_integer())}


def _json_equal(value, scalar):
    """JSON equality with a string or number of the schema: ``True != 1``,
    while ``1.0 == 1``."""
    return value == scalar and isinstance(value, bool) == isinstance(scalar, bool)


def _size(kind, beyond, edge, at_edge, otherwise):
    """minItems or maxItems (``kind`` list), minProperties or maxProperties
    (dict): the value's length is ``beyond`` the keyword's bound."""
    return lambda n, v, *_: (f"{v!r} {at_edge if n == edge else otherwise}"
                             if isinstance(v, kind) and beyond(len(v), n) else None)


def _properties(properties, value, schema, path, found):
    if isinstance(value, dict):
        for key, sub in properties.items():
            if key in value:
                _walk(sub, value[key], path + (key,), found)


def _additional(extra, value, schema, path, found):
    if not isinstance(value, dict):
        return
    keys = sorted((k for k in value if k not in schema.get("properties", {})), key=str)
    if isinstance(extra, dict):
        for key in keys:
            _walk(extra, value[key], path + (key,), found)
    elif extra is False and keys:
        return (f"Additional properties are not allowed ({', '.join(map(repr, keys))} "
                f"{'was' if len(keys) == 1 else 'were'} unexpected)")


def _required(names, value, schema, path, found):
    if isinstance(value, dict):
        found += [(path, f"{n!r} is a required property") for n in names if n not in value]


def _items(sub, value, schema, path, found):
    if isinstance(value, list):
        for index, item in enumerate(value):
            _walk(sub, item, path + (index,), found)


# The keywords SCENE_SCHEMA may use.  check(arg, value, schema, path, found)
# returns the message of a violation at ``path``, or None; a keyword that
# descends, or that finds several (required), appends to ``found`` itself.
# None of them ties two slots together (as uniqueItems does) or picks among
# subschemas (oneOf, $ref, ...), so a sweep's slot_validator may check the
# swept slot alone.
_KEYWORDS = {
    "type": lambda t, v, *_: None if _JSON_TYPES[t](v) else f"{v!r} is not of type {t!r}",
    "const": lambda c, v, *_: None if _json_equal(v, c) else f"{c!r} was expected",
    "enum": lambda e, v, *_: (None if any(_json_equal(v, x) for x in e)
                              else f"{v!r} is not one of {e!r}"),
    "minimum": lambda m, v, *_: (f"{v!r} is less than the minimum of {m!r}"
                                 if _is_number(v) and v < m else None),
    "properties": _properties,
    "additionalProperties": _additional,
    "required": _required,
    "minProperties": _size(dict, operator.lt, 1, "should be non-empty",
                           "does not have enough properties"),
    "maxProperties": _size(dict, operator.gt, 0, "is expected to be empty",
                           "has too many properties"),
    "items": _items,
    "minItems": _size(list, operator.lt, 1, "should be non-empty", "is too short"),
    "maxItems": _size(list, operator.gt, 0, "is expected to be empty", "is too long"),
}


def slot_validator(keys):
    """A check of one value put at the slot ``keys`` of a valid scene, against
    the subschema there (found by walking ``properties`` and ``items``).  It
    raises what ``validate_scene`` of the edited scene raises, pointer and
    message included, as no keyword of _KEYWORDS looks past its own slot."""
    schema = SCENE_SCHEMA
    for key in keys:
        if isinstance(key, int):
            schema = schema.get("items", {})
        else:
            schema = schema.get("properties", {}).get(key, schema.get("additionalProperties", {}))
    return lambda value: _validate(schema, value, keys)


def canonical_json(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False)


def scene_hash(scene):
    return hashlib.sha256(canonical_json(scene).encode()).hexdigest()


# ---------------------------------------------------------------------------
# scene resolution
# ---------------------------------------------------------------------------

def _resolve_ref(ref, default_name=None):
    if ref is None:
        if default_name is None:
            return None
        ref = {"name": default_name}
    name = ref["name"]
    if name not in con.CATALOG:
        raise UsageError(f"unknown catalog entry {name!r}; "
                         f"known: {', '.join(con.catalog_names())}")
    params = _ref_params(ref, f"catalog entry {name!r}", con.CATALOG[name].params)
    return con.catalog(name, **params)


def _fibre_scalar(ref):
    """A fibre-coordinate scalar of a type2/bryant construction."""
    factory = {"fibre_exp": con.fibre_exp, "fibre_power": con.fibre_power}.get(ref["name"])
    if factory is None:
        raise UsageError(f"unknown fibre scalar {ref['name']!r} (use fibre_exp or fibre_power)")
    what, names = f"fibre scalar {ref['name']!r}", inspect.signature(factory).parameters
    params = _ref_params(ref, what, names)
    missing = [n for n, p in names.items() if p.default is p.empty and n not in params]
    if missing:
        raise UsageError(f"{what} needs parameter {missing[0]!r}")
    return factory(**params)


def _ref_params(ref, what, names):
    """The ref's params, each one of ``names`` with a number, else a usage error
    naming ``what``.  A number out of range is left to the factory's domain check."""
    params = ref.get("params", {})
    for key, value in params.items():
        if key not in names:
            raise UsageError(f"{what} does not take parameter {key!r}; it takes {sorted(names)}")
        if not _is_number(value):
            raise UsageError(f"{what} parameter {key!r} must be a number, got {value!r}")
    return params


def _env_tolerance():
    """The default tolerance: SDHARM_TOL if set, else DEFAULT_TOL.  A value that
    is not a finite positive number is a usage error."""
    text = os.environ.get(TOL_ENV_VAR)
    if text is None:
        return DEFAULT_TOL
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not (math.isfinite(tol) and tol > 0.0):
        raise UsageError(f"environment variable {TOL_ENV_VAR} must be a finite positive "
                         f"number, got {text!r}")
    return tol


class Run:
    """The state of one command, dropped when the command returns: the default
    tolerance, read from the environment once, and what a sweep step leaves
    unchanged (catalog refs, sample points, the base metric at the base points),
    each built once by ``keep``."""

    def __init__(self):
        self.tol = _env_tolerance()
        self._built = {}

    def keep(self, key, obj, build, *args):
        """build(*args), called only the first time the run meets the scene
        object ``obj`` under ``key``.  ``obj`` is matched by identity, as a
        sweep step shares every part of the scene off the swept path; the run
        keeps it, so that its id is not reused while the run lasts."""
        key = key, id(obj)
        kept = self._built.get(key)
        if kept is None:
            kept = self._built[key] = obj, build(*args)
        return kept[1]

    def resolve(self, ref, *defaults):
        """The catalog entry of a ref; the same ref object gives the same entry."""
        return self.keep(("ref", defaults), ref, _resolve_ref, ref, *defaults)


class ResolvedScene:
    """A scene's fields, and one ``SubmersionSetup`` (or None without a
    construction) that every check and the classifier read it through."""
    fm = None

    def __init__(self, scene, run=None):
        self.scene = scene
        self.run = run = run or Run()
        self.orientation = scene.get("orientation", 1)
        base_ref = scene.get("base")
        h = run.resolve(base_ref, "flat3")
        if not isinstance(h, geo.MetricField):
            raise UsageError(f"base entry {base_ref['name']!r} is not a 3-metric")
        # the orientation of the base chart, which every construction's total chart copies
        self.h = h if self.orientation == 1 else h.flipped()
        self.alpha = run.resolve(scene.get("alpha"))
        if "construction" in scene:
            self._build(scene["construction"])
        # the factory's record of u, A, alpha and c (absent: None)
        params = self.family_params = {} if self.fm is None else self.fm.family_params
        self.pair_u, self.pair_A = params.get("u"), params.get("A")
        if "pair" in scene:                 # the monopole pair, else the family's
            pair = scene["pair"]
            self.pair_u, self.pair_A = (self._on_base_chart(run.resolve(pair[k])) if k in pair
                                        else params.get(k) for k in "uA")
        self.setup = mor.SubmersionSetup(self.fm) if self.fm is not None else None
        # the Lee form of the base Weyl structure: the family's, the scene's, or zero
        self.lee_form = params.get("alpha") or self.alpha or geo.OneFormField(
            self.h.chart, lambda c: [0.0] * 3, "zero")

    def _on_base_chart(self, field):
        if field is not None and field.chart.names != self.h.chart.names:
            raise UsageError(f"catalog entry {field.name!r} lives on chart {field.chart.names},"
                             f" but the base chart is {self.h.chart.names}")
        return field

    def _build(self, spec):
        family = spec["family"]
        params = spec.get("params", {})
        kwargs = {"fibre_range": tuple(spec["fibre_range"])} if "fibre_range" in spec else {}

        def ref(key, *defaults):
            return self._on_base_chart(self.run.resolve(params.get(key), *defaults))

        if family in ("type1", "jones_tod"):
            self.fm = con.jones_tod_metric(self.h, ref("u", "gh_potential"),
                                           A=ref("A", "dirac_A"), **kwargs)
        elif family == "type2":
            f = _fibre_scalar(params.get("f", {"name": "fibre_exp", "params": {"rate": 2.0}}))
            self.fm = con.type2_warped(self.h, f, **kwargs)
        elif family == "type3":       # no alpha: the induced Weyl connection is Levi-Civita
            self.fm = con.type3_metric(self.h, ref("A"), **kwargs)
        elif family == "type4":
            alpha = ref("alpha")
            c = params.get("c", 1.0)
            if not _is_number(c):
                raise UsageError(f"family 'type4' parameter 'c' must be a number, got {c!r}")
            self.fm = con.type4_metric(self.h, alpha, c=float(c), **kwargs)
        elif family == "bryant":
            A = ref("A")
            lam = _fibre_scalar(params.get("lam", {"name": "fibre_power", "params": {"p": -0.5}}))
            self.fm = con.bryant_metric(self.h, lam, A, **kwargs)
        else:                                  # pragma: no cover - schema guards
            raise UsageError(f"unknown family {family!r}")
        unknown = sorted(set(params) - set(self.fm.family_params))
        if unknown:
            raise UsageError(f"family {family!r} does not take parameter {unknown[0]!r}; "
                             f"it takes {sorted(self.fm.family_params)}")

    @property
    def chart(self):
        return self.fm.total_chart if self.fm is not None else self.h.chart

    def sample_points(self):
        """(points, seed) of the scene's ``samples`` on its chart, once per run."""
        return self.run.keep(("samples", self.chart), self.scene["samples"],
                             self._sample_points)

    def _sample_points(self):
        spec = self.scene["samples"]
        chart = self.chart
        lo = np.asarray(chart.lo)
        hi = np.asarray(chart.hi)
        if "points" in spec:
            return [tuple(map(float, p)) for p in spec["points"]], None
        if "grid" in spec:
            counts = [int(n) for n in spec["grid"]["counts"]]
            if len(counts) != chart.dim:
                raise UsageError(f"grid counts must have {chart.dim} entries")
            _require_sample_count(*counts)
            margin = spec["grid"].get("margin", 0.1)
            axes = [np.linspace(l + margin * (u - l), u - margin * (u - l), n)
                    for l, u, n in zip(lo, hi, counts)]
            mesh = np.meshgrid(*axes, indexing="ij")
            points, seed = np.stack([m.ravel() for m in mesh], -1), None
        else:
            # the schema admits integral floats such as a swept 1.0 as integers
            count, seed = int(spec["random"]["count"]), int(spec["random"]["seed"])
            _require_sample_count(count)
            rng = np.random.default_rng(seed)     # PCG64, fixed by seed
            margin = 0.05 * (hi - lo)
            points = rng.uniform(lo + margin, hi - margin, (count, chart.dim))
        return list(map(tuple, points.tolist())), seed

    def tolerance_for(self, check):
        tols = self.scene.get("tolerances", {})
        return tols.get(check, tols.get("default", self.run.tol))


def _require_sample_count(*counts):
    """Refuse more sample points than MAX_SAMPLE_POINTS, the product of ``counts``,
    before any is made; each count alone first, so that the message's fits a float."""
    for count in (*counts, math.prod(counts)):
        if count > MAX_SAMPLE_POINTS:
            raise UsageError(f"samples ask for {count:.6g} points, more than the "
                             f"{MAX_SAMPLE_POINTS} allowed")


# ---------------------------------------------------------------------------
# check evaluation
# ---------------------------------------------------------------------------

class _Job:
    """A list of sample points that the checks read as one batch, where each
    residual and scale is an array with one value per point; one point is a
    one-row batch.  A check is scaled by the ``riemann_norm`` of its space.
    The curvature scalars read the ``raw()`` values (``scalars``) of one
    ``geo.curvature_report`` of g, or else h, at the points (``metric``).
    The total-space checks read the setup's evaluations (``total``), held
    here at once: per point, what each check reads in check order (its
    samples, ``fibres``, one ``fibre_samples_about`` of the job; or the
    point), then the point, so that a one-point job that fails names the
    point the first failing check names; ``_evaluate`` splits a failing job
    by point.  The base checks, and ``monopole``, read the run's
    ``weyl3.HeldBase`` (``base``), whose parts are evaluated on first use.
    A job of scalars alone holds no base and no total-space evaluation; a
    job without scalars makes no curvature report."""

    def __init__(self, resolved, points, checks):
        self.r, self.setup = resolved, resolved.setup
        spaces = {CHECKS[name].space for name in checks}
        if "metric" in spaces:
            metric = resolved.fm.g if resolved.fm is not None else resolved.h
            self.metric = geo.curvature_report(metric, metric.chart.point_array(points))
            self.scalars = self.metric.raw()
        reads = [CHECKS[name].samples for name in checks if CHECKS[name].space == "total"]
        if reads:
            self.at = resolved.chart.point_array(points)      # what the total space reads
            if any(reads):
                self.fibres = mor.fibre_samples_about(resolved.fm, self.at, max(reads))
            # per point, each check's samples (or the point) in check order, then the point
            held = [self.fibres if n else self.at[:, None] for n in reads] + [self.at[:, None]]
            resolved.setup.hold(np.concatenate(held, axis=1).reshape(-1, 4).tolist())
            self.total = resolved.setup.rows(self.at)
        if spaces != {"metric"}:
            h = resolved.h              # a fibration's base points drop the fibre coordinate
            base = tuple(points) if resolved.fm is None else tuple(p[1:] for p in points)
            # keyed by h's closure (which an orientation flip keeps) and the points
            self.base = resolved.run.keep(("base", base), h.fn, lambda: weyl3.HeldBase(
                h, h.chart.point_array(base))).new_job()


def _potential(job, check):
    u = job.r.pair_u
    if u is None:
        raise UsageError(f"check {check!r} needs a potential "
                         "(scene 'pair.u' or a type1 construction)")
    return u


def _beltrami(job):
    r, c, base = job.r, job.r.family_params.get("c"), job.base
    if c is not None:
        w = weyl3.WeylStructure3(r.h, r.lee_form)
        return weyl3.generalized_beltrami_residual(
            w, geo.ScalarField(r.h.chart, lambda _c: c), base.point, base)
    w = weyl3.WeylStructure3(r.h, r.family_params.get("A") or r.lee_form)
    return weyl3.beltrami_residual(w, r.scene.get("beltrami_sign", -1), base.point, base)


class Check(NamedTuple):
    space: str           # "total", "base" or "metric": the _Job attribute it is scaled by
    residual: Callable   # _Job -> raw residual, one per point
    samples: int = 0     # the fibre samples about each point it reads (_Job.fibres)
    weyl: bool = False   # a Weyl scalar: only a 4-metric has it, so it needs a construction


# The checks, the curvature scalars first in CurvatureReport.raw() order;
# README.md describes each one.
CHECKS = {
    **{name: Check("metric", lambda j, name=name: j.scalars[name],
                   weyl=name in ("weyl", "w_plus", "w_minus"))
       for name in ("riemann", "ricci", "scalar_curv", "einstein", "weyl", "w_plus", "w_minus")},
    "fundamental_eq": Check("total", lambda j: mor.fundamental_eq_residual(j.setup, j.at)),
    "twistorial_basic": Check("total", lambda j: mor.twistorial_basic_residual(
        j.setup, j.fibres), 3),
    "twistorial_sd": Check("total", lambda j: mor.twistorial_sd_residual(j.setup, j.at)),
    "monopole": Check("total", lambda j: mor.monopole_eq_residual(
        j.setup, j.r.family_params.get("alpha") or j.r.alpha, j.at, j.base)),
    "pullback_sd": Check("total", lambda j: mor.pullback_sd_residual(
        j.setup, _potential(j, "pullback_sd"), j.r.pair_A, j.at)),
    "einstein_weyl": Check("base", lambda j: weyl3.einstein_weyl_residual(
        weyl3.WeylStructure3(j.r.h, j.r.lee_form), j.base.point, j.base)),
    "beltrami": Check("base", _beltrami),
    "closure": Check("base", lambda j: abs(geo.laplacian_from_gamma(
        j.base.mp, _potential(j, "closure").arrays(j.base.point)))),
}


def _require_checks(names, scene):
    unknown = [n for n in names if n not in CHECKS]
    if unknown:
        raise UsageError(f"unknown check {unknown[0]!r}; known: {', '.join(CHECKS)}")
    for name in names:
        if (CHECKS[name].space == "total" or CHECKS[name].weyl) and "construction" not in scene:
            raise UsageError(f"check {name!r} needs a construction in the scene")


def _checks_at(points, checks, resolved):
    """{name: (raw, scale)} at every point of a list of sample points, as one
    job (each an array over the points).  The checks share the setup's
    evaluations and the run's base."""
    job = _Job(resolved, points, checks)
    return _finite({name: (CHECKS[name].residual(job),
                           getattr(job, CHECKS[name].space).riemann_norm)
                    for name in checks}, points)


def _finite(columns, points):
    """``columns`` {name: (raw, scale)}, arrays over the points, if each value
    is finite; else a SingularEvaluationError naming the first point where the
    first such column is not, which ``_evaluate`` records as a domain error."""
    for name, (raw, scale) in columns.items():
        if len(points) == 1 and math.isfinite(raw.item()) and math.isfinite(scale.item()):
            continue                # one point: tested as floats, cheaply
        finite = np.isfinite(raw) & np.isfinite(scale)
        if not finite.all():
            bad = int(np.argmin(finite))
            raise SingularEvaluationError(f"check {name!r} is not finite (raw {float(raw[bad])!r}"
                                          f", scale {float(scale[bad])!r})", point=points[bad])
    return columns


def _finite_class(cls, point):
    """The classification at ``point`` if each number of its evidence is finite
    (its recovered c then is too), else a domain error naming the first that is not."""
    for key, value in cls.evidence.items():
        if not (isinstance(value, str) or np.isfinite(value).all()):
            raise SingularEvaluationError(f"classify evidence {key!r} is not finite", point=point)
    return cls


def _sweep_values(points, checks, resolved):
    """Each point's normalized values of a ``sweep`` step's verify job, a
    tuple in the order of ``checks``, read from the check columns."""
    columns = _checks_at(points, checks, resolved)
    return list(zip(*(_normalized(*columns[name])[1] for name in checks)))


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _normalized(raw, scale):
    """(raw, normalized) of a check column as lists of floats, one per point,
    from ``raw`` and ``scale`` of one value per point (or a value, for one
    point): normalized = |raw| / (1 + scale)."""
    if np.size(raw) == 1:       # one point: plain floats, which round as numpy's do
        raw = float(np.asarray(raw).item())
        return [raw], [abs(raw) / (1.0 + float(np.asarray(scale).item()))]
    return np.asarray(raw, dtype=float).tolist(), (np.abs(raw) / (1.0 + scale)).tolist()


def _check_records(columns, tolerance):
    """The check records {name: {raw, normalized, pass}} of each point, from
    ``columns`` {name: (raw, scale)} (``_normalized``).  normalized passes
    below ``tolerance(name)``, read once per check."""
    entries = []
    for name, (raw, scale) in columns.items():
        raw, normalized = _normalized(raw, scale)
        tol = tolerance(name)
        entries.append([{"raw": r, "normalized": n, "pass": n < tol}
                        for r, n in zip(raw, normalized)])
    return [dict(zip(columns, point)) for point in zip(*entries)]


def _canonical_object(members):
    """canonical_json of a dict, from the canonical JSON of each member."""
    return "{" + ",".join(f"{json.dumps(k)}:{members[k]}" for k in sorted(members)) + "}"


def _evaluate(scene, batch, run=None):
    """(points, seed, results, domain_errors): ``batch(resolved, points)``, a
    list of one result per point, over the scene's sample points.  A job that
    raises a domain error is split (``isolate``) down to the one-point jobs of
    its bad points: each such result is None, recorded as {index, point,
    error}.  A domain error raised while the scene resolves is the job's one
    domain error, {error}, with no points."""
    try:
        resolved = ResolvedScene(scene, run)
        points, seed = resolved.sample_points()
    except GeometryError as exc:
        return [], None, [], [{"error": str(exc)}]
    results, failures = isolate(points, functools.partial(batch, resolved))
    return points, seed, results, [{"index": i, "point": list(points[i]), "error": str(exc)}
                                   for i, exc in failures]


def _document(scene, seed, domain_errors, **body):
    """The JSON document of a command on ``scene``: the header every command
    shares, then ``body``, then ``domain_errors`` if there are any."""
    if domain_errors:
        body["domain_errors"] = domain_errors
    return {"schema": 1, "tool": {"name": "sdharm", "version": __version__},
            "scene_hash": scene_hash(scene), "seed": seed, **body}


def _exit_code(domain_errors, passed=True):
    """2 if there are domain errors, else 0 if the verdict ``passed``, else 1."""
    if domain_errors:
        return EXIT_DOMAIN
    return EXIT_OK if passed else EXIT_RESIDUAL


def build_report(scene, check_names, batch):
    """(report, text): the report of the records ``batch(resolved, points)``
    gives over the scene's sample points (``_evaluate``), and its canonical
    JSON.  Each member is encoded once; ``report_hash`` is the sha256 of the
    members' canonical JSON, and the text splices it and ``timestamp`` in."""
    points, seed, results, domain_errors = _evaluate(scene, batch)
    records = [{"index": idx, "point": list(point), "checks": checks or {}}
               for idx, (point, checks) in enumerate(zip(points, results))]
    for e in domain_errors:
        if "index" in e:
            records[e["index"]]["error"] = e["error"]

    summary = {"checks": {}, "num_points": len(points)}
    for name in check_names:
        vals = [r["checks"][name] for r in records if name in r["checks"]]
        if not vals:
            continue
        summary["checks"][name] = {
            "max_raw": max(abs(v["raw"]) for v in vals),
            "max_normalized": max(v["normalized"] for v in vals),
            "mean_normalized": sum(v["normalized"] for v in vals) / len(vals),
            "pass": all(v["pass"] for v in vals),
        }
    passed = all(c["pass"] for c in summary["checks"].values()) and not domain_errors
    summary["verdict"] = "pass" if passed else "fail"

    report = _document(scene, seed, domain_errors, orientation=scene.get("orientation", 1),
                       records=records, summary=summary)
    members = {key: canonical_json(value) for key, value in report.items()}
    report["report_hash"] = hashlib.sha256(_canonical_object(members).encode()).hexdigest()
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())
    for key in ("report_hash", "timestamp"):
        members[key] = json.dumps(report[key])
    return report, _canonical_object(members)


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


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _verify(args, scene, checks, gated):
    """Emit the report of the verify job of ``checks`` on the scene, summarizing
    ``gated``, or every check if none is; a check outside ``gated`` always passes."""
    def records(resolved, points):
        tolerance = lambda name: resolved.tolerance_for(name) if name in gated else math.inf
        return _check_records(_checks_at(points, checks, resolved), tolerance)

    report, text = build_report(scene, gated or checks, records)
    _emit(text + "\n" if args.format == "json" else report_to_csv(report), args.out)
    return _exit_code(report.get("domain_errors"), report["summary"]["verdict"] == "pass")


def cmd_report(args):
    """The verify job of every curvature scalar of the scene's metric, then
    the scene's other checks; only the scene's checks are gated."""
    scene = load_scene(args.scene)
    gated = scene.get("checks", [])
    _require_checks(gated, scene)
    scalars = [name for name, check in CHECKS.items() if check.space == "metric"
               and ("construction" in scene or not check.weyl)]
    checks = scalars + [name for name in gated if name not in scalars]
    return _verify(args, scene, checks, gated)


def cmd_verify(args):
    scene = load_scene(args.scene)
    if args.checks:
        checks = [c.strip() for c in args.checks.split(",") if c.strip()]
    else:
        checks = scene.get("checks", [])
    if not checks:
        raise UsageError("no checks requested (scene 'checks' or --checks)")
    _require_checks(checks, scene)
    return _verify(args, scene, checks, checks)


def cmd_classify(args):
    scene = load_scene(args.scene)
    if "construction" not in scene:
        raise UsageError("classify needs a construction in the scene")

    def batch(resolved, pts):
        """Each point's class from one evaluation of all their fibre samples."""
        fibres = mor.fibre_samples_about(resolved.fm, resolved.chart.point_array(pts), 4)
        resolved.setup.hold(fibres.reshape(-1, 4).tolist())
        return [_finite_class(mor.classify_type(resolved.setup, fibre), p)
                for p, fibre in zip(pts, fibres)]

    points, seed, classes, domain_errors = _evaluate(scene, batch)
    results = [{"point": list(point), "label": cls.label, "recovered_c": cls.recovered_c,
                "evidence": cls.evidence}
               for point, cls in zip(points, classes) if cls is not None]
    labels = {r["label"] for r in results}
    overall = labels.pop() if len(labels) == 1 else "nonstandard"
    _emit(canonical_json(_document(scene, seed, domain_errors, label=overall,
                                   results=results)) + "\n", args.out)
    return _exit_code(domain_errors, overall != "nonstandard")


def scene_slot(scene, path):
    """The keys of the slot at a dotted path into the scene, a list entry by its
    index from the front.  A usage error if the path is not in the scene or
    names a dict entry that is not a number."""
    keys, node = [], scene
    for k in path.split("."):
        try:
            parent, key = node, int(k) if isinstance(node, list) else k
            node = parent[key]
        except (KeyError, IndexError, ValueError, TypeError):
            raise UsageError(f"sweep parameter path {path!r} not found at {k!r}")
        keys.append(key % len(parent) if isinstance(parent, list) else key)
    if isinstance(parent, dict) and not _is_number(node):
        raise UsageError(f"sweep parameter {path!r} is not numeric")
    return keys


def with_slot(scene, keys, value):
    """The scene with ``value`` at the slot ``keys``; only the dicts and lists
    on the way to it are copied, the rest is shared with ``scene``."""
    if not keys:
        return value
    out = node = copy.copy(scene)
    for key in keys[:-1]:
        node[key] = copy.copy(node[key])
        node = node[key]
    node[keys[-1]] = value
    return out


def cmd_sweep(args):
    scene = load_scene(args.scene)
    try:
        lo, hi = map(float, args.range.split(":"))
    except ValueError:
        lo = hi = math.nan
    if not math.isfinite(hi - lo):   # so each swept value is finite, as a scene number must be
        raise UsageError("range must be lo:hi")
    if args.steps < 1:
        raise UsageError("steps must be a positive integer")
    if args.steps > MAX_SAMPLE_POINTS:       # before np.linspace allocates them
        raise UsageError(f"steps ask for {args.steps} sweep values, more than the "
                         f"{MAX_SAMPLE_POINTS} allowed")
    checks = [c.strip() for c in (args.checks or "").split(",") if c.strip()] \
        or scene.get("checks", [])
    if not checks:
        raise UsageError("sweep needs checks (scene 'checks' or --checks)")
    if args.locate and args.locate not in checks:
        raise UsageError("--locate check must be one of the swept checks")

    _require_checks(checks, scene)          # no swept number changes what they need
    run = Run()
    keys = scene_slot(scene, args.param)
    check_slot = slot_validator(keys)

    def run_at(value, errors):
        """Each check's maximum normalized value over the good points of the
        verify job at one parameter value (empty if no point is good); bad
        points, or the scene's own domain error, go to ``errors``.  The scene
        was validated when loaded, so only the swept value is checked."""
        check_slot(value)
        _, _, values, bad = _evaluate(with_slot(scene, keys, value),
                                      lambda r, pts: _sweep_values(pts, checks, r), run)
        errors.extend((value, e.get("index", ""), e.get("point", ()), e["error"]) for e in bad)
        good = [v for v in values if v is not None]
        return dict(zip(checks, map(max, zip(*good))))

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
        series = [res[args.locate] for _, res in rows]
        for i in range(1, len(series) - 1):
            if series[i] <= series[i - 1] and series[i] <= series[i + 1]:
                x, fx = weyl3.locate_residual_minimum(
                    lambda t: run_at(t, []).get(args.locate, math.inf),
                    rows[i - 1][0], rows[i + 1][0], tol=1e-8)
                buf.write(f"# minimum,{args.locate},{float(x)!r},{float(fx)!r}\n")
    _emit(buf.getvalue(), args.out)
    return _exit_code(errors)


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


@functools.cache
def _parser():
    """The parser, built on the first ``main`` call and reused by later ones."""
    return build_parser()


def main(argv=None):
    try:
        args = _parser().parse_args(argv)
        return args.fn(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except GeometryError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
