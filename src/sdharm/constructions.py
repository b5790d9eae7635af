"""Factories for the fibred 4-metric families and the catalog of closed-form
base geometries, one-forms and potentials.

Every family is stored in the common normal form

    g = lam^-2 phi*(h) + lam^2 theta (x) theta

on a 4-chart whose first coordinate is the fibre coordinate; phi projects onto
the remaining three.  Each factory hands the parts (h, A = lam^-2 and theta)
to ``_assemble``, whose ``FibredMetric`` evaluates each part once per point or
batch and forms the metric arrays (g, dg, ddg) by the order-2 product rule
(Griewank & Walther, *Evaluating Derivatives*, ch. 13); ``FibredMetric.fn``
stays the definition in jet arithmetic, which the arrays equal bit for bit.
Factories never check their PDE hypotheses (Beltrami, monopole,
Einstein-Weyl): verification is always a separate call, so broken inputs stay
representable as negative controls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import geometry as geo
from . import jets
from . import weyl3 as w3
from .errors import DomainError

__all__ = [
    "FibrationMetric",
    "bryant_metric",
    "jones_tod_metric",
    "type2_warped",
    "type3_metric",
    "type4_metric",
    "catalog",
    "catalog_names",
    "catalog_describe",
    "CATALOG",
]


# ---------------------------------------------------------------------------
# fibration container
# ---------------------------------------------------------------------------

class FibredMetric(geo.MetricField):
    """The normal form g = A phi*(h) + A^-1 theta (x) theta, A = lam^-2 > 0, on
    a total chart whose coordinate 0 is the fibre.

    ``fn`` is the definition in jet arithmetic; the symbolic oracle and
    ``values`` read it.  ``arrays`` evaluates each part once, at a point or a
    batch: A, theta and h as jets of the total chart's one seeding, h's
    closure on the base coordinates as in ``fn``.  It then forms g by the
    jets' own product rule on component jets, each part one jet of its
    components: theta stacked once as a (4, 1) column, whose (1, 4) row is a
    reshaped view of it, h stacked as (3, 3), and A and A^-1 reshaped to
    (1, 1).  A^-1 theta (x) theta fills g, and A h is added into its 3x3 base
    block in place (``Jet.add_at``), so the fibre row and column come from
    A^-1 theta (x) theta alone.  The products and sums are those of ``fn`` in
    its order, so the arrays equal those of ``geo.metric_jets`` of ``fn`` bit
    for bit (the sign of a zero aside).  Two transposes on fixed
    permutations lay them out as ``geo.metric_jets``' arrays are.
    """

    def __init__(self, chart, h, lam_inv_sq_fn, theta_fn, name, positivity_name):
        self.chart, self.name = chart, name
        self.h, self.lam_inv_sq_fn, self.theta_fn = h, lam_inv_sq_fn, theta_fn
        self.positivity_name = positivity_name

    def _parts(self, coords):
        """(A, A^-1, theta) at the coordinates; raises where A <= 0."""
        A = self.lam_inv_sq_fn(coords)
        is_jet = isinstance(A, jets.Jet)
        aval = A.value if is_jet else float(A)
        bad = aval <= 0.0
        if jets.anywhere(bad):      # a batch names its first such row, as metric_point does
            at = [c.value if isinstance(c, jets.Jet) else c for c in coords]
            point = np.stack(at, axis=-1) if np.ndim(bad) else tuple(map(float, at))
            raise DomainError(
                f"{self.positivity_name} must be positive on the domain, got "
                f"{np.ravel(aval)[np.argmax(bad)]:.6g} at {geo._first(point, bad)}")
        return A, (A.reciprocal() if is_jet else 1.0 / A), self.theta_fn(coords)

    def fn(self, coords):
        A, Ainv, th = self._parts(coords)
        hb = self.h.fn(coords[1:])
        return [[A * (hb[a - 1][b - 1] if a and b else 0.0) + Ainv * th[a] * th[b]
                 for b in range(4)] for a in range(4)]

    def arrays(self, point):
        """(g, dg, ddg) at the point, or at an ``(N, 4)`` batch with the point
        axis first, in the layout of ``geo.MetricField.arrays`` (a one-row batch
        in scalar jets, by geometry's one-row rule)."""
        at, coords, (A, Ainv, th) = geo._jets_at(self.chart, self._parts, point)
        c0 = coords[0]
        batch = np.shape(c0.value)
        th = jets.stack([c0.coerce(t) for t in th], (4, 1))
        # h's closure on the base coordinates' own jets, as in ``fn``
        base = at[:, 1:] if batch else at[1:]
        h = jets.stack([c0.coerce(x) for row in geo._eval_at(self.h.fn, coords[1:], base)
                        for x in row], (3, 3))
        geo._require_symmetric(h.value, self.h.name, base)
        # (A^-1 theta_a) theta_b, then A h on the base block
        one = (1, 1) + batch
        g = c0.coerce(Ainv).reshape(one) * th * th.reshape((1, 4) + batch)
        g.add_at((slice(1, None), slice(1, None)), c0.coerce(A).reshape(one) * h)
        geo._require_symmetric(g.value, self.name, at)
        # the layout of geo.metric_jets' arrays: component axes, derivative axes, points
        n = len(batch)
        out = (g.value, np.ascontiguousarray(g.grad.transpose(1, 2, 0, *range(3, 3 + n))),
               np.ascontiguousarray(g.hess.transpose(2, 3, 0, 1, *range(4, 4 + n))))
        return tuple(geo._lead(x, point) for x in out)


@dataclass
class FibrationMetric:
    """A 4-metric fibred over a 3-chart by dropping the first coordinate."""

    total_chart: geo.Chart
    h: geo.MetricField                 # base 3-metric, on the base chart
    g: geo.MetricField                 # total 4-metric
    theta: geo.OneFormField            # connection form on the total chart
    dilation_sq_inv: geo.ScalarField   # lam^-2 on the total chart
    family_tag: str
    family_params: dict = field(default_factory=dict)


def _total_chart(base_chart, fibre_range, fibre_name):
    return geo.Chart((fibre_name,) + tuple(base_chart.names),
                     (fibre_range[0],) + tuple(base_chart.lo),
                     (fibre_range[1],) + tuple(base_chart.hi),
                     base_chart.orientation)


def _assemble(chart, h, lam_inv_sq_fn, theta_fn, tag, params, positivity_name, name=None):
    """The fibration g = A phi*(h) + A^-1 theta^2 with A = lam^-2, from its parts."""
    name = name or tag
    return FibrationMetric(
        chart, h, FibredMetric(chart, h, lam_inv_sq_fn, theta_fn, name, positivity_name),
        geo.OneFormField(chart, theta_fn, name=f"{name}.theta"),
        geo.ScalarField(chart, lam_inv_sq_fn, name=f"{name}.lam_inv_sq"), tag, params)


def _theta_dtau_plus(A_fn):
    """theta = d(fibre) + pullback of a base one-form (A_fn may be None)."""
    def fn(coords):
        if A_fn is None:
            return [1.0, 0.0, 0.0, 0.0]
        Ab = A_fn(coords[1:])
        return [1.0, Ab[0], Ab[1], Ab[2]]
    return fn


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def bryant_metric(h, lam, A=None, fibre_range=(0.1, 5.0), fibre_name="tau"):
    """General normal form g = lam^-2 phi*(h) + lam^2 theta^2, theta = dtau + phi*(A).

    ``lam`` is a positive scalar field on the total chart (the dilation); the
    fundamental vertical field then satisfies g(V, V) = lam^2.
    """
    chart = _total_chart(h.chart, fibre_range, fibre_name)

    def lam_inv_sq(coords):
        l = lam.fn(coords)
        return (l * l).reciprocal() if isinstance(l, jets.Jet) else 1.0 / (l * l)

    return _assemble(chart, h, lam_inv_sq,
                     _theta_dtau_plus(None if A is None else A.fn),
                     "bryant", {"lam": lam, "A": A}, positivity_name="lam^-2")


def jones_tod_metric(h, u, A=None, fibre_range=(-3.0, 3.0)):
    """g = v phi*(h) + v^-1 theta^2 with v = u o phi and theta = dtau + phi*(A);
    fibre generated by a Killing field."""
    chart = _total_chart(h.chart, fibre_range, "tau")
    lam_inv_sq = lambda coords: u.fn(coords[1:])
    return _assemble(chart, h, lam_inv_sq, _theta_dtau_plus(None if A is None else A.fn),
                     "type1", {"u": u, "A": A}, positivity_name="u")


def type2_warped(h, f, fibre_range=(-1.5, 1.5)):
    """g = f phi*(h) + dtau^2 for a positive warping f of the fibre coordinate.

    Normal form data: lam^-2 = f, theta = sqrt(f) dtau.  Geodesic fibres,
    integrable horizontal distribution, dilation constant on horizontal curves.
    """
    chart = _total_chart(h.chart, fibre_range, "tau")

    def theta_fn(coords):
        return [jets.sqrt(f.fn(coords)), 0.0, 0.0, 0.0]

    return _assemble(chart, h, f.fn, theta_fn, "type2", {"f": f},
                     positivity_name="f")


def type3_metric(h, A=None, fibre_range=(0.1, 5.0)):
    """g = rho h + rho^-1 (drho + A)^2 on (0, inf) x N^3; lam^-2 = rho."""
    if fibre_range[0] <= 0:
        raise DomainError("type 3 fibre coordinate must stay positive")
    chart = _total_chart(h.chart, fibre_range, "rho")
    lam_inv_sq = lambda coords: coords[0]
    return _assemble(chart, h, lam_inv_sq,
                     _theta_dtau_plus(None if A is None else A.fn),
                     "type3", {"A": A}, positivity_name="rho")


def type4_metric(h, alpha=None, c=1.0, fibre_range=(-1.5, 1.5)):
    """g = (e^rho + c) h + (e^rho + c)^-1 (drho - alpha)^2; lam^-2 = e^rho + c.

    ``c`` is a number or a basic scalar field.  Evaluation raises where
    e^rho + c <= 0 (the signature-flipping branch is not represented).
    """
    chart = _total_chart(h.chart, fibre_range, "rho")
    c_field = c if isinstance(c, geo.ScalarField) else None
    c_num = None if c_field is not None else float(c)

    def lam_inv_sq(coords):
        cv = c_field.fn(coords[1:]) if c_field is not None else c_num
        return jets.exp(coords[0]) + cv

    minus_alpha = None if alpha is None else lambda b: [-1.0 * x for x in alpha.fn(b)]
    return _assemble(chart, h, lam_inv_sq, _theta_dtau_plus(minus_alpha), "type4",
                     {"alpha": alpha, "c": c}, positivity_name="e^rho + c")


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

# The catalog's charts, built once: a Chart is frozen, so the fields share them.
_FLAT3_CHART = geo.Chart(("x", "y", "z"), (-2.0, -2.0, -2.0), (2.0, 2.0, 2.0))
# avoids the origin and both halves of the polar string axis
_SPHERICAL_CHART = geo.Chart(("r", "th", "ph"), (0.1, 0.2, 0.1), (5.0, 2.9, 6.1))
_EULER_CHART = geo.Chart(("th", "ps", "ph"), (0.3, 0.1, 0.1), (2.8, 6.0, 6.0))


def flat3():
    """Euclidean metric on a Cartesian 3-chart."""
    return geo.MetricField(
        _FLAT3_CHART, lambda c: [[1.0 if a == b else 0.0 for b in range(3)] for a in range(3)],
        "flat3")


def flat3_spherical():
    """Euclidean metric in spherical coordinates (r, th, ph)."""
    def fn(c):
        r, th, _ = c
        s = jets.sin(th)
        return [[1.0, 0.0, 0.0], [0.0, r * r, 0.0], [0.0, 0.0, r * r * s * s]]
    return geo.MetricField(_SPHERICAL_CHART, fn, "flat3_spherical")


def constant_curvature3(k):
    """h = (1 + (k/4)|x|^2)^-2 delta, sectional curvature k."""
    k = float(k)
    if k < 0:
        lim = 2.0 / math.sqrt(-k)
        half = 0.45 * lim
        ch = geo.Chart(("x", "y", "z"), (-half,) * 3, (half,) * 3)
    else:
        ch = _FLAT3_CHART
    def fn(c):
        q = 1.0 + (k / 4.0) * (c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
        w = jets.powc(q, -2)
        return [[w, 0, 0], [0, w, 0], [0, 0, w]]
    return geo.MetricField(ch, fn, f"constant_curvature3({k})")


def trkalian(sign=1):
    """alpha = cos z dx +- sin z dy on flat R^3; satisfies d alpha = -+ * alpha."""
    if sign not in (1, -1):
        raise DomainError("trkalian sign must be +1 or -1")
    return geo.OneFormField(
        _FLAT3_CHART, lambda c: [jets.cos(c[2]), float(sign) * jets.sin(c[2]), 0.0 * c[2]],
        f"trkalian({sign})")


def xdy():
    """alpha = x dy: a generic non-Beltrami control form on flat R^3."""
    return geo.OneFormField(_FLAT3_CHART, lambda c: [0.0 * c[0], c[0], 0.0 * c[0]], "xdy")


# The left-invariant coframe (s1, s2, s3) in the Euler chart.  s1 and s2 read
# the trig jets sin ps, cos ps, sin th, taken once per call (``_euler_trig``);
# s3 reads cos th alone.  A constant component is a number, which the field's
# ``coerce`` lifts.

def _euler_trig(c):
    th, ps, _ = c
    return jets.sin(ps), jets.cos(ps), jets.sin(th)


def _euler_s1(sp, cp, st):
    return [0.5 * cp, 0.0, 0.5 * sp * st]


def _euler_s2(sp, cp, st):
    return [0.5 * sp, 0.0, -0.5 * cp * st]


def _euler_s3(c):
    return [0.0, 0.5, 0.5 * jets.cos(c[0])]


def _euler_coframe(c):
    """(s1, s2, s3) at the coordinates, each trig jet taken once."""
    t = _euler_trig(c)
    return _euler_s1(*t), _euler_s2(*t), _euler_s3(c)


# sigma3, also the unit of every berger_lee: a run holds its arrays once for every scale
_SIGMA3 = geo.OneFormField(_EULER_CHART, _euler_s3, "sigma3")


def euler_s3_frame():
    """Left-invariant coframe (s1, s2, s3) with d s_i = 2 s_j ^ s_k (cyclic)."""
    return (geo.OneFormField(_EULER_CHART, lambda c: _euler_s1(*_euler_trig(c)), "sigma1"),
            geo.OneFormField(_EULER_CHART, lambda c: _euler_s2(*_euler_trig(c)), "sigma2"),
            _SIGMA3)


def round_s3_euler():
    """Unit round metric s1^2 + s2^2 + s3^2 in the Euler chart."""
    return berger_s3(1.0)


def berger_s3(mu):
    """Squashed metric s1^2 + s2^2 + mu^2 s3^2; mu = 1 is the unit round sphere."""
    mu = float(mu)
    if mu <= 0:
        raise DomainError("berger parameter mu must be positive")
    def fn(c):
        s1, s2, s3 = _euler_coframe(c)
        return [[s1a * s1[b] + s2a * s2[b] + m3a * s3[b] for b in range(3)]
                for s1a, s2a, m3a in zip(s1, s2, [(mu * mu) * x for x in s3])]
    return geo.MetricField(_EULER_CHART, fn, f"berger_s3({mu})")


def berger_lee(scale):
    """alpha = scale * s3 on the Euler chart (d alpha = 2 * scale s1^s2)."""
    return geo.ScaledOneForm(_SIGMA3, scale, f"berger_lee({scale})")


def gh_potential(m=1.0):
    """u = 1 + m/(2r) on the spherical chart; harmonic away from the centre."""
    m = float(m)
    return geo.ScalarField(_SPHERICAL_CHART, lambda c: 1.0 + (m / 2.0) * jets.powc(c[0], -1),
                           f"gh_potential({m})")


def dirac_A(m=1.0, sign=1):
    """Base one-form A with dA = *du for u = 1 + m/(2r): A = (m/2)(cos th -+ 1) dph.

    The sign selects which half of the polar axis carries the string; the
    spherical chart excludes both.
    """
    m = float(m)
    if sign not in (1, -1):
        raise DomainError("dirac sign must be +1 or -1")
    return geo.OneFormField(
        _SPHERICAL_CHART,
        lambda c: [0.0 * c[0], 0.0 * c[0], (m / 2.0) * (jets.cos(c[1]) - float(sign))],
        f"dirac_A({m},{sign})")


def dirac_theta(m=1.0, sign=1):
    """Connection form dtau + phi*(dirac_A) on the Gibbons-Hawking total chart."""
    A = dirac_A(m, sign)
    ch = _total_chart(A.chart, (-3.0, 3.0), "tau")
    return geo.OneFormField(ch, _theta_dtau_plus(A.fn), f"dirac_theta({m},{sign})")


def fibre_exp(rate=2.0):
    """e^{rate * tau}, a scalar of the fibre coordinate; only its ``fn`` enters a metric."""
    return geo.ScalarField(None, lambda c: jets.exp(float(rate) * c[0]), f"fibre_exp({rate})")


def fibre_power(p):
    """tau^p, a fibre scalar as ``fibre_exp`` is (for dilations like rho^-1/2)."""
    return geo.ScalarField(None, lambda c: jets.powc(c[0], float(p)), f"fibre_power({p})")


def _flatness(h, params):
    return {"riemann_norm": max(geo.curvature_report(h, p).riemann_norm
                                for p in _probe(h.chart))}


def _sectional_deviation(h, params):
    return {"sectional_deviation": max(
        abs(geo.sectional_curvature(h, p, (1.0, 0.2, -0.1), (0.3, -1.0, 0.5)) - params["k"])
        for p in _probe(h.chart))}


def _scalar_deviation(h, params):
    mu = params.get("mu", 1.0)
    return {"scalar_deviation": max(abs(geo.curvature_report(h, p).scalar - (8.0 - 2.0 * mu * mu))
                                    for p in _probe(h.chart))}


def _structure_equations(frame, params):
    dev = 0.0
    for p in _probe(frame[0].chart):
        vals = [f.values(p) for f in frame]
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            d = geo.exterior_derivative(frame[i], p)
            target = 2.0 * (np.outer(vals[j], vals[k]) - np.outer(vals[k], vals[j]))
            dev = max(dev, float(np.max(np.abs(d - target))))
    return {"structure_equation_deviation": dev}


def _beltrami_eigenform(alpha, params):
    h, sign = flat3(), -params["sign"]
    return {"beltrami_residual": max(w3.beltrami_residual(w3.HeldBase(h, p), alpha, sign)
                                     for p in _probe(alpha.chart))}


def _not_beltrami(alpha, params):
    base = w3.HeldBase(flat3(), (0.4, 0.2, -0.3))
    return {"min_beltrami_residual": min(w3.beltrami_residual(base, alpha, s)
                                         for s in (1, -1))}


def _curl_deviation(alpha, params):
    dev = 0.0
    for p in _probe(alpha.chart):
        s1, s2 = map(np.array, _euler_coframe(p)[:2])
        target = 2.0 * params["scale"] * (np.outer(s1, s2) - np.outer(s2, s1))
        dev = max(dev, float(np.max(np.abs(geo.exterior_derivative(alpha, p) - target))))
    return {"curl_deviation": dev}


def _harmonic(u, params):
    h = flat3_spherical()
    return {"laplacian": max(abs(geo.laplacian(u, h, p)) for p in _probe(u.chart))}


def _dirac_monopole(form, params):
    """d of the form against *du for u = gh_potential(m) on flat R^3.  On a
    total chart (dirac_theta) the base coordinates come last and d theta has
    no fibre components."""
    u, h = gh_potential(params["m"]), flat3_spherical()
    fibre = form.chart.dim - 3
    dev = 0.0
    for p in _probe(form.chart):
        base = p[fibre:]
        star_du = geo.hodge_star(u.jet(base).grad, h.values(base), 1)
        target = np.pad(star_du, ((fibre, 0), (fibre, 0)))
        dev = max(dev, float(np.max(np.abs(geo.exterior_derivative(form, p) - target))))
    return {"monopole_deviation": dev}


class CatalogEntry(NamedTuple):
    factory: Callable
    params: dict                  # parameter names with their defaults
    formula: str
    validate: Callable            # (object, params) -> {residual name: float}

    def build(self, params):
        """The factory's object at ``params`` over the defaults (names checked)."""
        return self.factory(**{**self.params, **params})


CATALOG = {
    "flat3": CatalogEntry(flat3, {}, "delta_ij on a Cartesian 3-chart", _flatness),
    "flat3_spherical": CatalogEntry(flat3_spherical, {},
                                    "dr^2 + r^2 dth^2 + r^2 sin^2(th) dph^2", _flatness),
    "constant_curvature3": CatalogEntry(constant_curvature3, {"k": 1.0},
                                        "(1 + (k/4)|x|^2)^-2 delta; sectional curvature k",
                                        _sectional_deviation),
    "round_s3_euler": CatalogEntry(round_s3_euler, {}, "s1^2 + s2^2 + s3^2 in Euler angles",
                                   _scalar_deviation),
    "berger_s3": CatalogEntry(berger_s3, {"mu": 0.8}, "s1^2 + s2^2 + mu^2 s3^2",
                              _scalar_deviation),
    "euler_s3_frame": CatalogEntry(euler_s3_frame, {},
                                   "left-invariant coframe with d s_i = 2 s_j ^ s_k",
                                   _structure_equations),
    "trkalian": CatalogEntry(trkalian, {"sign": 1},
                             "cos z dx + sign sin z dy; d alpha = -sign * alpha",
                             _beltrami_eigenform),
    "xdy": CatalogEntry(xdy, {}, "x dy (non-Beltrami control)", _not_beltrami),
    "berger_lee": CatalogEntry(berger_lee, {"scale": 0.96}, "scale * s3", _curl_deviation),
    "gh_potential": CatalogEntry(gh_potential, {"m": 1.0},
                                 "1 + m/(2r), harmonic off the centre", _harmonic),
    "dirac_A": CatalogEntry(dirac_A, {"m": 1.0, "sign": 1},
                            "(m/2)(cos th - sign) dph; dA = *du", _dirac_monopole),
    "dirac_theta": CatalogEntry(dirac_theta, {"m": 1.0, "sign": 1},
                                "dtau + (m/2)(cos th - sign) dph", _dirac_monopole),
}


def catalog_names():
    return sorted(CATALOG)


def catalog(name, **params):
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}; known: {', '.join(catalog_names())}")
    entry = CATALOG[name]
    unknown = set(params) - set(entry.params)
    if unknown:
        raise DomainError(f"catalog entry {name!r} does not take parameters {sorted(unknown)}")
    return entry.build(params)


def catalog_describe(name):
    if name not in CATALOG:
        raise KeyError(f"unknown catalog entry {name!r}")
    entry = CATALOG[name]
    return {"name": name, "params": entry.params, "formula": entry.formula}


def catalog_validate(name, **params):
    """Run the entry's own defining check and return named residuals."""
    obj = catalog(name, **params)
    return CATALOG[name].validate(obj, dict(CATALOG[name].params, **params))


def _probe(chart, n=3):
    rng = np.random.default_rng(0)
    lo = np.asarray(chart.lo)
    hi = np.asarray(chart.hi)
    margin = 0.15 * (hi - lo)
    return [tuple(rng.uniform(lo + margin, hi - margin)) for _ in range(n)]
