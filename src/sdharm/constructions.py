"""Factories for the fibred 4-metric families and the catalog of closed-form
base geometries, one-forms and potentials.

Every family is stored in the common normal form

    g = lam^-2 phi*(h) + lam^2 theta (x) theta

on a 4-chart whose first coordinate is the fibre coordinate; phi projects onto
the remaining three.  Each factory, ``type4_normalize`` and
``conformal_rescale_fibration`` hand the parts (h, A = lam^-2 and theta) to
``_assemble``, whose ``FibredMetric`` evaluates each part once per point or
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
from .errors import DomainError, SingularEvaluationError

__all__ = [
    "FibrationMetric",
    "bryant_metric",
    "jones_tod_metric",
    "type2_warped",
    "type3_metric",
    "type4_metric",
    "type4_normalize",
    "conformal_rescale_fibration",
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
    batch: A and theta as jets, h's jets at the base points through
    ``geo.metric_jets``.  It then forms g by the jets' own product rule on
    component jets (``jets.stack``): A h fills the 3x3 base block, and the
    fibre row and column come from A^-1 theta (x) theta alone.  The products and
    sums are those of ``fn`` in its order, so the arrays equal those of
    ``geo.metric_jets`` of ``fn`` bit for bit (the sign of a zero aside).
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
        if jets.anywhere(aval <= 0.0):
            raise DomainError(      # a batch names its least value
                f"{self.positivity_name} must be positive on the domain, got {np.min(aval):.6g} "
                f"at {tuple(c.value if isinstance(c, jets.Jet) else c for c in coords)}")
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
        th = [coords[0].coerce(t) for t in th]
        hj = geo.metric_jets(self.h, at[:, 1:] if geo._is_batch(at) else at[1:])
        # (A^-1 theta_a) theta_b, then A h on the base block, which h's lift
        # to the total chart gives zero fibre derivatives
        g = (jets.stack([coords[0].coerce(Ainv)], (1, 1)) * jets.stack(th, (4, 1))
             * jets.stack(th, (1, 4)))
        Ah = jets.stack([coords[0].coerce(A)], (1, 1)) * jets.stack(
            [j for row in hj for j in row], (3, 3), dim=4)
        gv, dg, ddg = g.value, g.grad, g.hess
        gv[1:, 1:] += Ah.value
        dg[:, 1:, 1:] += Ah.grad
        ddg[:, :, 1:, 1:] += Ah.hess
        geo._require_symmetric(gv, self.name, at)
        # the layout of geo.metric_jets' arrays: component axes, derivative axes, points
        out = (gv, np.ascontiguousarray(np.moveaxis(dg, 0, 2)),
               np.ascontiguousarray(np.moveaxis(ddg, (0, 1), (2, 3))))
        return tuple(geo._lead(x, point) for x in out)


@dataclass
class FibrationMetric:
    """A 4-metric fibred over a 3-chart by dropping the first coordinate."""

    total_chart: geo.Chart
    base_chart: geo.Chart
    h: geo.MetricField                 # base 3-metric
    g: geo.MetricField                 # total 4-metric
    theta: geo.OneFormField            # connection form on the total chart
    dilation_sq_inv: geo.ScalarField   # lam^-2 on the total chart
    family_tag: str
    family_params: dict = field(default_factory=dict)

    def base_point(self, point):
        return tuple(point[1:])

    def with_orientation(self, orientation):
        if orientation == self.total_chart.orientation:
            return self
        flipped = self.total_chart.flipped()
        return FibrationMetric(
            flipped, self.base_chart,
            self.h,
            self.g.flipped(),
            geo.OneFormField(flipped, self.theta.fn, self.theta.name),
            geo.ScalarField(flipped, self.dilation_sq_inv.fn, self.dilation_sq_inv.name),
            self.family_tag, dict(self.family_params))


def _total_chart(base_chart, fibre_range, fibre_name):
    return geo.Chart((fibre_name,) + tuple(base_chart.names),
                     (fibre_range[0],) + tuple(base_chart.lo),
                     (fibre_range[1],) + tuple(base_chart.hi),
                     base_chart.orientation)


def _assemble(chart, h, lam_inv_sq_fn, theta_fn, tag, params, positivity_name, name=None):
    """The fibration g = A phi*(h) + A^-1 theta^2 with A = lam^-2, from its parts."""
    name = name or tag
    return FibrationMetric(
        chart, h.chart, h, FibredMetric(chart, h, lam_inv_sq_fn, theta_fn, name, positivity_name),
        geo.OneFormField(chart, theta_fn, name=f"{name}.theta"),
        geo.ScalarField(chart, lam_inv_sq_fn, name=f"{name}.lam_inv_sq"), tag, params)


def _theta_dtau_plus(A_fn):
    """theta = d(fibre) + pullback of a base one-form (A_fn may be None)."""
    def fn(coords):
        one = 1.0 + 0.0 * coords[0]
        if A_fn is None:
            zero = 0.0 * coords[0]
            return [one, zero, zero, zero]
        Ab = A_fn(coords[1:])
        return [one, Ab[0], Ab[1], Ab[2]]
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


def jones_tod_metric(h, u, theta_fn=None, A=None, fibre_range=(-3.0, 3.0)):
    """g = v phi*(h) + v^-1 theta^2 with v = u o phi; fibre generated by a
    Killing field.  ``theta_fn`` defaults to dtau + phi*(A)."""
    chart = _total_chart(h.chart, fibre_range, "tau")
    if theta_fn is None:
        theta_fn = _theta_dtau_plus(None if A is None else A.fn)
    lam_inv_sq = lambda coords: u.fn(coords[1:])
    return _assemble(chart, h, lam_inv_sq, theta_fn,
                     "type1", {"u": u, "A": A}, positivity_name="u")


def type2_warped(h, f, fibre_range=(-1.5, 1.5)):
    """g = f phi*(h) + dtau^2 for a positive warping f of the fibre coordinate.

    Normal form data: lam^-2 = f, theta = sqrt(f) dtau.  Geodesic fibres,
    integrable horizontal distribution, dilation constant on horizontal curves.
    """
    chart = _total_chart(h.chart, fibre_range, "tau")

    def theta_fn(coords):
        zero = 0.0 * coords[0]
        return [jets.sqrt(f.fn(coords)), zero, zero, zero]

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

    def theta_fn(coords):
        one = 1.0 + 0.0 * coords[0]
        if alpha is None:
            zero = 0.0 * coords[0]
            return [one, zero, zero, zero]
        ab = alpha.fn(coords[1:])
        return [one, -1.0 * ab[0], -1.0 * ab[1], -1.0 * ab[2]]

    return _assemble(chart, h, lam_inv_sq, theta_fn, "type4",
                     {"alpha": alpha, "c": c}, positivity_name="e^rho + c")


def type4_normalize(fm):
    """Rescale a type-4 fibration so that the structure function becomes +-1.

    Output: g~ = |c| g, h~ = c^2 h, lam~^-2 = lam^-2 / |c|, theta~ = theta,
    alpha~ = alpha - d log|c|.  Requires c nowhere zero on the base domain.
    """
    if fm.family_tag != "type4":
        raise ValueError("normalization applies to type-4 fibrations")
    c = fm.family_params["c"]
    alpha = fm.family_params["alpha"]
    base = fm.base_chart

    if not isinstance(c, geo.ScalarField):
        c_num = float(c)
        if c_num == 0.0:
            raise DomainError("c vanishes; normalization undefined")
        c_fn = lambda coords3: c_num
    else:
        c_fn = c.fn

    def abs_c(coords3):
        """|c|: c times its sign (at each point of a batch)."""
        cv = c_fn(coords3)
        v = cv.value if isinstance(cv, jets.Jet) else float(cv)
        if jets.anywhere(v == 0.0):
            raise DomainError("c vanishes; normalization undefined")
        return cv * np.sign(v)

    h_tilde = geo.MetricField(
        base,
        lambda coords3: [[c_fn(coords3) * c_fn(coords3) * comp
                          for comp in row] for row in fm.h.fn(coords3)],
        name=fm.h.name + ".normalized")

    def alpha_tilde_fn(coords3):
        cv = c_fn(coords3)
        if isinstance(cv, jets.Jet):
            # jet axes must be the base axes; this form is for base-chart checks
            if cv.dim != 3:
                raise DomainError("normalized Lee form evaluates on the base chart only")
            if jets.anywhere(cv.value == 0.0):
                raise DomainError("c vanishes; normalization undefined")
            dlog = [cv.deriv(a) / cv for a in range(3)]
        else:
            dlog = [0.0, 0.0, 0.0]
        if alpha is None:
            return [-1.0 * d + 0.0 * coords3[0] for d in dlog]
        av = alpha.fn(coords3)
        return [av[a] - dlog[a] for a in range(3)]

    alpha_tilde = geo.OneFormField(base, alpha_tilde_fn, name="alpha.normalized")

    def lam_fn(coords):
        return fm.dilation_sq_inv.fn(coords) / abs_c(coords[1:])

    if isinstance(c, geo.ScalarField):
        center = tuple(0.5 * (l + u) for l, u in zip(base.lo, base.hi))
        sign = 1 if c.value(center) > 0 else -1
    else:
        sign = 1 if float(c) > 0 else -1

    return _assemble(fm.total_chart, h_tilde, lam_fn, fm.theta.fn, "type4",
                     {"alpha": alpha_tilde, "c": float(sign), "normalized_from": fm.family_params},
                     fm.g.positivity_name, name=fm.g.name + ".normalized")


def conformal_rescale_fibration(fm, w):
    """g -> (w o phi) g for a positive basic factor w on the base chart.

    The stored normal-form data transforms as lam^-2 -> w lam^-2 and
    theta -> w theta, keeping theta(V) = 1 for the new fundamental field.
    """
    def wj(coords):
        """w as a jet; a constant w takes the shape of the coordinates' jets."""
        v = w.fn(coords[1:])
        if isinstance(v, jets.Jet):
            return v
        return coords[0].coerce(v) if isinstance(coords[0], jets.Jet) else jets.constant(v, 4)

    def lam_fn(coords):
        fac = wj(coords)
        if jets.anywhere(fac.value <= 0.0):
            raise DomainError("conformal factor must be positive")
        return fac * fm.dilation_sq_inv.fn(coords)

    def theta_fn(coords):
        fac = wj(coords)
        return [fac * t for t in fm.theta.fn(coords)]

    return _assemble(fm.total_chart, fm.h, lam_fn, theta_fn, fm.family_tag,
                     dict(fm.family_params, rescaled=True), fm.g.positivity_name,
                     name=fm.g.name + ".rescaled")


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
        _FLAT3_CHART, lambda c: [[(1.0 if a == b else 0.0) + 0.0 * c[0] for b in range(3)]
                                 for a in range(3)], "flat3")


def flat3_spherical():
    """Euclidean metric in spherical coordinates (r, th, ph)."""
    def fn(c):
        r, th, _ = c
        s = jets.sin(th)
        return [[1.0 + 0 * r, 0, 0], [0, r * r, 0], [0, 0, r * r * s * s]]
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


# The left-invariant coframe (s1, s2, s3) in the Euler chart, one function
# per form, so that a field evaluates only the forms it needs.

def _euler_s1(c):
    th, ps, _ = c
    return [0.5 * jets.cos(ps), 0.0 * th, 0.5 * jets.sin(ps) * jets.sin(th)]


def _euler_s2(c):
    th, ps, _ = c
    return [0.5 * jets.sin(ps), 0.0 * th, -0.5 * jets.cos(ps) * jets.sin(th)]


def _euler_s3(c):
    th = c[0]
    return [0.0 * th, 0.5 + 0.0 * th, 0.5 * jets.cos(th)]


def euler_s3_frame():
    """Left-invariant coframe (s1, s2, s3) with d s_i = 2 s_j ^ s_k (cyclic)."""
    return tuple(geo.OneFormField(_EULER_CHART, s, f"sigma{i+1}")
                 for i, s in enumerate((_euler_s1, _euler_s2, _euler_s3)))


def round_s3_euler():
    """Unit round metric s1^2 + s2^2 + s3^2 in the Euler chart."""
    return berger_s3(1.0)


def berger_s3(mu):
    """Squashed metric s1^2 + s2^2 + mu^2 s3^2; mu = 1 is the unit round sphere."""
    mu = float(mu)
    if mu <= 0:
        raise DomainError("berger parameter mu must be positive")
    def fn(c):
        s1, s2, s3 = _euler_s1(c), _euler_s2(c), _euler_s3(c)
        return [[s1[a] * s1[b] + s2[a] * s2[b] + (mu * mu) * s3[a] * s3[b]
                 for b in range(3)] for a in range(3)]
    return geo.MetricField(_EULER_CHART, fn, f"berger_s3({mu})")


def berger_lee(scale):
    """alpha = scale * s3 on the Euler chart (d alpha = 2 * scale s1^s2)."""
    return geo.OneFormField(
        _EULER_CHART, lambda c: [float(scale) * x for x in _euler_s3(c)],
        f"berger_lee({scale})")


def berger_ew_scale(mu):
    """The scale for which (berger_s3(mu), berger_lee(scale)) is Einstein-Weyl."""
    mu = float(mu)
    if not 0 < mu <= 1:
        raise DomainError("Einstein-Weyl squashings need 0 < mu <= 1")
    return 2.0 * mu * math.sqrt(1.0 - mu * mu)


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
    """e^{rate * tau} as a scalar on any total chart (depends on coordinate 0)."""
    def make(chart):
        return geo.ScalarField(chart, lambda c: jets.exp(float(rate) * c[0]),
                               f"fibre_exp({rate})")
    return make


def fibre_power(p):
    """tau^p as a scalar of the fibre coordinate (for dilations like rho^-1/2)."""
    def make(chart):
        return geo.ScalarField(chart, lambda c: jets.powc(c[0], float(p)),
                               f"fibre_power({p})")
    return make


def variable_c_background():
    """A type-4 data set with genuinely variable c on a conformally flat base.

    Gauge-transforms the flat Trkalian solution: c(x) = 1 + sin(x)/2,
    h = c^-2 delta, alpha = trkalian(-1) + d log c.  Satisfies
    d alpha - c * alpha + * dc = 0 with the chart star of h.
    """
    ch = _FLAT3_CHART

    def cj(c):
        return 1.0 + 0.5 * jets.sin(c[0])

    def dlog(c):
        cv = cj(c)
        return [(0.5 * jets.cos(c[0])) / cv, 0.0 * c[0], 0.0 * c[0]]

    c_field = geo.ScalarField(ch, cj, "one_plus_half_sin_x")
    h = geo.MetricField(
        ch, lambda c: [[jets.powc(cj(c), -2) * (1.0 if a == b else 0.0)
                        for b in range(3)] for a in range(3)], "cinv2_flat")
    alpha = geo.OneFormField(
        ch, lambda c: [jets.cos(c[2]) + dlog(c)[0], -1.0 * jets.sin(c[2]), 0.0 * c[2]],
        "trkalian_gauge")
    return h, alpha, c_field


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
    w = w3.WeylStructure3(flat3(), alpha)
    return {"beltrami_residual": max(w3.beltrami_residual(w, -params["sign"], p)
                                     for p in _probe(alpha.chart))}


def _not_beltrami(alpha, params):
    w = w3.WeylStructure3(flat3(), alpha)
    return {"min_beltrami_residual": min(w3.beltrami_residual(w, s, (0.4, 0.2, -0.3))
                                         for s in (1, -1))}


def _curl_deviation(alpha, params):
    dev = 0.0
    for p in _probe(alpha.chart):
        s1, s2 = np.array(_euler_s1(p)), np.array(_euler_s2(p))
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
    return entry.factory(**dict(entry.params, **params))


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
