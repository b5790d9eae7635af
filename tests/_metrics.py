"""Shared closed-form charts and metrics used across the test modules, the
conformal rescalings and the type-4 normalization that the invariance tests
apply to them, and the fibrations on which each gate of the classifier
decides."""

import math

import numpy as np

from sdharm import constructions as con, geometry as geo, jets
from sdharm.errors import DegenerateMetricError, DomainError


def chart2():
    return geo.Chart(("x", "y"), (-3, -3), (3, 3))


def chart3():
    return geo.Chart(("x", "y", "z"), (-2, -2, -2), (2, 2, 2))


def chart4():
    return geo.Chart(("t", "x", "y", "z"), (-2, -2, -2, -2), (2, 2, 2, 2))


def flat(chart):
    d = chart.dim
    return geo.MetricField(
        chart, lambda c: [[(1.0 if a == b else 0.0) + 0.0 * c[0] for b in range(d)]
                          for a in range(d)], "flat")


def berger_ew_scale(mu):
    """The scale for which (berger_s3(mu), berger_lee(scale)) is Einstein-Weyl."""
    mu = float(mu)
    if not 0 < mu <= 1:
        raise DomainError("Einstein-Weyl squashings need 0 < mu <= 1")
    return 2.0 * mu * math.sqrt(1.0 - mu * mu)


def sphere2_unit():
    def fn(c):
        w = 4.0 / (1.0 + c[0] * c[0] + c[1] * c[1]) ** 2
        return [[w, 0.0], [0.0, w]]
    return geo.MetricField(chart2(), fn, "unit_s2")


def constant_curvature3(k, chart=None):
    chart = chart or chart3()
    def fn(c):
        q = 1.0 + (k / 4.0) * (c[0] * c[0] + c[1] * c[1] + c[2] * c[2])
        w = jets.powc(q, -2)
        return [[w, 0, 0], [0, w, 0], [0, 0, w]]
    return geo.MetricField(chart, fn, f"cc3({k})")


def round_s4():
    def fn(c):
        q = 1.0 + 0.25 * sum(ci * ci for ci in c)
        w = jets.powc(q, -2)
        return [[w if a == b else 0.0 * c[0] for b in range(4)] for a in range(4)]
    return geo.MetricField(chart4(), fn, "round_s4")


def bumpy4(seed=0, amp=0.15):
    """Generic curved positive-definite 4-metric: flat plus smooth bounded bumps."""
    rng = np.random.default_rng(seed)
    freq = rng.uniform(0.5, 1.5, size=(4, 4, 4))
    phase = rng.uniform(0, 6.28, size=(4, 4))
    def fn(c):
        g = [[None] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(a, 4):
                s = jets.sin(freq[a][b][0] * c[0] + freq[a][b][1] * c[1]
                             + freq[a][b][2] * c[2] + phase[a][b])
                val = (1.0 if a == b else 0.0) + amp * s * (0.5 if a != b else 1.0)
                g[a][b] = val
                g[b][a] = val
        return g
    return geo.MetricField(chart4(), fn, f"bumpy4({seed})")


def random_two_form4(rng):
    coef = rng.uniform(-1, 1, size=(4, 4))
    coef = coef - coef.T
    freq = rng.uniform(0.3, 1.2, size=4)
    def fn(c):
        s = jets.sin(freq[0] * c[0] + freq[1] * c[1] + freq[2] * c[2] + freq[3] * c[3])
        return [[coef[a][b] * (1.0 + 0.3 * s) for b in range(4)] for a in range(4)]
    return geo.TwoFormField(chart4(), fn, "rand2form")


def gh_chart():
    return geo.Chart(("tau", "r", "th", "ph"), (-3, 0.1, 0.2, 0.1), (3, 5, 2.9, 6.1))


def gibbons_hawking(m=1.0):
    """u = 1 + m/(2r) over the flat spherical 3-chart, Dirac connection form."""
    def fn(c):
        tau, r, th, ph = c
        u = 1.0 + m / (2.0 * r)
        aph = (m / 2.0) * (jets.cos(th) - 1.0)
        uinv = 1.0 / u
        hcomp = [[1.0 + 0 * r, 0, 0], [0, r * r, 0], [0, 0, r * r * jets.sin(th) * jets.sin(th)]]
        theta = [1.0 + 0 * r, 0.0 * r, 0.0 * r, aph]
        g = [[None] * 4 for _ in range(4)]
        for a in range(4):
            for b in range(4):
                hp = hcomp[a - 1][b - 1] if (a > 0 and b > 0) else 0.0
                g[a][b] = u * hp + uinv * theta[a] * theta[b]
        return g
    return geo.MetricField(gh_chart(), fn, f"gibbons_hawking({m})")


# ---------------------------------------------------------------------------
# conformal rescalings and the type-4 normalization
# ---------------------------------------------------------------------------

def conformal_rescale(g, f):
    """Metric field f * g for a positive scalar field f on the same chart."""
    def fn(coords):
        fac = f.fn(coords)
        if isinstance(fac, jets.Jet) and jets.anywhere(fac.value <= 0.0):
            raise DegenerateMetricError("conformal factor is not positive",
                                        point=tuple(c.value for c in coords))
        return [[fac * c for c in row] for row in g.fn(coords)]
    return geo.MetricField(g.chart, fn, name=f"({f.name or 'f'})*{g.name or 'g'}")


def type4_normalize(fm):
    """Rescale a type-4 fibration so that the structure function becomes +-1.

    Output: g~ = |c| g, h~ = c^2 h, lam~^-2 = lam^-2 / |c|, theta~ = theta,
    alpha~ = alpha - d log|c|.  Requires c nowhere zero on the base domain.
    """
    if fm.family_tag != "type4":
        raise ValueError("normalization applies to type-4 fibrations")
    c = fm.family_params["c"]
    alpha = fm.family_params["alpha"]
    base = fm.h.chart

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

    return con._assemble(fm.total_chart, h_tilde, lam_fn, fm.theta.fn, "type4",
                         {"alpha": alpha_tilde, "c": float(sign),
                          "normalized_from": fm.family_params},
                         fm.g.positivity_name, name=fm.g.name + ".normalized")


def conformal_rescale_fibration(fm, w):
    """g -> (w o phi) g for a positive basic factor w on the base chart, or
    g -> w g for a positive factor w on the total chart.

    The stored normal-form data transforms as lam^-2 -> w lam^-2 and
    theta -> w theta, keeping theta(V) = 1 for the new fundamental field.
    """
    def wj(coords):
        """w as a jet; a constant w takes the shape of the coordinates' jets."""
        v = w.fn(coords if w.chart.dim == 4 else coords[1:])
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

    return con._assemble(fm.total_chart, fm.h, lam_fn, theta_fn, fm.family_tag,
                         dict(fm.family_params, rescaled=True), fm.g.positivity_name,
                         name=fm.g.name + ".rescaled")


def variable_c_background():
    """A type-4 data set with genuinely variable c on a conformally flat base.

    Gauge-transforms the flat Trkalian solution: c(x) = 1 + sin(x)/2,
    h = c^-2 delta, alpha = trkalian(-1) + d log c.  Satisfies
    d alpha - c * alpha + * dc = 0 with the chart star of h.
    """
    ch = con._FLAT3_CHART

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


# ---------------------------------------------------------------------------
# fibrations on which a gate of the classifier decides
# ---------------------------------------------------------------------------
# Each is a normal form g = A phi*(flat) + A^-1 theta (x) theta, theta = dtau +
# phi*(alpha), or a conformal rescaling of one, classified from the four
# ``fibre_samples_about(fm, point, 4)`` samples about its point.

def flat_normal_form(A_fn, alpha_fn=None, fibre_range=(0.5, 3.0)):
    """The normal form over flat R^3 with lam^-2 = A_fn(coords) on the total
    chart and theta = dtau + alpha, alpha_fn giving alpha's base components."""
    h = con.flat3()
    return con._assemble(con._total_chart(h.chart, fibre_range, "tau"), h, A_fn,
                         con._theta_dtau_plus(alpha_fn), "bryant", {}, "lam^-2")


# classify's samples about tau = 1.7 on the fibre range (0.5, 3.0) lie 0.125 apart
_SAMPLE_SPACING = 0.05 * 2.5


def aliased_lee_form():
    """(fibration, point) with log A = 0.1 x sin(pi (tau - 1.7) / 0.125): the
    mixed derivative d_tau d_x log A, which both twistoriality certificates
    read at a point, vanishes at every sample, but d_x log A is +-0.1 there,
    so the projected Lee form d^H log A differs between the samples."""
    wave = lambda c: jets.sin((math.pi / _SAMPLE_SPACING) * (c[0] - 1.7))
    return flat_normal_form(lambda c: jets.exp(0.1 * c[1] * wave(c))), (1.7, 0.3, -0.2, 0.4)


def fibre_dependent_rescale():
    """(fibration, point): the type-4 fibration of trkalian(-1), c = 1, times
    w = 1 + 0.2 tau x.  Both twistoriality certificates are conformally
    invariant, but harmonicity is not: the weighted defect moves by
    -d^H log w, which changes along the fibre."""
    fm = con.type4_metric(con.flat3(), con.trkalian(-1), c=1.0)
    w = geo.ScalarField(fm.total_chart, lambda c: 1.0 + 0.2 * c[0] * c[1], "1+0.2 tau x")
    return conformal_rescale_fibration(fm, w), (0.2, 0.3, -0.2, 0.4)


def turning_warp():
    """(fibration, point): the warped product (1 + tau^2) flat + dtau^2, about
    tau = 0, where V(lam^-2) = 2 tau (1 + tau^2)^(-1/2) changes sign."""
    h = con.flat3()
    chart = con._total_chart(h.chart, (-1.5, 1.5), "tau")
    return (con.type2_warped(h, geo.ScalarField(chart, lambda c: 1.0 + c[0] * c[0], "1+tau^2")),
            (0.0, 0.3, -0.2, 0.4))


def nearly_type4_warp():
    """(fibration, point) with A = 1000 e^tau + 0.001 tau: V(log V(A)) is
    constant along the fibre to 7e-8, inside the branch tolerance, but the c
    recovered from it, -3.2e-4 in the mean, spreads by 1.9e-5."""
    return flat_normal_form(lambda c: 1000.0 * jets.exp(c[0]) + 0.001 * c[0]), (1.7, 0.3, -0.2, 0.4)


def slightly_twisted_warp(eps=3e-7):
    """(fibration, point) with A = tau^2 and alpha = eps trkalian(1): the
    twist makes the horizontal distribution non-integrable, |I| = 0.61 eps,
    while the twistorial residual stays 0.21 eps and the basic one 0.098 eps,
    so at eps = 3e-7 only I is above the gates' 1e-7."""
    return (flat_normal_form(lambda c: c[0] * c[0],
                             lambda c: [eps * jets.cos(c[2]), eps * jets.sin(c[2]), 0.0]),
            (1.7, 0.3, -0.2, 0.4))


def reversed_type4():
    """(fibration, point) with A = e^-tau + 1 and alpha = trkalian(1): the
    type-4 fibration of c = 1 with its fibre coordinate reversed, so
    V(lam^-2) < 0 along the whole fibre."""
    return (flat_normal_form(lambda c: jets.exp(-1.0 * c[0]) + 1.0,
                             con.trkalian(1).fn, fibre_range=(-1.5, 1.5)),
            (0.2, 0.3, -0.2, 0.4))
