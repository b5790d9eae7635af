"""Independent oracles the tests hold the package to: the finite-difference
derivatives of a scalar field, the integrability form's cross-check against
the connection form, *_H I in a Gram-Schmidt horizontal frame, the trace forms
and the integrability form through the Christoffel symbols, the einsum
formulas of the curvature chain, the index-at-a-time ``to_frame``, the
field closures with each constant component built as a jet, the base
closures before their constants became numbers, and a sweep step resolved
whole."""

import types

import numpy as np

from sdharm import cli, constructions as con, geometry as geo, jets
from sdharm.errors import SingularEvaluationError


# -- independent finite-difference oracle ------------------------------------

def fd_gradient(f, point, step=1e-4, richardson=False):
    """Central-difference gradient of a float-valued field.

    ``richardson=True`` adds one level of Richardson extrapolation
    (default off).
    """
    point = np.asarray(point, dtype=float)
    d = point.shape[0]

    def grad_at(h):
        g = np.zeros(d)
        for i in range(d):
            e = np.zeros(d)
            e[i] = h
            g[i] = (f(point + e) - f(point - e)) / (2.0 * h)
        return g

    g = grad_at(step)
    if richardson:
        g = (4.0 * grad_at(step / 2.0) - g) / 3.0
    if not np.all(np.isfinite(g)):
        raise SingularEvaluationError("finite-difference stencil hit a non-finite value",
                                      point=point)
    return g


def fd_hessian(f, point, step=1e-4, richardson=False):
    """Central-difference Hessian (symmetric by construction)."""
    point = np.asarray(point, dtype=float)
    d = point.shape[0]

    def hess_at(h):
        H = np.zeros((d, d))
        f0 = f(point)
        for i in range(d):
            ei = np.zeros(d)
            ei[i] = h
            H[i, i] = (f(point + ei) - 2.0 * f0 + f(point - ei)) / (h * h)
            for j in range(i + 1, d):
                ej = np.zeros(d)
                ej[j] = h
                val = (f(point + ei + ej) - f(point + ei - ej)
                       - f(point - ei + ej) + f(point - ei - ej)) / (4.0 * h * h)
                H[i, j] = H[j, i] = val
        return H

    H = hess_at(step)
    if richardson:
        H = (4.0 * hess_at(step / 2.0) - H) / 3.0
    if not np.all(np.isfinite(H)):
        raise SingularEvaluationError("finite-difference stencil hit a non-finite value",
                                      point=point)
    return H


def fd_oracle(f, point, step=1e-4, richardson=False):
    """(gradient, Hessian) of a scalar field by central differences only.

    Independent of the jet engine: ``f`` is called on plain float tuples.
    """
    return (fd_gradient(f, point, step, richardson),
            fd_hessian(f, point, step, richardson))


# -- structural cross-check of the fibration context ---------------------------

def integrability_consistency(setup, point):
    """|| I - lam * dtheta restricted to the lifts ||, a structural cross-check."""
    ctx = setup.ctx(point)
    lam = ctx.lam_inv_sq ** -0.5
    return float(np.max(np.abs(ctx.integrability[1:, 1:] - lam * ctx.lifted_dtheta)))


# -- *_H I in a horizontal frame ------------------------------------------------
# morphism.PointEval.star_H_I takes the star from its frame-free formula; here
# it is taken in a g-orthonormal horizontal frame, Gram-Schmidt at every point
# of a PointEval at once, as the package computed it before.

def _g(pe, v, w):
    """g(v, w) at each point, as the matrix products of one point compute it."""
    return (v[:, None, :] @ pe.gv @ w[:, :, None])[:, 0, 0]


def horizontal_frame(pe):
    """g-orthonormal horizontal frame X1, X2, X3 as rows, oriented so
    (U, X1, X2, X3) is positive for the chart orientation (Gram-Schmidt
    at every point at once)."""
    frame = []
    for i in (1, 2, 3):
        v = pe.P[:, :, i].copy()
        for f in frame:
            v = v - _g(pe, v, f)[:, None] * f
        frame.append(v / np.sqrt(_g(pe, v, v))[:, None])
    full = np.stack([pe.V0[:, None] * np.eye(4)[0]] + frame, axis=-1)
    flip = np.linalg.det(full) * pe.fm.total_chart.orientation < 0
    frame[2] = np.where(flip[:, None], -frame[2], frame[2])
    return np.stack(frame, axis=1)


def star_H_I(pe):
    """*_{H,g} of the integrability form, as coordinate one-form components."""
    frame = horizontal_frame(pe)
    Itilde = frame @ pe.integrability @ frame.swapaxes(-1, -2)
    star = 0.5 * np.einsum("...kl,klm->...m", Itilde, geo.levi_civita_symbol(3))
    return (star[:, None, :] @ frame @ pe.gv)[:, 0]



# -- the trace forms and the integrability form through Gamma --------------------
# morphism.PointEval takes them from the unit vertical coframe eta = V0 g_0.;
# here they are covariant derivatives of the lifted coordinate frame
# W_b = d_b + w_b d_0 through Gamma and dGamma, by the product rule through
# einsum, as the package computed them before.

def _spec(terms, out, z=None):
    """An einsum spec over a leading point axis; term ``z`` (and the output,
    unless z is None) gains a trailing derivative axis."""
    ins = ",".join("..." + s + ("z" if k == z else "") for k, s in enumerate(terms))
    return f"{ins}->...{out}" + ("" if z is None else "z")


def d_einsum(spec, *pairs):
    """Product rule through einsum: the (value, derivative) pair of
    ``einsum(spec, *values)`` from (value, derivative) pairs whose derivative
    arrays carry one extra trailing axis, d/dx^e.  Every array has a leading
    point axis, which ``spec`` leaves out."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    values = [v for v, _ in pairs]
    deriv = sum(np.einsum(_spec(ins, out, k), *values[:k], d, *values[k + 1:])
                for k, (_, d) in enumerate(pairs))
    return np.einsum(_spec(ins, out), *values), deriv


def lift_inputs(pe):
    """The metric arrays of a PointEval with its Gamma, dGamma by the einsum of
    ``christoffel_jets`` below, and the lift
    inputs: u = 1/g_00 with its first and second derivatives, d_e w_b, and the
    projector P = 1 + e_0 (x) w with dP, w_b = -g_0b/g_00."""
    gv, dg, ddg, ginv, dginv, G = pe.metric
    dG = christoffel_jets(ginv, dginv, dg, ddg)[1]
    g00, dg00 = gv[:, 0, 0], dg[:, 0, 0]
    u = 1.0 / g00
    uc = u[:, None]
    u_pair = (u, -dg00 * uc * uc)
    ddu = (-ddg[:, 0, 0] * uc[..., None] * uc[..., None]
           + 2.0 * (u ** 3)[:, None, None] * (dg00[:, :, None] * dg00[:, None, :]))
    dw = -dg[:, 0] * uc[..., None] - gv[:, 0, :, None] * u_pair[1][:, None, :]
    P = np.tile(np.eye(4), (len(gv), 1, 1))
    P[:, 0] -= gv[:, 0] * uc
    dP = np.zeros(dg.shape)
    dP[:, 0] = dw
    return types.SimpleNamespace(gv=gv, dg=dg, ddg=ddg, ginv=ginv, dginv=dginv, G=G, dG=dG,
                                 V0=pe.V0, u=u_pair, ddu=ddu, dw=dw, P=P, dP=dP)


def vertical_trace(ev):
    """trace Bv = P(nabla_U U) as (value, derivative), from ``lift_inputs``."""
    u, du = ev.u
    e0 = np.eye(4)[0]
    G00, dG00 = ev.G[:, :, 0, 0], ev.dG[:, :, 0, 0]
    # nabla_U U = V0^2 Gamma^a_00 + delta^a_0 V0 d_0 V0, and V0^2 = u
    accel = (G00 * u[:, None] + 0.5 * du[:, 0, None] * e0,
             dG00 * u[:, None, None] + G00[:, :, None] * du[:, None, :]
             + 0.5 * (e0[:, None] * ev.ddu[:, None, 0]))
    return d_einsum("ab,b->a", (ev.P, ev.dP), accel)


def vertical_trace_flat(ev):
    """(trace Bv)-flat as (value, derivative)."""
    return d_einsum("ab,b->a", (ev.gv, ev.dg), vertical_trace(ev))


def horizontal_trace_flat(ev):
    """(trace Bh)-flat as (value, derivative): the vertical part of
    h^bc nabla_{W_b} W_c, h^bc being g^-1 less the unit vertical square."""
    u, du = ev.u
    g0, dg0 = ev.gv[:, 0], ev.dg[:, 0]
    # ddw[b,e,f] = d_f d_e w_b, from w_b = -g_0b u
    ddw = (-ev.ddg[:, 0] * u[:, None, None, None]
           - np.einsum("...be,...f->...bef", dg0, du)
           - np.einsum("...bf,...e->...bef", dg0, du)
           - np.einsum("...b,...ef->...bef", g0, ev.ddu))
    # (nabla_{W_b} W_c)^d = (P^T Gamma^d P)_bc + delta^d_0 W_b(w_c), one
    # matrix product per d; d/dx^z (stacked on axis 1) by the product rule
    P, Pt = ev.P[:, None], ev.P.swapaxes(-1, -2)[:, None]
    dPz = np.moveaxis(ev.dP, -1, 1)[:, :, None]          # [n, z, 1, e, b]
    GP, PtG = ev.G @ P, Pt @ ev.G
    nab = Pt @ GP
    dnab = np.moveaxis(Pt[:, None] @ np.moveaxis(ev.dG, -1, 1) @ P[:, None]
                       + dPz.swapaxes(-1, -2) @ GP[:, None] + PtG[:, None] @ dPz, 1, -1)
    lift, dlift = d_einsum("eb,ce->bc", (ev.P, ev.dP), (ev.dw, ddw))
    nab[:, 0] += lift
    dnab[:, 0] += dlift
    GH, dGH = ev.ginv.copy(), ev.dginv.copy()
    GH[:, 0, 0] -= u
    dGH[:, 0, 0] -= du
    s, ds = d_einsum("bc,bc->", (GH, dGH), d_einsum("d,dbc->bc", (g0, dg0), (nab, dnab)))
    # t = U g(U, .) of the sum = d_0 s/g_00; lowered: g_a0 s/g_00
    su, dsu = s * u, ds * u[:, None] + s[:, None] * du
    return g0 * su[:, None], dg0 * su[:, None, None] + g0[:, :, None] * dsu[:, None, :]


def integrability(ev):
    """I(W_a, W_b) = -g(U, [W_a, W_b]) as a 4x4 antisymmetric array; the
    bracket of two lifts is W_a(w_b) - W_b(w_a) along d_0."""
    lift = np.einsum("...ea,...be->...ab", ev.P, ev.dw)
    return (-ev.V0 * ev.gv[:, 0, 0])[:, None, None] * (lift - lift.swapaxes(-1, -2))


# -- the curvature chain and its neighbours by einsum ---------------------------
# geometry and weyl3 contract these with matrix products; here each is the
# einsum of its formula, as the package computed it before, to hold the
# products to.  The Riemann tensor goes by way of dGamma and R^a_bcd, which
# geometry's R_abcd from the metric's second derivatives and Gamma skips.

def jet_matrix_inverse(g, dg):
    ginv = np.linalg.inv(g)
    return ginv, -np.einsum("...ae,...efc,...fb->...abc", ginv, dg, ginv)


def christoffel_jets(ginv, dginv, dg, ddg):
    low = 0.5 * (np.einsum("...ecb->...ebc", dg) + dg - np.einsum("...bce->...ebc", dg))
    dlow = np.einsum("...ecbd->...ebcd", ddg) + ddg
    dlow -= np.einsum("...bced->...ebcd", ddg)
    dlow *= 0.5
    G = np.einsum("...ae,...ebc->...abc", ginv, low)
    dG = np.einsum("...ae,...ebcd->...abcd", ginv, dlow)
    dG += np.einsum("...aed,...ebc->...abcd", dginv, low)
    return G, dG


def riemann_from_gamma(G, dG):
    R = np.einsum("...adbc->...abcd", dG) - np.einsum("...acbd->...abcd", dG)
    R += np.einsum("...ace,...edb->...abcd", G, G)
    R -= np.einsum("...ade,...ecb->...abcd", G, G)
    return R


def curvature_from_gamma(mp):
    """(R_abcd, Ric_bd, scalar) by way of dGamma and R^a_bcd, from the arrays
    of a MetricPoint."""
    R_up = riemann_from_gamma(*christoffel_jets(mp.ginv, mp.dginv, mp.dg, mp.ddg))
    R_low = np.einsum("...ae,...ebcd->...abcd", mp.g, R_up)
    ric = np.einsum("...abad->...bd", R_up)
    scal = geo._float(np.einsum("...bd,...bd->...", mp.ginv, ric))
    return R_low, ric, scal


def kulkarni_nomizu(A, B):
    K = np.einsum("...ac,...bd->...abcd", A, B)
    K += np.einsum("...bd,...ac->...abcd", A, B)
    K -= np.einsum("...ad,...bc->...abcd", A, B)
    K -= np.einsum("...bc,...ad->...abcd", A, B)
    return K


def split_two_form(F, gv, orientation=1, point=None):
    E = geo.orthonormal_frame(gv, point=point)
    v = geo.two_form_to_six(geo.to_frame(np.asarray(F, dtype=float), E))
    Sv = v @ geo.star_matrix_flat4(orientation).T
    vp = 0.5 * (v + Sv)
    vm = 0.5 * (v - Sv)
    Einv = np.linalg.inv(E)
    back = lambda w: np.einsum("...ia,...jb,...ij->...ab", Einv, Einv, geo.six_to_two_form(w))
    norm = lambda w: geo._float(np.sqrt(np.sum(w * w, axis=-1)))
    return back(vp), back(vm), norm(vp), norm(vm)


def sectional_curvature(g, point, X, Y):
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gv, R_low, _, _ = geo._curvature(g, point)
    gram = (X @ gv @ X) * (Y @ gv @ Y) - (X @ gv @ Y) ** 2
    num = np.einsum("abcd,a,b,c,d->", R_low, X, Y, X, Y)
    return float(num / gram)


def monopole_residual(base, u, alpha, F):
    uv, du, _ = u.arrays(base.point)
    av, _ = base.arrays(alpha)
    lhs = du - np.asarray(uv)[..., None] * av
    diff = lhs - base.star(F.values(base.point), 2, base.h.chart.orientation)
    norm2 = np.einsum("...a,...b,...ab->...", diff, diff, base.mp.ginv)
    return geo._float(np.sqrt(np.maximum(0.0, norm2)))


def to_frame(T, E):
    """geometry.to_frame as an index at a time for every rank: T's first index
    contracted with E as one matrix product and put last, once per index."""
    lead = E.shape[:-2]
    n = len(lead)
    first_last = (*range(n), *range(n + 1, T.ndim), n)
    for _ in range(T.ndim - n):
        T = T.transpose(first_last)
        T = (T.reshape(lead + (-1, E.shape[-2])) @ E).reshape(T.shape)
    return T


# -- closures with their constant components as jets ---------------------------
# constructions and cli return a constant component as a number, which the
# field's coerce lifts to a jet; here each constant is the jet ``0.0 * c[0]``,
# as the package built them before, to hold the fields' arrays to bit for bit.

def euler_s1(c):
    th, ps, _ = c
    return [0.5 * jets.cos(ps), 0.0 * th, 0.5 * jets.sin(ps) * jets.sin(th)]


def euler_s2(c):
    th, ps, _ = c
    return [0.5 * jets.sin(ps), 0.0 * th, -0.5 * jets.cos(ps) * jets.sin(th)]


def euler_s3(c):
    th = c[0]
    return [0.0 * th, 0.5 + 0.0 * th, 0.5 * jets.cos(th)]


def euler_s3_frame():
    return tuple(geo.OneFormField(con._EULER_CHART, s, f"sigma{i+1}")
                 for i, s in enumerate((euler_s1, euler_s2, euler_s3)))


def berger_s3(mu):
    def fn(c):
        s1, s2, s3 = euler_s1(c), euler_s2(c), euler_s3(c)
        return [[s1[a] * s1[b] + s2[a] * s2[b] + (mu * mu) * s3[a] * s3[b]
                 for b in range(3)] for a in range(3)]
    return geo.MetricField(con._EULER_CHART, fn, f"berger_s3({mu})")


def berger_lee(scale):
    return geo.OneFormField(con._EULER_CHART, lambda c: [float(scale) * x for x in euler_s3(c)],
                            f"berger_lee({scale})")


# -- base closures as they were before each constant became a number -----------
# flat3 and flat3_spherical built their constant components as jets, and
# berger_s3 took sin ps, cos ps and sin th once for each form that reads them;
# the catalog's closures are held to these bit for bit.

def flat3():
    return geo.MetricField(
        con._FLAT3_CHART, lambda c: [[(1.0 if a == b else 0.0) + 0.0 * c[0] for b in range(3)]
                                     for a in range(3)], "flat3")


def flat3_spherical():
    def fn(c):
        r, th, _ = c
        s = jets.sin(th)
        return [[1.0 + 0 * r, 0, 0], [0, r * r, 0], [0, 0, r * r * s * s]]
    return geo.MetricField(con._SPHERICAL_CHART, fn, "flat3_spherical")


def berger_s3_each_form(mu):
    def s1(c):
        th, ps, _ = c
        return [0.5 * jets.cos(ps), 0.0, 0.5 * jets.sin(ps) * jets.sin(th)]

    def s2(c):
        th, ps, _ = c
        return [0.5 * jets.sin(ps), 0.0, -0.5 * jets.cos(ps) * jets.sin(th)]

    def fn(c):
        f1, f2, f3 = s1(c), s2(c), [0.0, 0.5, 0.5 * jets.cos(c[0])]
        return [[f1[a] * f1[b] + f2[a] * f2[b] + (mu * mu) * f3[a] * f3[b]
                 for b in range(3)] for a in range(3)]
    return geo.MetricField(con._EULER_CHART, fn, f"berger_s3({mu})")


def theta_dtau_plus(A_fn):
    def fn(coords):
        one = 1.0 + 0.0 * coords[0]
        if A_fn is None:
            zero = 0.0 * coords[0]
            return [one, zero, zero, zero]
        Ab = A_fn(coords[1:])
        return [one, Ab[0], Ab[1], Ab[2]]
    return fn


def type2_theta(f):
    def theta_fn(coords):
        zero = 0.0 * coords[0]
        return [jets.sqrt(f.fn(coords)), zero, zero, zero]
    return theta_fn


def type4_theta(alpha):
    def theta_fn(coords):
        one = 1.0 + 0.0 * coords[0]
        if alpha is None:
            zero = 0.0 * coords[0]
            return [one, zero, zero, zero]
        ab = alpha.fn(coords[1:])
        return [one, -1.0 * ab[0], -1.0 * ab[1], -1.0 * ab[2]]
    return theta_fn


def zero_lee_form(chart):
    """cli's Lee form of a scene without one."""
    return geo.OneFormField(chart, lambda c: [0.0 * c[0]] * 3, "zero")


def constant_scalar(chart, c):
    """cli's constant c of the generalized Beltrami check."""
    return geo.ScalarField(chart, lambda _c: c + 0.0 * _c[0])


def fibred(fm, h, theta_fn):
    """The fibration fm's total metric with the base metric h and the theta
    closure theta_fn in place of its own, and theta_fn as a field."""
    g = con.FibredMetric(fm.total_chart, h, fm.g.lam_inv_sq_fn, theta_fn, fm.g.name,
                         fm.g.positivity_name)
    return g, geo.OneFormField(fm.total_chart, theta_fn, fm.theta.name)


def stacked_arrays(g, point):
    """A FibredMetric's arrays as the package assembled them before: A^-1, A
    and each factor of theta (x) theta stacked into component jets of their
    own, h's jets seeded at the base point on its own chart and lifted to the
    total chart with zero fibre derivatives, base block added into grad and
    hess one at a time, and laid out by ``np.moveaxis``."""
    at, coords, (A, Ainv, th) = geo._jets_at(g.chart, g._parts, point)
    th = [coords[0].coerce(t) for t in th]
    hj = geo.metric_jets(g.h, at[:, 1:] if geo._is_batch(at) else at[1:])
    h3 = jets.stack([j for row in hj for j in row], (3, 3))
    lifted = np.zeros((4 + 16,) + h3._d.shape[1:])           # D rows of the 4-chart
    lifted[1:4] = h3._d[:3]
    lifted[4:].reshape((4, 4) + h3._d.shape[1:])[1:, 1:] = h3._d[3:].reshape(
        (3, 3) + h3._d.shape[1:])
    G = (jets.stack([coords[0].coerce(Ainv)], (1, 1)) * jets.stack(th, (4, 1))
         * jets.stack(th, (1, 4)))
    Ah = jets.stack([coords[0].coerce(A)], (1, 1)) * jets.Jet(h3.value, lifted)
    gv, dg, ddg = G.value, G.grad, G.hess
    gv[1:, 1:] += Ah.value
    dg[:, 1:, 1:] += Ah.grad
    ddg[:, :, 1:, 1:] += Ah.hess
    out = (gv, np.ascontiguousarray(np.moveaxis(dg, 0, 2)),
           np.ascontiguousarray(np.moveaxis(ddg, (0, 1), (2, 3))))
    if not geo._is_batch(point):
        return out
    return tuple(x[None] if len(point) == 1 else np.moveaxis(x, -1, 0) for x in out)


# -- a sweep step, resolved whole ----------------------------------------------

_resolve_scene = cli.ResolvedScene.__init__


def resolve_step_in_full(resolved, scene, tol=None, held=None):
    """In place of ``cli.ResolvedScene.__init__``: the step's scene resolved
    whole, ``held=None``, so that the step's ``_evaluate`` is the one every
    sweep step made before steps shared the held resolution's parts.  Only
    the tolerance, read once per command, is the sweep's."""
    _resolve_scene(resolved, scene, tol)
