"""Independent oracles the tests hold the package to: the finite-difference
derivatives of a scalar field, the integrability form's cross-check against
the connection form, and the einsum formulas of the curvature chain."""

import numpy as np

from sdharm import geometry as geo, weyl3
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



# -- the curvature chain and its neighbours by einsum ---------------------------
# geometry and weyl3 contract these with matrix products; here each is the
# einsum of its formula, as the package computed it before, to hold the
# products to.

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
    R_up = riemann_from_gamma(mp.G, mp.dG)
    R_low = np.einsum("...ae,...ebcd->...abcd", mp.g, R_up)
    ric = np.einsum("...abad->...bd", R_up)
    scal = geo._float(np.einsum("...bd,...bd->...", mp.ginv, ric))
    return R_up, R_low, ric, scal


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
    gv, _, _, R_low, _, _ = geo._curvature(g, point)
    gram = (X @ gv @ X) * (Y @ gv @ Y) - (X @ gv @ Y) ** 2
    num = np.einsum("abcd,a,b,c,d->", R_low, X, Y, X, Y)
    return float(num / gram)


def monopole_residual(u, w, F, point):
    base = weyl3.HeldBase(w.h, point)
    uv, du, _ = u.arrays(point)
    av, _ = base.arrays(w.alpha)
    lhs = du - np.asarray(uv)[..., None] * av
    diff = lhs - base.star(F.values(point), 2, w.h.chart.orientation)
    norm2 = np.einsum("...a,...b,...ab->...", diff, diff, base.mp.ginv)
    return geo._float(np.sqrt(np.maximum(0.0, norm2)))
