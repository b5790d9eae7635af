"""Weyl-geometry residuals on 3-charts.

A Weyl structure is a metric h together with a one-form alpha; the associated
torsion-free connection D satisfies D h = -2 alpha (x) h.  Every operation
here returns a pointwise residual norm that vanishes exactly when the named
equation holds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry as geo
from .errors import DimensionError

__all__ = [
    "WeylStructure3",
    "weyl_connection_coeffs",
    "weyl_covariant_metric_residual",
    "einstein_weyl_residual",
    "beltrami_residual",
    "generalized_beltrami_residual",
    "monopole_residual",
    "closure_residual",
    "two_form_norm",
    "one_form_norm",
    "star_one_form",
    "star_two_form",
    "locate_residual_minimum",
]


@dataclass
class WeylStructure3:
    h: geo.MetricField
    alpha: geo.OneFormField

    def __post_init__(self):
        if self.h.chart.dim != 3:
            raise DimensionError("Weyl structures live on 3-charts")


def weyl_connection_coeffs(w: WeylStructure3, point):
    """(Gamma, dGamma) of D as arrays: Gamma[a,b,c] = Gamma^a_bc and
    dGamma[a,b,c,d] = d_d Gamma^a_bc.

    D = Levi-Civita + C with C^a_bc = delta^a_b alpha_c + delta^a_c alpha_b
    - h_bc alpha^a, which is linear in alpha and so differentiates in closed form.
    """
    return _weyl_connection(geo.metric_arrays(w.h.jets(point), point), w.alpha.jets(point))


def _weyl_connection(h_arrays, aj):
    """(Gamma, dGamma) of D from the metric arrays (h, dh, ddh) and alpha's jets."""
    hv, dh, ddh = h_arrays
    hinv, dhinv = geo.jet_matrix_inverse(hv, dh)
    G, dG = geo.christoffel_jets(hinv, dhinv, dh, ddh)
    av = np.array([a.value for a in aj])
    da = np.array([a.grad for a in aj])                   # da[b,d] = d_d alpha_b
    a_up = hinv @ av
    da_up = np.einsum("abd,b->ad", dhinv, av) + hinv @ da
    delta = np.eye(3)
    C = (np.einsum("ab,c->abc", delta, av) + np.einsum("ac,b->abc", delta, av)
         - np.einsum("bc,a->abc", hv, a_up))
    dC = (np.einsum("ab,cd->abcd", delta, da) + np.einsum("ac,bd->abcd", delta, da)
          - np.einsum("bcd,a->abcd", dh, a_up) - np.einsum("bc,ad->abcd", hv, da_up))
    return G + C, dG + dC


def weyl_covariant_metric_residual(w: WeylStructure3, point):
    """Norm of D h + 2 alpha (x) h, the defining property of the connection."""
    hv, dh, ddh = geo.metric_arrays(w.h.jets(point), point)    # dh[a,b,c] = d_c h_ab
    aj = w.alpha.jets(point)
    G, _ = _weyl_connection((hv, dh, ddh), aj)
    av = np.array([a.value for a in aj])
    Dh = (np.einsum("abc->cab", dh)
          - np.einsum("eca,eb->cab", G, hv)
          - np.einsum("ecb,ae->cab", G, hv))
    target = -2.0 * np.einsum("c,ab->cab", av, hv)
    return geo.tensor_norm(Dh - target, hv)


def einstein_weyl_residual(w: WeylStructure3, point):
    """Norm of the trace-free symmetrized Ricci tensor of D at the point."""
    return _einstein_weyl(w.h.values(point), weyl_connection_coeffs(w, point))


def _einstein_weyl(hv, connection):
    """The Einstein-Weyl residual from h and D's (Gamma, dGamma)."""
    ric = np.einsum("abad->bd", geo.riemann_from_gamma(*connection))
    sym = 0.5 * (ric + ric.T)
    tracefree = sym - (np.einsum("ab,ab->", np.linalg.inv(hv), sym) / 3.0) * hv
    return geo.tensor_norm(tracefree, hv)


# ---------------------------------------------------------------------------
# Hodge helpers on a 3-chart (coordinate components)
# ---------------------------------------------------------------------------

def star_one_form(av, hv, orientation=1):
    return geo.hodge_star(av, hv, 1, orientation)


def star_two_form(Fv, hv, orientation=1):
    return geo.hodge_star(Fv, hv, 2, orientation)


def one_form_norm(av, hv):
    return float(np.sqrt(max(0.0, np.einsum("a,b,ab->", av, av, np.linalg.inv(hv)))))


def two_form_norm(Fv, hv):
    """Frobenius norm in an orthonormalized frame, i < j components only."""
    E = geo.orthonormal_frame(hv)
    Ff = geo.to_frame(np.asarray(Fv, dtype=float), E)
    n = hv.shape[0]
    return float(np.sqrt(sum(Ff[i, j] ** 2 for i in range(n) for j in range(i + 1, n))))


def three_form_norm(Tv, hv):
    E = geo.orthonormal_frame(hv)
    Tf = geo.to_frame(np.asarray(Tv, dtype=float), E)
    return float(abs(Tf[0, 1, 2]))


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def beltrami_residual(w: WeylStructure3, sign, point):
    """|| d alpha - sign * (*alpha) || in the orthonormalized 2-form norm."""
    if sign not in (1, -1, 1.0, -1.0):
        raise ValueError("sign must be +1 or -1")
    aj = w.alpha.jets(point)
    da = geo.form_values(geo.ext_d(aj, 3), 3, 2)
    av = np.array([a.value for a in aj])
    hv = w.h.values(point)
    ori = w.h.chart.orientation
    return two_form_norm(da - sign * star_one_form(av, hv, ori), hv)


def generalized_beltrami_residual(w: WeylStructure3, c: geo.ScalarField, point):
    """|| d alpha - c * (*alpha) + *dc || at the point."""
    aj = w.alpha.jets(point)
    da = geo.form_values(geo.ext_d(aj, 3), 3, 2)
    av = np.array([a.value for a in aj])
    hv = w.h.values(point)
    ori = w.h.chart.orientation
    cj = c.jet(point)
    dc = cj.grad.copy()
    resid = da - cj.value * star_one_form(av, hv, ori) + star_one_form(dc, hv, ori)
    return two_form_norm(resid, hv)


def monopole_residual(u: geo.ScalarField, w: WeylStructure3, F: geo.TwoFormField, point):
    """|| (du - u alpha) - *F || in the h one-form norm."""
    uj = u.jet(point)
    av = np.array([a.value for a in w.alpha.jets(point)])
    hv = w.h.values(point)
    ori = w.h.chart.orientation
    Fv = F.values(point)
    lhs = uj.grad - uj.value * av
    return one_form_norm(lhs - star_two_form(Fv, hv, ori), hv)


def closure_residual(F: geo.TwoFormField, point, h: geo.MetricField | None = None):
    """|| dF ||; zero is required for F to be a curvature form."""
    dF = geo.form_values(geo.ext_d(F.jets(point), 3), 3, 3)
    if h is None:
        return float(abs(dF[0, 1, 2]))
    return three_form_norm(dF, h.values(point))


# ---------------------------------------------------------------------------
# one-parameter searches
# ---------------------------------------------------------------------------

def locate_residual_minimum(f, lo, hi, tol=1e-8, max_iter=200):
    """Golden-section refinement of a bracketed interior minimum of ``f``.

    Returns (x_min, f(x_min)).  Used to pin zeros of residual curves along a
    one-parameter family; the driver supplies a bracket from a coarse sweep.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    a, b = float(lo), float(hi)
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    it = 0
    while abs(b - a) > tol and it < max_iter:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
        it += 1
    x = 0.5 * (a + b)
    return x, f(x)
