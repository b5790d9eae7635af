"""Weyl-geometry residuals on 3-charts.

A Weyl structure is a metric h together with a one-form alpha; the associated
torsion-free connection D satisfies D h = -2 alpha (x) h.  Every operation
here returns a pointwise residual norm that vanishes exactly when the named
equation holds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import geometry as geo
from .errors import DimensionError

__all__ = [
    "WeylStructure3",
    "HeldBase",
    "hold",
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


class HeldBase(NamedTuple):
    """The metric h at a point (or an array of points), held by a caller that
    evaluates several residuals there.  ``weyl_connection_coeffs``, the
    Einstein-Weyl and the Beltrami residuals take one as ``base``, or evaluate
    h at the point themselves."""
    mp: geo.MetricPoint          # g, g^-1 and the Levi-Civita connection
    frame: np.ndarray            # geo.orthonormal_frame of g


def hold(h, point):
    """The ``HeldBase`` of the metric field h at the point, or at each row of
    an ``(N, 3)`` array of points."""
    mp = geo.metric_point(h, point)
    return HeldBase(mp, geo.orthonormal_frame(mp.g))


def weyl_connection_coeffs(w: WeylStructure3, point, base: HeldBase | None = None):
    """(Gamma, dGamma) of D as arrays: Gamma[a,b,c] = Gamma^a_bc and
    dGamma[a,b,c,d] = d_d Gamma^a_bc.

    D = Levi-Civita + C with C^a_bc = delta^a_b alpha_c + delta^a_c alpha_b
    - h_bc alpha^a, which is linear in alpha and so differentiates in closed form.
    """
    mp = geo.metric_point(w.h, point) if base is None else base.mp
    return _weyl_connection(mp, w.alpha.jets(point))


def _weyl_connection(h, aj):
    """(Gamma, dGamma) of D from the base ``geo.MetricPoint`` h, which holds
    the Levi-Civita connection, and alpha's jets."""
    av = np.array([a.value for a in aj])
    da = np.array([a.grad for a in aj])                   # da[b,d] = d_d alpha_b
    a_up = h.ginv @ av
    da_up = np.einsum("abd,b->ad", h.dginv, av) + h.ginv @ da
    delta = np.eye(3)
    C = (np.einsum("ab,c->abc", delta, av) + np.einsum("ac,b->abc", delta, av)
         - np.einsum("bc,a->abc", h.g, a_up))
    dC = (np.einsum("ab,cd->abcd", delta, da) + np.einsum("ac,bd->abcd", delta, da)
          - np.einsum("bcd,a->abcd", h.dg, a_up) - np.einsum("bc,ad->abcd", h.g, da_up))
    return h.G + C, h.dG + dC


def weyl_covariant_metric_residual(w: WeylStructure3, point):
    """Norm of D h + 2 alpha (x) h, the defining property of the connection."""
    h = geo.metric_point(w.h, point)                       # h.dg[a,b,c] = d_c h_ab
    aj = w.alpha.jets(point)
    G, _ = _weyl_connection(h, aj)
    av = np.array([a.value for a in aj])
    Dh = (np.einsum("abc->cab", h.dg)
          - np.einsum("eca,eb->cab", G, h.g)
          - np.einsum("ecb,ae->cab", G, h.g))
    target = -2.0 * np.einsum("c,ab->cab", av, h.g)
    return geo.tensor_norm(Dh - target, h.g)


def einstein_weyl_residual(w: WeylStructure3, point, base: HeldBase | None = None):
    """Norm of the trace-free symmetrized Ricci tensor of D at the point."""
    base = hold(w.h, point) if base is None else base
    ric = np.einsum("abad->bd", geo.riemann_from_gamma(*weyl_connection_coeffs(w, point, base)))
    sym = 0.5 * (ric + ric.T)
    tracefree = sym - (np.einsum("ab,ab->", base.mp.ginv, sym) / 3.0) * base.mp.g
    return geo.frame_norm(tracefree, base.frame)


# ---------------------------------------------------------------------------
# Hodge helpers on a 3-chart (coordinate components)
# ---------------------------------------------------------------------------

def star_one_form(av, hv, orientation=1):
    return geo.hodge_star(av, hv, 1, orientation)


def star_two_form(Fv, hv, orientation=1):
    return geo.hodge_star(Fv, hv, 2, orientation)


def one_form_norm(av, hv):
    return float(np.sqrt(max(0.0, np.einsum("a,b,ab->", av, av, np.linalg.inv(hv)))))


def two_form_norm(Fv, hv, *, frame=None):
    """Frobenius norm in an orthonormalized frame, i < j components only;
    ``frame`` is h's ``geo.orthonormal_frame`` when the caller holds it."""
    E = geo.orthonormal_frame(hv) if frame is None else frame
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

def _metric_values(h, point, base):
    """h's values at the point and, if held, their orthonormal frame (else
    None, and the norm builds it)."""
    return (h.values(point), None) if base is None else (base.mp.g, base.frame)


def beltrami_residual(w: WeylStructure3, sign, point, base: HeldBase | None = None):
    """|| d alpha - sign * (*alpha) || in the orthonormalized 2-form norm."""
    if sign not in (1, -1, 1.0, -1.0):
        raise ValueError("sign must be +1 or -1")
    aj = w.alpha.jets(point)
    da = geo.form_values(geo.ext_d(aj, 3), 3, 2)
    av = np.array([a.value for a in aj])
    hv, frame = _metric_values(w.h, point, base)
    ori = w.h.chart.orientation
    return two_form_norm(da - sign * star_one_form(av, hv, ori), hv, frame=frame)


def generalized_beltrami_residual(w: WeylStructure3, c: geo.ScalarField, point,
                                  base: HeldBase | None = None):
    """|| d alpha - c * (*alpha) + *dc || at the point."""
    aj = w.alpha.jets(point)
    da = geo.form_values(geo.ext_d(aj, 3), 3, 2)
    av = np.array([a.value for a in aj])
    hv, frame = _metric_values(w.h, point, base)
    ori = w.h.chart.orientation
    cj = c.jet(point)
    dc = cj.grad.copy()
    resid = da - cj.value * star_one_form(av, hv, ori) + star_one_form(dc, hv, ori)
    return two_form_norm(resid, hv, frame=frame)


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
