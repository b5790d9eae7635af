"""Weyl-geometry residuals on 3-charts.

A Weyl structure is a metric h together with a one-form alpha; the associated
torsion-free connection D satisfies D h = -2 alpha (x) h.  Every operation
here returns a pointwise residual norm that vanishes exactly when the named
equation holds: a float at a point, or one per row of an ``(N, 3)`` array of
points, every array then carrying the point axis first (as ``geo.metric_point``).
"""

from __future__ import annotations

from functools import cached_property

import numpy as np

from . import geometry as geo
from .errors import DimensionError

__all__ = [
    "HeldBase",
    "weyl_connection_coeffs",
    "weyl_covariant_metric_residual",
    "einstein_weyl_residual",
    "beltrami_residual",
    "generalized_beltrami_residual",
    "monopole_residual",
    "closure_residual",
    "locate_residual_minimum",
]


class HeldBase:
    """The metric h at a point, or at each row of an ``(N, 3)`` array of
    points, held by a caller that evaluates several residuals there.  Each part
    is evaluated on first use: ``mp`` (``geo.metric_point``: g, g^-1 and the
    Levi-Civita connection), ``curvature`` (``geo.curvature_from_gamma``: its
    Riemann tensor R_abcd from ddg and Gamma, Ricci tensor and scalar),
    ``riemann_norm`` (the frame norm of R_abcd, the base checks' scale),
    ``frame`` (g's ``geo.orthonormal_frame``), ``vol`` (sqrt det g), and
    ``arrays(field)``, a one-form's arrays at the points, held while the base
    is; each field seeds its own coordinate jets at ``point``.  A Weyl
    structure is the held h with a one-form alpha: each residual below takes
    the base first and its forms after it."""

    def __init__(self, h, point):
        if h.chart.dim != 3:
            raise DimensionError("Weyl structures live on 3-charts")
        self.h, self.point, self._arrays = h, point, {}

    @cached_property
    def mp(self):
        return geo.metric_point(self.h, self.point)

    @cached_property
    def curvature(self):
        return geo.curvature_from_gamma(self.mp, self.point)

    @cached_property
    def riemann_norm(self):
        """Frame norm of the Riemann tensor, the scale residuals are normalized by."""
        return geo.frame_norm(self.curvature[0], self.frame)

    @cached_property
    def frame(self):
        return geo.orthonormal_frame(self.mp.g)

    @cached_property
    def vol(self):
        """sqrt det g = 1 / det E for the frame E, which has E^T g E = 1."""
        return 1.0 / np.linalg.det(self.frame)

    def arrays(self, field):
        """The one-form field's ``arrays`` at the points (alpha and dalpha[..., b,
        d] = d_d alpha_b), evaluated once per field; a ``geo.ScaledOneForm``'s
        are its unit's, held, times its factor, so a sweep of the factor
        evaluates the unit once."""
        unit = getattr(field, "unit", field)
        out = self._arrays.get(unit)
        if out is None:
            out = self._arrays[unit] = unit.arrays(self.point)
        return out if unit is field else tuple(field.factor * a for a in out)

    def star(self, form, k, orientation):
        """The Hodge star of a k-form with h's held inverse and volume."""
        return geo.hodge_star(form, self.mp.g, k, orientation, ginv=self.mp.ginv, vol=self.vol)


def weyl_connection_coeffs(base: HeldBase, alpha):
    """Gamma[a,b,c] = Gamma^a_bc of D, with a batch's point axis first:
    D = Levi-Civita + C with C^a_bc = delta^a_b alpha_c + delta^a_c alpha_b
    - h_bc alpha^a."""
    h, (av, _) = base.mp, base.arrays(alpha)
    a_up = (h.ginv @ av[..., None])[..., 0]
    # outer products by broadcasting, an index per axis: [..., a, b, c]
    delta = np.eye(3)
    return h.G + (delta[:, :, None] * av[..., None, None, :]
                  + delta[:, None, :] * av[..., None, :, None]
                  - h.g[..., None, :, :] * a_up[..., :, None, None])


def weyl_covariant_metric_residual(base: HeldBase, alpha):
    """Norm of D h + 2 alpha (x) h, the defining property of the connection."""
    h = base.mp                                            # h.dg[a,b,c] = d_c h_ab
    G = weyl_connection_coeffs(base, alpha)
    Dh = (np.einsum("...abc->...cab", h.dg)
          - np.einsum("...eca,...eb->...cab", G, h.g)
          - np.einsum("...ecb,...ae->...cab", G, h.g))
    target = -2.0 * np.einsum("...c,...ab->...cab", base.arrays(alpha)[0], h.g)
    return geo.tensor_norm(Dh - target, h.g)


def einstein_weyl_residual(base: HeldBase, alpha):
    """Norm of the trace-free symmetrized Ricci tensor of D at the point.  In
    dimension 3 it is |[Ric^h]_0 - [(nabla alpha)_sym - alpha (x) alpha]_0|
    (Jones & Tod, "Minitwistor spaces and Einstein-Weyl spaces", Class.
    Quantum Grav. 2 (1985) 565), with (nabla_a alpha)_b = d_a alpha_b
    - Gamma^c_ab alpha_c: from the base's held Ric^h and Levi-Civita Gamma,
    and alpha's first jets."""
    h, (av, da) = base.mp, base.arrays(alpha)
    # da[..., b, a] = d_a alpha_b, the transpose of nabla's first term: symmetrized below
    nabla = da - np.einsum("...cab,...c->...ab", h.G, av)
    T = base.curvature[1] - (0.5 * (nabla + nabla.swapaxes(-1, -2))
                             - av[..., :, None] * av[..., None, :])
    trace = np.einsum("...ab,...ab->...", h.ginv, T) / 3.0
    return geo.frame_norm(T - trace[..., None, None] * h.g, base.frame)


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _two_form_norm(F, frame):
    """Frobenius norm in an orthonormal frame, i < j components only."""
    Ff = geo.to_frame(F, frame)
    upper = Ff[(..., *np.triu_indices(Ff.shape[-1], 1))]
    return geo._float(np.sqrt(np.add.reduce(upper ** 2, axis=-1)))


def beltrami_residual(base: HeldBase, alpha, sign):
    """|| d alpha - sign * (*alpha) || in the orthonormalized 2-form norm."""
    if sign not in (1, -1, 1.0, -1.0):
        raise ValueError("sign must be +1 or -1")
    av, da = base.arrays(alpha)
    star = base.star(av, 1, base.h.chart.orientation)
    return _two_form_norm(da.swapaxes(-1, -2) - da - sign * star, base.frame)


def generalized_beltrami_residual(base: HeldBase, alpha, c: geo.ScalarField):
    """|| d alpha - c * (*alpha) + *dc || at the point."""
    av, da = base.arrays(alpha)
    ori = base.h.chart.orientation
    cv, dc, _ = c.arrays(base.point)
    resid = (da.swapaxes(-1, -2) - da - geo._times(cv, base.star(av, 1, ori))
             + base.star(dc, 1, ori))
    return _two_form_norm(resid, base.frame)


def monopole_residual(base: HeldBase, u: geo.ScalarField, alpha, F: geo.TwoFormField):
    """|| (du - u alpha) - *F || in the h one-form norm."""
    uv, du, _ = u.arrays(base.point)
    av, _ = base.arrays(alpha)
    lhs = du - np.asarray(uv)[..., None] * av
    diff = lhs - base.star(F.values(base.point), 2, base.h.chart.orientation)
    norm2 = (diff[..., None, :] @ base.mp.ginv @ diff[..., :, None])[..., 0, 0]
    return geo._float(np.sqrt(np.maximum(0.0, norm2)))


def closure_residual(F: geo.TwoFormField, point, h: geo.MetricField | None = None):
    """|| dF ||; zero is required for F to be a curvature form."""
    dF = geo.exterior_derivative(F, point)
    if h is not None:
        dF = geo.to_frame(dF, HeldBase(h, point).frame)
    return geo._float(np.abs(dF[..., 0, 1, 2]))


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
