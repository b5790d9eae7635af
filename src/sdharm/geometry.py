"""Single-chart curvature pipeline.

Metric components are evaluated once in order-2 jet arithmetic and read into
plain arrays g, dg, ddg (``metric_point``).  Everything else is closed-form
array algebra: d(g^-1) = -g^-1 dg g^-1, the Christoffel symbols and their
derivatives from g^-1, dg and ddg, and the Riemann tensor from those, so no
finite differencing happens anywhere.  Pointwise norms are taken in an
orthonormalized frame (Cholesky of the metric), which makes every reported
residual a chart-independent scalar.

The curvature path (``metric_point`` through ``curvature_report`` and
``sd_asd_split``) also takes an ``(N, d)`` array of points.  The metric jets
then carry the batch axis last (see ``jets``); ``metric_point`` moves it to
the front once, and every array after it has a leading point axis, which the
``...``-prefixed einsums and numpy's stacked ``linalg`` carry through.  Scalars
such as the norms become ``(N,)`` arrays.  A check that fails at any point of
a batch raises for the whole batch.

The fields hand out arrays with a batch's point axis first (``arrays``,
``values``, ``exterior_derivative``), so only this module reads the jets'
layout.  One rule holds at that jet-to-array boundary (``_at``, ``_lead``): a
one-row ``(1, d)`` array is evaluated in the scalar jets of its row, a tuple
of floats (a batch of one costs a third more); its arrays gain their point
axis there, and its errors name that tuple, as an evaluation at the point
itself does.
"""

from __future__ import annotations

import copy
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from . import jets
from .errors import (
    DegenerateMetricError,
    DimensionError,
    DomainError,
    SingularEvaluationError,
)

__all__ = [
    "Chart",
    "ScalarField",
    "OneFormField",
    "TwoFormField",
    "MetricField",
    "metric_jets",
    "metric_point",
    "jet_matrix_inverse",
    "christoffel_jets",
    "curvature_from_gamma",
    "laplacian",
    "laplacian_from_gamma",
    "christoffel",
    "riemann",
    "weyl",
    "hodge_star",
    "sd_asd_split",
    "split_two_form",
    "exterior_derivative",
    "ext_d",
    "conformal_rescale",
    "sectional_curvature",
    "curvature_report",
    "CurvatureReport",
    "orthonormal_frame",
    "levi_civita_symbol",
    "PAIRS4",
    "star_matrix_flat4",
    "two_form_to_six",
    "tensor_norm",
    "frame_norm",
]


# ---------------------------------------------------------------------------
# charts and fields
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Chart:
    """Open axis-aligned box with named, ordered coordinates.

    The coordinate order fixes the orientation: the volume form of
    dx^0 ^ ... ^ dx^{n-1} has sign ``orientation`` (+1 unless flipped).
    """

    names: tuple
    lo: tuple
    hi: tuple
    orientation: int = 1

    def __post_init__(self):
        if self.dim not in (2, 3, 4):
            raise DimensionError(f"charts support dimensions 2-4, got {self.dim}")
        for a, (l, h) in enumerate(zip(self.lo, self.hi)):
            if not l < h:
                raise DomainError(f"chart axis {self.names[a]} has empty range [{l}, {h}]")
        if self.orientation not in (1, -1):
            raise ValueError("orientation must be +1 or -1")

    @property
    def dim(self):
        return len(self.names)

    def contains(self, point):
        return all(l < x < h for x, l, h in zip(point, self.lo, self.hi))

    def require_inside(self, point):
        """Raise a DomainError unless the point, or every row of an ``(N, d)``
        array of points, lies inside the chart."""
        if _is_batch(point):
            if point.shape[-1] != self.dim or not np.all((np.asarray(self.lo) < point)
                                                         & (point < np.asarray(self.hi))):
                for p in point:              # the first bad row names itself
                    self.require_inside(p)
            return
        if len(point) != self.dim:
            raise DomainError(f"point {tuple(point)} has wrong dimension for chart {self.names}")
        if not self.contains(point):
            raise DomainError(f"point {tuple(point)} outside chart domain "
                              f"{list(zip(self.names, self.lo, self.hi))}")

    def flipped(self):
        return Chart(self.names, self.lo, self.hi, -self.orientation)

    def point_array(self, points):
        """The points as an ``(N, d)`` array for one batch evaluation; the first
        point of another dimension raises ``require_inside``'s DomainError."""
        for p in points:
            if len(p) != self.dim:
                self.require_inside(p)
        return np.array(points, dtype=float)


def box(names, **ranges):
    lo = tuple(ranges[n][0] for n in names)
    hi = tuple(ranges[n][1] for n in names)
    return Chart(tuple(names), lo, hi)


def _eval_at(fn, coords, point):
    """Call a field closure, attaching the evaluation point to any singular
    evaluation raised from inside jet arithmetic."""
    try:
        return fn(coords)
    except SingularEvaluationError as exc:
        if exc.point is None:
            raise SingularEvaluationError(exc.args[0], point=point) from None
        raise


def _jets_at(chart, fn, point):
    """(at, coords, fn(coords)): the closure ``fn`` in order-2 jets seeded at
    ``point``, which must lie inside ``chart``.  ``at`` is ``_at(point)``: the
    point the jets are seeded at and every error names."""
    at = _at(point)
    chart.require_inside(at)
    coords = jets.seed_all(at)
    return at, coords, _eval_at(fn, coords, at)


class ScalarField:
    """Closed-form scalar on a chart: ``fn`` maps coordinate jets (or floats)
    to one jet (or float)."""

    def __init__(self, chart, fn, name=""):
        self.chart = chart
        self.fn = fn
        self.name = name

    def jet(self, point):
        at, coords, out = _jets_at(self.chart, self.fn, point)
        out = coords[0].coerce(out)
        if not out.is_finite():
            raise SingularEvaluationError(f"scalar field {self.name or self.fn} is not finite",
                                          point=at)
        return out

    def arrays(self, point):
        """(u, du, ddu) at the point from its order-2 jet, a batch's point axis
        first."""
        j = self.jet(point)
        return tuple(_lead(x, point) for x in (j.value, j.grad, j.hess))

    def value(self, point):
        out = _eval_at(self.fn, [float(x) for x in point], point)
        return out.value if isinstance(out, jets.Jet) else float(out)


class OneFormField:
    """Closed-form one-form; ``fn`` returns a list of d component jets."""

    def __init__(self, chart, fn, name=""):
        self.chart = chart
        self.fn = fn
        self.name = name

    def jets(self, point):
        _, coords, comps = _jets_at(self.chart, self.fn, point)
        return [coords[0].coerce(c) for c in comps]

    def arrays(self, point):
        """(alpha, dalpha) at the point, dalpha[..., b, a] = d_a alpha_b, a batch's
        point axis first."""
        return tuple(_lead(x, point) for x in jets.arrays(self.jets(point), order=1))

    def values(self, point):
        return self.arrays(point)[0]


class TwoFormField:
    """Closed-form two-form; ``fn`` returns a full d x d antisymmetric nested
    list of component jets."""

    def __init__(self, chart, fn, name=""):
        self.chart = chart
        self.fn = fn
        self.name = name

    def jets(self, point):
        at, coords, comps = _jets_at(self.chart, self.fn, point)
        d = np.shape(point)[-1]
        out = [[coords[0].coerce(comps[a][b]) for b in range(d)] for a in range(d)]
        for a in range(d):
            for b in range(d):
                if jets.anywhere(abs(out[a][b].value + out[b][a].value)
                                 > 1e-12 * (1 + abs(out[a][b].value))):
                    raise SingularEvaluationError(
                        f"two-form {self.name} not antisymmetric in components ({a},{b})",
                        point=at)
        return out

    def values(self, point):
        return _lead(jet_values(self.jets(point)), point)


class MetricField:
    """Symmetric metric tensor; ``fn`` returns the d x d nested component list."""

    def __init__(self, chart, fn, name=""):
        self.chart = chart
        self.fn = fn
        self.name = name

    def jets(self, point):
        at = _at(point)
        self.chart.require_inside(at)
        return metric_jets(self, at)

    def arrays(self, point):
        """(g, dg, ddg) at the point, from its order-2 jets: dg[a,b,c] = d_c g_ab,
        ddg[a,b,c,d] = d_c d_d g_ab, a batch's point axis first."""
        return _jet_arrays(self.jets(point), point)

    def flipped(self):
        """The same metric on the chart of the opposite orientation."""
        out = copy.copy(self)
        out.chart = self.chart.flipped()
        return out

    def values(self, point):
        d = self.chart.dim
        comps = _eval_at(self.fn, [float(x) for x in point], point)
        out = np.empty((d, d))
        for a in range(d):
            for b in range(d):
                c = comps[a][b]
                out[a, b] = c.value if isinstance(c, jets.Jet) else float(c)
        return out


def metric_jets(g, point):
    """Evaluate metric components as order-2 jets (batch jets for an ``(N, d)``
    array of points); enforce symmetry."""
    d = g.chart.dim
    coords = jets.seed_all(point)
    comps = _eval_at(g.fn, coords, point)
    out = [[coords[0].coerce(comps[a][b]) for b in range(d)] for a in range(d)]
    _require_symmetric(jet_values(out), g.name, point)
    return out


def _require_symmetric(v, name, point):
    """Raise unless the metric components ``v`` (a batch's point axis last)
    are symmetric, naming the first asymmetric pair (a, b), a < b."""
    with np.errstate(invalid="ignore"):         # inf - inf is not a finding here
        asym = np.abs(v - v.swapaxes(0, 1)) > 1e-12 * (1.0 + np.abs(v))
    asym = np.triu(asym.reshape(asym.shape[:2] + (-1,)).any(-1), 1)
    if asym.any():
        a, b = np.argwhere(asym)[0]
        raise SingularEvaluationError(
            f"metric {name} not symmetric in components ({a},{b})", point=point)


# ---------------------------------------------------------------------------
# metric arrays and curvature
# ---------------------------------------------------------------------------

def jet_values(mat):
    return np.array([[m.value for m in row] for row in mat])


def _jet_arrays(mat, point):
    """(values, grads, hessians) of a matrix of jets at the point, with a
    batch's point axis moved from last to first."""
    return tuple(_lead(x, point) for x in jets.arrays([m for row in mat for m in row],
                                                      (len(mat), len(mat))))


def _is_batch(point):
    """Whether ``point`` is an ``(N, d)`` array of points."""
    return isinstance(point, np.ndarray) and point.ndim == 2


def _at(point):
    """The one-row rule: a ``(1, d)`` array is evaluated at its row, as a tuple
    of floats, in scalar jets; every other point as it is."""
    return tuple(point[0].tolist()) if _is_batch(point) and len(point) == 1 else point


def _lead(x, point):
    """A jet-derived array at ``point`` with its point axis first: a batch
    jet's trailing axis moved to the front, a new axis for a one-row array
    (scalar jets, ``_at``), none at one point."""
    if not _is_batch(point):
        return x
    return np.asarray(x)[None] if len(point) == 1 else np.moveaxis(x, -1, 0)


def _float(x):
    """A float at one point; the ``(N,)`` array of a batch."""
    return float(x) if np.ndim(x) == 0 else x


MetricPoint = namedtuple("MetricPoint", "g dg ddg ginv dginv G dG")


def metric_point(g, point):
    """The metric field g at the point with its Levi-Civita connection, from one
    evaluation of its arrays (``g.arrays``: g, dg, ddg), then (g^-1, dginv)
    and (Gamma, dGamma).  At an ``(N, d)`` array of points each array has a
    leading point axis.  Raises on a non-finite metric, or a singular one:
    |det g| below 1e-14 max|g_ab|^d, a bound that scales with the metric, so a
    homothety stays regular."""
    gv, dg, ddg = g.arrays(point)
    if not (np.isfinite(gv).all() and np.isfinite(dg).all() and np.isfinite(ddg).all()):
        raise SingularEvaluationError(f"metric {g.name} has a non-finite component",
                                      point=_at(point))
    det = np.linalg.det(gv)
    if (np.abs(det) < 1e-14 * np.abs(gv).max(axis=(-2, -1)) ** gv.shape[-1]).any():
        raise DegenerateMetricError("metric is singular", point=_at(point), det=np.min(det))
    ginv, dginv = jet_matrix_inverse(gv, dg)
    return MetricPoint(gv, dg, ddg, ginv, dginv, *christoffel_jets(ginv, dginv, dg, ddg))


def jet_matrix_inverse(g, dg):
    """(g^-1, dginv) with dginv[a,b,c] = d_c g^ab = -g^ae (d_c g_ef) g^fb, the
    first-order Taylor rule of the matrix inverse (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13)."""
    ginv = np.linalg.inv(g)
    return ginv, -np.einsum("...ae,...efc,...fb->...abc", ginv, dg, ginv)


def christoffel_jets(ginv, dginv, dg, ddg):
    """Levi-Civita (Gamma, dGamma): Gamma[a,b,c] = Gamma^a_bc and
    dGamma[a,b,c,d] = d_d Gamma^a_bc, exact from the metric arrays."""
    # low[e,b,c] = Gamma_ebc = 1/2 (d_b g_ec + d_c g_eb - d_e g_bc)
    low = 0.5 * (np.einsum("...ecb->...ebc", dg) + dg - np.einsum("...bce->...ebc", dg))
    dlow = np.einsum("...ecbd->...ebcd", ddg) + ddg
    dlow -= np.einsum("...bced->...ebcd", ddg)
    dlow *= 0.5
    G = np.einsum("...ae,...ebc->...abc", ginv, low)
    dG = np.einsum("...ae,...ebcd->...abcd", ginv, dlow)
    del dlow                                # a batch's largest temporary
    dG += np.einsum("...aed,...ebc->...abcd", dginv, low)
    return G, dG


def riemann_from_gamma(G, dG):
    """R^a_bcd = d_c G^a_db - d_d G^a_cb + G^a_ce G^e_db - G^a_de G^e_cb."""
    R = np.einsum("...adbc->...abcd", dG) - np.einsum("...acbd->...abcd", dG)
    R += np.einsum("...ace,...edb->...abcd", G, G)
    R -= np.einsum("...ade,...ecb->...abcd", G, G)
    return R


def _curvature(g, point):
    """(g, Gamma, R^a_bcd, R_abcd, Ric_ab, scalar) from one metric evaluation."""
    mp = metric_point(g, point)
    return (mp.g, mp.G) + curvature_from_gamma(mp, point)


def curvature_from_gamma(mp, point=None):
    """(R^a_bcd, R_abcd, Ric_ab, scalar) from a MetricPoint."""
    R_up = riemann_from_gamma(mp.G, mp.dG)
    if not np.all(np.isfinite(R_up)):
        raise SingularEvaluationError("curvature evaluation produced non-finite values",
                                      point=_at(point))
    R_low = np.einsum("...ae,...ebcd->...abcd", mp.g, R_up)
    ric = np.einsum("...abad->...bd", R_up)
    scal = _float(np.einsum("...bd,...bd->...", mp.ginv, ric))
    return R_up, R_low, ric, scal


def laplacian(u, h, point):
    """Laplace-Beltrami operator of a scalar field u on the metric h at the point."""
    return laplacian_from_gamma(metric_point(h, point), u.arrays(point))


def laplacian_from_gamma(mp, u):
    """Delta u = g^ab (d_a d_b u - Gamma^c_ab d_c u) from a MetricPoint and u's
    arrays (``ScalarField.arrays``), one value per point of a batch."""
    _, grad, hess = u
    return _float(np.einsum("...ab,...ab->...", mp.ginv,
                            hess - np.einsum("...cab,...c->...ab", mp.G, grad)))


def christoffel(g, point):
    """Christoffel symbols Gamma^a_{bc} of the Levi-Civita connection as floats."""
    return _curvature(g, point)[1]


def riemann(g, point):
    """(R^a_bcd, R_abcd, Ric_ab, scalar) with the unit round sphere positive."""
    return _curvature(g, point)[2:]


def _times(s, T):
    """The scalar s (a float, or one per point of a batch) times the 2-tensor T."""
    return np.asarray(s)[..., None, None] * T


def schouten(gv, ric, scal, n):
    return (ric - _times(scal / (2.0 * (n - 1.0)), gv)) / (n - 2.0)


def kulkarni_nomizu(A, B):
    K = np.einsum("...ac,...bd->...abcd", A, B)
    K += np.einsum("...bd,...ac->...abcd", A, B)
    K -= np.einsum("...ad,...bc->...abcd", A, B)
    K -= np.einsum("...bc,...ad->...abcd", A, B)
    return K


def _weyl_low(gv, R_low, ric, scal):
    return R_low - kulkarni_nomizu(schouten(gv, ric, scal, 4), gv)


def weyl(g, point):
    """Weyl tensor W_abcd on a 4-chart (trace-free part of the curvature)."""
    if g.chart.dim != 4:
        raise DimensionError("Weyl tensor computed only on 4-charts; it vanishes "
                             "identically in dimension 3")
    gv, _, _, R_low, ric, scal = _curvature(g, point)
    return _weyl_low(gv, R_low, ric, scal)


# ---------------------------------------------------------------------------
# orthonormal frames and norms
# ---------------------------------------------------------------------------

def orthonormal_frame(gv, point=None):
    """Columns E[:, i] form an oriented g-orthonormal frame (E^T g E = I); one
    frame per point for a leading point axis.

    Cholesky doubles as the lazy positive-definiteness check.
    """
    try:
        L = np.linalg.cholesky(gv)
    except np.linalg.LinAlgError:
        raise DegenerateMetricError("metric not positive definite", point=_at(point),
                                    det=float(np.min(np.linalg.det(gv))))
    return np.linalg.inv(L).swapaxes(-1, -2)     # det > 0: orientation preserved


def to_frame(T, E):
    """Transform an all-lower-index tensor into the frame of orthonormal_frame.
    T and E may share leading point axes.  Each step contracts T's first
    index with E as one matrix product and puts the new index last."""
    lead = E.shape[:-2]
    n = len(lead)
    first_last = (*range(n), *range(n + 1, T.ndim), n)       # np.moveaxis(T, n, -1), cheaper
    for _ in range(T.ndim - n):
        T = T.transpose(first_last)
        T = (T.reshape(lead + (-1, E.shape[-2])) @ E).reshape(T.shape)
    return T


def frame_norm(T, E):
    """Frobenius norm of the all-lower-index tensor T in the frame E of
    ``orthonormal_frame``, per point."""
    k = T.ndim - (E.ndim - 2)
    return _float(np.sqrt(np.sum(to_frame(T, E) ** 2, axis=tuple(range(-k, 0)))))


def tensor_norm(T, gv):
    """Frame-invariant Frobenius norm of an all-lower-index tensor."""
    return frame_norm(np.asarray(T, dtype=float), orthonormal_frame(gv))


# ---------------------------------------------------------------------------
# Hodge star and self-dual split
# ---------------------------------------------------------------------------

_LC_CACHE = {}


def levi_civita_symbol(n):
    if n not in _LC_CACHE:
        eps = np.zeros((n,) * n)
        for perm in itertools.permutations(range(n)):
            sign = 1
            p = list(perm)
            for i in range(n):
                while p[i] != i:
                    j = p[i]
                    p[i], p[j] = p[j], p[i]
                    sign = -sign
            eps[perm] = sign
        _LC_CACHE[n] = eps
    return _LC_CACHE[n]


def hodge_star(omega, gv, k, orientation=1, point=None, ginv=None, vol=None):
    """Coordinate Hodge star of a k-form (full antisymmetric component array),
    at a point or, with a leading point axis on omega and gv, at each point.

    (*w)_{b...} = (1/k!) w^{a...} eps_{a...b...} sqrt(det g), with eps fixed by
    the coordinate order and the chart orientation sign.  A caller that holds
    g^-1 and sqrt(det g) passes them as ``ginv`` and ``vol``.
    """
    n = gv.shape[-1]
    if not 0 <= k <= n:
        raise DimensionError(f"no {k}-forms on a {n}-chart")
    if vol is None:
        det = np.linalg.det(gv)
        if np.any(det <= 0):
            raise DegenerateMetricError("Hodge star needs a positive-definite metric",
                                        point=_at(point), det=float(np.min(det)))
        vol = np.sqrt(det)
    eps = levi_civita_symbol(n) * orientation
    vol = np.reshape(vol, np.shape(vol) + (1,) * (n - k))
    if k == 0:
        return np.reshape(omega, np.shape(omega) + (1,) * n) * vol * eps
    # raise each index in turn, as to_frame contracts with a frame
    up = to_frame(np.asarray(omega, dtype=float), np.linalg.inv(gv) if ginv is None else ginv)
    lead = up.shape[:up.ndim - k]
    out = (up.reshape(lead + (-1,)) @ eps.reshape(n ** k, -1)).reshape(lead + (n,) * (n - k))
    return out * vol / math.factorial(k)


PAIRS4 = [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
_PAIR_I, _PAIR_J = (np.array(ix) for ix in zip(*PAIRS4))


def star_matrix_flat4(orientation=1):
    """Hodge star on 2-forms of flat oriented R^4 as a 6x6 matrix on PAIRS4."""
    return levi_civita_symbol(4)[_PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J] * orientation


def two_form_to_six(F):
    """The PAIRS4 components of a 4x4 two-form (per point, for a leading point axis)."""
    return F[..., _PAIR_I, _PAIR_J]


def six_to_two_form(v):
    F = np.zeros(v.shape[:-1] + (4, 4))
    F[..., _PAIR_I, _PAIR_J] = v
    F[..., _PAIR_J, _PAIR_I] = -v
    return F


def weyl_operator_matrix(W_frame):
    """Weyl tensor in an orthonormal frame as the 6x6 endomorphism of 2-forms
    (per point, for a leading point axis)."""
    return W_frame[..., _PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J]


def _matrix_norm(M):
    """Frobenius norm of a 6x6 block, per point."""
    return _float(np.sqrt(np.sum(M * M, axis=(-2, -1))))


def sd_asd_split(W, gv, orientation=1, point=None):
    """Split the Weyl endomorphism into self-dual / anti-self-dual blocks.

    Returns (W_plus, W_minus, plus_norm, minus_norm) with the blocks as 6x6
    matrices in the orthonormalized 2-form basis.  W and gv may carry a
    leading point axis.
    """
    if gv.shape[-1] != 4:
        raise DimensionError("self-dual decomposition requires a 4-chart")
    E = orthonormal_frame(gv, point=point)
    return _split_operator(weyl_operator_matrix(to_frame(np.asarray(W, dtype=float), E)),
                           orientation)


def _split_operator(M, orientation):
    """``sd_asd_split`` of the Weyl endomorphism M, a 6x6 matrix per point."""
    S = star_matrix_flat4(orientation)
    P_plus = 0.5 * (np.eye(6) + S)
    P_minus = 0.5 * (np.eye(6) - S)
    Wp = P_plus @ M @ P_plus
    Wm = P_minus @ M @ P_minus
    return Wp, Wm, _matrix_norm(Wp), _matrix_norm(Wm)


def split_two_form(F, gv, orientation=1, point=None):
    """(plus part, minus part, plus norm, minus norm) of a 2-form in
    coordinates; the parts sum to F.  F and gv may carry a leading point axis,
    which the parts and norms keep."""
    if gv.shape[-1] != 4:
        raise DimensionError("self-dual decomposition requires a 4-chart")
    E = orthonormal_frame(gv, point=point)
    v = two_form_to_six(to_frame(np.asarray(F, dtype=float), E))
    Sv = v @ star_matrix_flat4(orientation).T
    vp = 0.5 * (v + Sv)
    vm = 0.5 * (v - Sv)
    Einv = np.linalg.inv(E)
    back = lambda w: np.einsum("...ia,...jb,...ij->...ab", Einv, Einv, six_to_two_form(w))
    norm = lambda w: _float(np.sqrt(np.sum(w * w, axis=-1)))
    return back(vp), back(vm), norm(vp), norm(vm)


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def ext_d(comp_jets, dim):
    """Exterior derivative acting on a full antisymmetric array of component
    jets; result components are jets one order lower.

    Accepts k in {0, 1, 2}: a single jet, a list of d jets, or a d x d nested
    list.  Returns the (k+1)-form as a nested structure of jets.
    """
    if isinstance(comp_jets, jets.Jet):                      # k = 0
        return [comp_jets.deriv(a) for a in range(dim)]
    if isinstance(comp_jets[0], jets.Jet):                   # k = 1
        return [[comp_jets[b].deriv(a) - comp_jets[a].deriv(b) for b in range(dim)]
                for a in range(dim)]
    # k = 2
    out = [[[None] * dim for _ in range(dim)] for _ in range(dim)]
    for a in range(dim):
        for b in range(dim):
            for c in range(dim):
                out[a][b][c] = (comp_jets[b][c].deriv(a)
                                - comp_jets[a][c].deriv(b)
                                + comp_jets[a][b].deriv(c))
    return out


def form_values(comp, dim, k):
    if k == 1:
        return np.array([c.value for c in comp])
    if k == 2:
        return np.array([[comp[a][b].value for b in range(dim)] for a in range(dim)])
    if k == 3:
        return np.array([[[comp[a][b][c].value for c in range(dim)] for b in range(dim)]
                         for a in range(dim)])
    raise DimensionError(f"unsupported form degree {k}")


def exterior_derivative(form, point):
    """d of a scalar/one-form/two-form field, as float components, a batch's
    point axis first."""
    dim = form.chart.dim
    if isinstance(form, ScalarField):
        comps, k = form.jet(point), 1
    elif isinstance(form, OneFormField):
        comps, k = form.jets(point), 2
    elif isinstance(form, TwoFormField):
        comps, k = form.jets(point), 3
    else:
        raise TypeError(f"not a form field: {form!r}")
    return _lead(form_values(ext_d(comps, dim), dim, k), point)


# ---------------------------------------------------------------------------
# conformal rescaling, sectional curvature, full report
# ---------------------------------------------------------------------------

def conformal_rescale(g, f):
    """Metric field f * g for a positive scalar field f on the same chart."""
    def fn(coords):
        fac = f.fn(coords)
        if isinstance(fac, jets.Jet) and jets.anywhere(fac.value <= 0.0):
            raise DegenerateMetricError("conformal factor is not positive",
                                        point=tuple(c.value for c in coords))
        return [[fac * c for c in row] for row in g.fn(coords)]
    return MetricField(g.chart, fn, name=f"({f.name or 'f'})*{g.name or 'g'}")


def sectional_curvature(g, point, X, Y):
    """Sectional curvature of span(X, Y); unit round spheres give +k."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gv, _, _, R_low, _, _ = _curvature(g, point)
    gram = (X @ gv @ X) * (Y @ gv @ Y) - (X @ gv @ Y) ** 2
    if gram < 1e-14:
        raise ValueError("plane spanned by X, Y is degenerate")
    num = np.einsum("abcd,a,b,c,d->", R_low, X, Y, X, Y)
    return float(num / gram)


@dataclass
class CurvatureReport:
    """Everything the pipeline knows about one metric at one point."""

    point: tuple
    gamma: np.ndarray
    riemann_up: np.ndarray
    riemann_low: np.ndarray
    ricci: np.ndarray
    scalar: float
    riemann_norm: float
    ricci_norm: float
    einstein_residual_norm: float
    weyl_low: np.ndarray | None = None
    weyl_norm: float = 0.0
    w_plus_norm: float = 0.0
    w_minus_norm: float = 0.0
    normalized: dict = field(default_factory=dict)

    def raw(self):
        out = {
            "riemann": self.riemann_norm,
            "ricci": self.ricci_norm,
            "scalar_curv": self.scalar,
            "einstein": self.einstein_residual_norm,
        }
        if self.weyl_low is not None:
            out.update(weyl=self.weyl_norm, w_plus=self.w_plus_norm,
                       w_minus=self.w_minus_norm)
        return out


def curvature_report(g, point):
    """Full pointwise curvature data; raises on singular/non-finite evaluation.

    At an ``(N, d)`` array of points every field carries a leading point axis:
    the norms and the scalar curvature are ``(N,)`` arrays.  One orthonormal
    frame per point serves every norm; W+ and W- are those of the chart's
    orientation.
    """
    n = g.chart.dim
    gv, G, R_up, R_low, ric, scal = _curvature(g, point)
    E = orthonormal_frame(gv, point=point)

    riem_norm = frame_norm(R_low, E)
    report = CurvatureReport(
        point=point if _is_batch(point) else tuple(float(x) for x in point),
        gamma=G, riemann_up=R_up, riemann_low=R_low, ricci=ric, scalar=scal,
        riemann_norm=riem_norm, ricci_norm=frame_norm(ric, E),
        einstein_residual_norm=frame_norm(ric - _times(scal / n, gv), E),
    )
    if n == 4:
        W = _weyl_low(gv, R_low, ric, scal)
        M = weyl_operator_matrix(to_frame(W, E))     # in the frame once, for all three norms
        _, _, report.w_plus_norm, report.w_minus_norm = _split_operator(M, g.chart.orientation)
        report.weyl_low = W
        report.weyl_norm = _matrix_norm(M)

    scale = riem_norm + 1.0
    report.normalized = {k: abs(v) / scale for k, v in report.raw().items()}
    return report
