"""Single-chart curvature pipeline.

Metric components are evaluated once in order-2 jet arithmetic and read into
plain arrays g, dg, ddg (``metric_point``).  Everything else is closed-form
array algebra: d(g^-1) = -g^-1 dg g^-1, the Christoffel symbols from g^-1 and
dg, and the Riemann tensor R_abcd from ddg and Gamma (no derivative of Gamma
is formed), so no finite differencing happens anywhere.  Pointwise norms are
taken in an orthonormalized frame (Cholesky of the metric), which makes every
reported residual a chart-independent scalar.

The curvature path (``metric_point`` through ``curvature_report`` and
``sd_asd_split``) also takes an ``(N, d)`` array of points.  The metric jets
then carry the batch axis last (see ``jets``); ``metric_point`` moves it to
the front once, and every array after it has a leading point axis, which
numpy's stacked matrix products and ``linalg`` carry through.  The
contractions are matrix products over that axis (an einsum of three or more
operands loops over every index combination at each point), and the einsums
left are transposes, traces and pairwise products.  Scalars such as the norms
become ``(N,)`` arrays.  A check that fails at any point of a batch raises for
the whole batch.

The fields hand out arrays with a batch's point axis first (``arrays``,
``values``, ``exterior_derivative``), so only this module reads the jets'
layout.  One rule holds at that jet-to-array boundary (``_at``, ``_lead``): a
one-row ``(1, d)`` array is evaluated in the scalar jets of its row, a tuple
of floats (a batch of one costs a third more); its arrays gain their point
axis there, and its errors name that tuple, as an evaluation at the point
itself does.  Each field seeds its own coordinate jets at the point it is
evaluated at.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
from collections import namedtuple
from dataclasses import dataclass

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
    "ScaledOneForm",
    "TwoFormField",
    "MetricField",
    "metric_jets",
    "metric_point",
    "jet_matrix_inverse",
    "christoffel_jets",
    "curvature_from_gamma",
    "laplacian",
    "laplacian_from_gamma",
    "riemann",
    "weyl",
    "hodge_star",
    "sd_asd_split",
    "split_two_form",
    "exterior_derivative",
    "ext_d",
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
                for p in point.tolist():     # the first bad row names itself
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


class _Field:
    """A closed-form field on a chart: ``fn`` maps coordinate jets (or floats)
    to its component jets (or floats)."""

    def __init__(self, chart, fn, name=""):
        self.chart = chart
        self.fn = fn
        self.name = name


class ScalarField(_Field):
    """Closed-form scalar on a chart: ``fn`` maps coordinate jets (or floats)
    to one jet (or float)."""

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


class OneFormField(_Field):
    """Closed-form one-form; ``fn`` returns a list of d component jets."""

    def jets(self, point):
        _, coords, comps = _jets_at(self.chart, self.fn, point)
        return [coords[0].coerce(c) for c in comps]

    def arrays(self, point):
        """(alpha, dalpha) at the point, dalpha[..., b, a] = d_a alpha_b, a batch's
        point axis first."""
        return tuple(_lead(x, point) for x in jets.arrays(self.jets(point), order=1))

    def values(self, point):
        return self.arrays(point)[0]


class ScaledOneForm(OneFormField):
    """The number ``factor`` times the one-form ``unit``: ``fn`` multiplies the
    unit's components, and the jets are the unit's times the factor, so
    ``weyl3.HeldBase`` may hold the unit's arrays and scale them."""

    def __init__(self, unit, factor, name=""):
        k = float(factor)
        super().__init__(unit.chart, lambda c: [k * x for x in unit.fn(c)], name)
        self.unit, self.factor = unit, k

    def jets(self, point):
        return [self.factor * j for j in self.unit.jets(point)]


class TwoFormField(_Field):
    """Closed-form two-form; ``fn`` returns a full d x d antisymmetric nested
    list of component jets."""

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


class MetricField(_Field):
    """Symmetric metric tensor; ``fn`` returns the d x d nested component list."""

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
    if (v == v.swapaxes(0, 1)).all():           # exactly symmetric, the common case
        return
    with np.errstate(invalid="ignore"):         # inf - inf is not a finding here
        asym = np.abs(v - v.swapaxes(0, 1)) > 1e-12 * (1.0 + np.abs(v))
    if not asym.any():
        return
    asym = np.triu(asym.reshape(asym.shape[:2] + (-1,)).any(-1), 1)   # a < b alone counts
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


def _first(point, bad):
    """The point an error names where ``bad`` holds (one flag per point): the
    first such row of an ``(N, d)`` array, as ``Chart.require_inside`` names
    it, else ``_at(point)``."""
    return tuple(point[np.argmax(bad)].tolist()) if _is_batch(point) else _at(point)


def _lead(x, point):
    """A jet-derived array at ``point`` with its point axis first: a batch
    jet's trailing axis moved to the front, a new axis for a one-row array
    (scalar jets, ``_at``), none at one point."""
    if not _is_batch(point):
        return x
    return np.asarray(x)[None] if len(point) == 1 else x.transpose((-1, *range(x.ndim - 1)))


def _float(x):
    """A float at one point; the ``(N,)`` array of a batch."""
    return float(x) if np.ndim(x) == 0 else x


MetricPoint = namedtuple("MetricPoint", "g dg ddg ginv dginv G")


def metric_point(g, point):
    """The metric field g at the point with its Levi-Civita connection, from one
    evaluation of its arrays (``g.arrays``: g, dg, ddg), then (g^-1, dginv)
    and Gamma.  At an ``(N, d)`` array of points each array has a leading
    point axis.  Raises on a non-finite metric, or a singular one:
    |det g| below 1e-14 max|g_ab|^d, a bound that scales with the metric, so a
    homothety stays regular."""
    gv, dg, ddg = g.arrays(point)
    if not (np.isfinite(gv).all() and np.isfinite(dg).all() and np.isfinite(ddg).all()):
        finite = [np.isfinite(x).reshape(gv.shape[:-2] + (-1,)).all(-1) for x in (gv, dg, ddg)]
        raise SingularEvaluationError(f"metric {g.name} has a non-finite component",
                                      point=_first(point, ~np.logical_and.reduce(finite)))
    det = np.linalg.det(gv)
    singular = np.abs(det) < 1e-14 * np.abs(gv).max(axis=(-2, -1)) ** gv.shape[-1]
    if singular.any():
        raise DegenerateMetricError("metric is singular", point=_first(point, singular),
                                    det=np.ravel(det)[np.argmax(singular)])
    ginv, dginv = jet_matrix_inverse(gv, dg)
    return MetricPoint(gv, dg, ddg, ginv, dginv, christoffel_jets(ginv, dg))


def jet_matrix_inverse(g, dg):
    """(g^-1, dginv) with dginv[a,b,c] = d_c g^ab = -g^ae (d_c g_ef) g^fb, the
    first-order Taylor rule of the matrix inverse (Griewank & Walther,
    *Evaluating Derivatives*, ch. 13)."""
    ginv = np.linalg.inv(g)
    lead, n = g.shape[:-2], g.shape[-1]
    # M[a,f,c] = g^ae d_c g_ef, then -M[a,f,c] g^fb as one product per a
    M = (ginv @ dg.reshape(lead + (n, n * n))).reshape(dg.shape)
    return ginv, -(M.swapaxes(-1, -2) @ ginv[..., None, :, :]).swapaxes(-1, -2)


def christoffel_jets(ginv, dg):
    """Levi-Civita Gamma[a,b,c] = Gamma^a_bc, exact from the metric arrays."""
    # low[e,b,c] = Gamma_ebc = 1/2 (d_b g_ec + d_c g_eb - d_e g_bc)
    low = 0.5 * (np.einsum("...ecb->...ebc", dg) + dg - np.einsum("...bce->...ebc", dg))
    lead, n = ginv.shape[:-2], ginv.shape[-1]
    return (ginv @ low.reshape(lead + (n, n * n))).reshape(low.shape)


def _curvature(g, point):
    """(g, R_abcd, Ric_ab, scalar) from one metric evaluation."""
    mp = metric_point(g, point)
    return (mp.g,) + curvature_from_gamma(mp, point)


def curvature_from_gamma(mp, point=None):
    """(R_abcd, Ric_bd = g^ac R_abcd, scalar) from a MetricPoint, by
    R_abcd = 1/2 (d_b d_c g_ad + d_a d_d g_bc - d_a d_c g_bd - d_b d_d g_ac)
    + Gamma_fad Gamma^f_bc - Gamma_fac Gamma^f_bd (S. Weinberg, *Gravitation
    and Cosmology*, Wiley 1972, ch. 6): the metric's second derivatives and
    Gamma, no derivative of Gamma."""
    G, lead, n = mp.G, mp.G.shape[:-3], mp.G.shape[-1]
    # A[a,d,b,c] = Gamma^e_ad g_ef Gamma^f_bc + 1/2 (d_b d_c g_ad + d_a d_d g_bc),
    # one (n^2, n^2) matrix product; R_abcd is A[a,d,b,c] less A[a,c,b,d]
    Gf = G.reshape(lead + (n, n * n))
    A = (Gf.swapaxes(-1, -2) @ (mp.g @ Gf)).reshape(G.shape + (n,))
    A += 0.5 * (mp.ddg + np.einsum("...bcad->...adbc", mp.ddg))
    A = np.einsum("...adbc->...abcd", A)
    R = A - A.swapaxes(-1, -2)
    if not np.all(np.isfinite(R)):
        raise SingularEvaluationError("curvature evaluation produced non-finite values",
                                      point=_at(point))
    ric = np.einsum("...ac,...abcd->...bd", mp.ginv, R)
    return R, ric, _float(np.einsum("...bd,...bd->...", mp.ginv, ric))


def laplacian(u, h, point):
    """Laplace-Beltrami operator of a scalar field u on the metric h at the point."""
    return laplacian_from_gamma(metric_point(h, point), u.arrays(point))


def laplacian_from_gamma(mp, u):
    """Delta u = g^ab (d_a d_b u - Gamma^c_ab d_c u) from a MetricPoint and u's
    arrays (``ScalarField.arrays``), one value per point of a batch."""
    _, grad, hess = u
    return _float(np.einsum("...ab,...ab->...", mp.ginv,
                            hess - np.einsum("...cab,...c->...ab", mp.G, grad)))


def riemann(g, point):
    """(R_abcd, Ric_ab, scalar) with the unit round sphere positive."""
    return _curvature(g, point)[1:]


def _times(s, T):
    """The scalar s (a float, or one per point of a batch) times the 2-tensor T."""
    return np.asarray(s)[..., None, None] * T


def schouten(gv, ric, scal, n):
    return (ric - _times(scal / (2.0 * (n - 1.0)), gv)) / (n - 2.0)


def kulkarni_nomizu(A, B):
    """(A o B)_abcd = A_ac B_bd + A_bd B_ac - A_ad B_bc - A_bc B_ad: one outer
    product X_abcd = A_ac B_bd, whose transposes give the other three terms."""
    X = A[..., :, None, :, None] * B[..., None, :, None, :]
    K = X + np.einsum("...badc->...abcd", X)
    K -= np.einsum("...abdc->...abcd", X)
    K -= np.einsum("...bacd->...abcd", X)
    return K


def _weyl_low(gv, R_low, ric, scal):
    return R_low - kulkarni_nomizu(schouten(gv, ric, scal, 4), gv)


def weyl(g, point):
    """Weyl tensor W_abcd on a 4-chart (trace-free part of the curvature)."""
    if g.chart.dim != 4:
        raise DimensionError("Weyl tensor computed only on 4-charts; it vanishes "
                             "identically in dimension 3")
    gv, R_low, ric, scal = _curvature(g, point)
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
    T and E may share leading point axes.  A 2-tensor is the one product
    E^T T E; a higher rank contracts its first index with E at each step, as
    one matrix product, and puts the new index last."""
    lead = E.shape[:-2]
    n = len(lead)
    if T.ndim - n == 2:
        return E.swapaxes(-1, -2) @ T @ E
    first_last = (*range(n), *range(n + 1, T.ndim), n)       # np.moveaxis(T, n, -1), cheaper
    for _ in range(T.ndim - n):
        T = T.transpose(first_last)
        T = (T.reshape(lead + (-1, E.shape[-2])) @ E).reshape(T.shape)
    return T


def frame_norm(T, E):
    """Frobenius norm of the all-lower-index tensor T in the frame E of
    ``orthonormal_frame``, per point: of E^T T E for a 2-tensor.  It reduces
    with ``np.add.reduce``, which ``np.sum`` wraps: the same sums in one call
    fewer."""
    k = T.ndim - (E.ndim - 2)
    return _float(np.sqrt(np.add.reduce(to_frame(T, E) ** 2, axis=tuple(range(-k, 0)))))


def tensor_norm(T, gv):
    """Frame-invariant Frobenius norm of an all-lower-index tensor."""
    return frame_norm(np.asarray(T, dtype=float), orthonormal_frame(gv))


# ---------------------------------------------------------------------------
# Hodge star and self-dual split
# ---------------------------------------------------------------------------

@functools.cache
def levi_civita_symbol(n):
    """eps with eps[perm] the sign of the permutation, (-1) to the number of
    its inversions, and zero off the permutations."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        eps[perm] = (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))
    return eps


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


@functools.cache
def star_matrix_flat4(orientation=1):
    """Hodge star on 2-forms of flat oriented R^4 as a 6x6 matrix on PAIRS4,
    made once per orientation and read-only."""
    S = levi_civita_symbol(4)[_PAIR_I[:, None], _PAIR_J[:, None], _PAIR_I, _PAIR_J] * orientation
    S.flags.writeable = False
    return S


@functools.cache
def _projectors(orientation):
    """(P+, P-) = ((1 + *)/2, (1 - *)/2) on PAIRS4, made once and read-only."""
    S = star_matrix_flat4(orientation)
    P = 0.5 * (np.eye(6) + S), 0.5 * (np.eye(6) - S)
    for x in P:
        x.flags.writeable = False
    return P


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
    return _float(np.sqrt(np.add.reduce(M ** 2, axis=(-2, -1))))


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
    P_plus, P_minus = _projectors(orientation)
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
    back = lambda w: Einv.swapaxes(-1, -2) @ six_to_two_form(w) @ Einv
    norm = lambda w: _float(np.sqrt(np.add.reduce(w ** 2, axis=-1)))
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
    point axis first.  A scalar's d is its gradient, and a one-form's is read
    from its arrays: (d alpha)_ab = d_a alpha_b - d_b alpha_a.  A two-form's
    goes through ``ext_d``."""
    if isinstance(form, ScalarField):
        return _lead(form.jet(point).grad, point)
    if isinstance(form, OneFormField):
        da = form.arrays(point)[1]
        return da.swapaxes(-1, -2) - da
    if isinstance(form, TwoFormField):
        dim = form.chart.dim
        return _lead(form_values(ext_d(form.jets(point), dim), dim, 3), point)
    raise TypeError(f"not a form field: {form!r}")


# ---------------------------------------------------------------------------
# sectional curvature, full report
# ---------------------------------------------------------------------------

def sectional_curvature(g, point, X, Y):
    """Sectional curvature of span(X, Y); unit round spheres give +k."""
    X = np.asarray(X, dtype=float)
    Y = np.asarray(Y, dtype=float)
    gv, R_low, _, _ = _curvature(g, point)
    gram = (X @ gv @ X) * (Y @ gv @ Y) - (X @ gv @ Y) ** 2
    if gram < 1e-14:
        raise ValueError("plane spanned by X, Y is degenerate")
    num = X @ (R_low @ Y @ X @ Y)
    return float(num / gram)


@dataclass
class CurvatureReport:
    """Everything the pipeline knows about one metric at one point."""

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
    gv, R_low, ric, scal = _curvature(g, point)
    E = orthonormal_frame(gv, point=point)
    report = CurvatureReport(
        riemann_low=R_low, ricci=ric, scalar=scal,
        riemann_norm=frame_norm(R_low, E), ricci_norm=frame_norm(ric, E),
        einstein_residual_norm=frame_norm(ric - _times(scal / n, gv), E),
    )
    if n == 4:
        W = _weyl_low(gv, R_low, ric, scal)
        M = weyl_operator_matrix(to_frame(W, E))     # in the frame once, for all three norms
        _, _, report.w_plus_norm, report.w_minus_norm = _split_operator(M, g.chart.orientation)
        report.weyl_low = W
        report.weyl_norm = _matrix_norm(M)
    return report
