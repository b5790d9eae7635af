"""Pointwise verification layer for a fibred 4-metric.

Everything is computed from the metric jets of the total space: dilation and
horizontal conformality, mean-curvature one-forms of the vertical and
horizontal distributions, the integrability two-form, the harmonicity
residual, the induced Lee forms, both twistoriality certificates, the
monopole compatibility residual, pulled-back connections, and the fibre-wise
family classifier.

All of it reads rows of a :class:`PointEval`, which holds g, dg, ddg, g^-1
and (Gamma, dGamma) at a batch of points, each array with a leading point
axis, and fills in the rest on first use for the whole batch.  The trace forms
are (value, derivative) arrays, by the product rule through matrix products
and ``...``-prefixed einsums of two operands (vector forward mode over the
point axis, Griewank & Walther, *Evaluating Derivatives*, ch. 3).
A ``SubmersionSetup`` holds one ``PointEval`` at a time: ``hold`` evaluates a
job's fibre samples in one batch, and a read of a point outside it holds the
points read instead (one point as a one-row batch).  ``SubmersionSetup.ctx``
reads a point's row and ``SubmersionSetup.rows`` the rows of an array of
points at once.  Each quantity has one (setup, point) function, which takes
one point (a float result) or an ``(N, 4)`` array of points (one result per
point).

The fibre direction is always coordinate 0; the projection drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from . import jets
from .constructions import FibrationMetric
from .errors import GeometryError, NotHorizontallyConformalError

__all__ = [
    "SubmersionSetup",
    "PointEval",
    "DilationData",
    "dilation",
    "second_fundamental_traces",
    "integrability_form",
    "integrability_consistency",
    "fundamental_eq_residual",
    "induced_lee_form",
    "projected_lee_form",
    "twistorial_basic_residual",
    "twistorial_sd_residual",
    "monopole_eq_residual",
    "pullback_sd_residual",
    "classify_type",
    "Classification",
    "fibre_samples_about",
]

H_CONFORMAL_TOL = 1e-8
SD_GATE_TOL = 1e-7        # classify_type gate: twistorial_sd at each sample
SPREAD_GATE_TOL = 1e-7    # gate: fibre spreads (Lee form, defect, d^H log lam), I
BRANCH_TOL = 1e-6         # branches on V(lam^-2) and V(log V(lam^-2))
C_SPREAD_TOL = 1e-5       # spread of the recovered c along the fibre


class SubmersionSetup:
    """A fibration metric with the verification hooks of the projection map.

    It holds one ``PointEval`` at a time, with a row index per point.
    ``hold(points)`` evaluates a job's sample points in one batch and replaces
    what was held; ``ctx`` or ``rows`` at points outside it holds the points
    read.  A hold that fails evaluates its points one at a time, each as a
    one-row batch, in order, and raises the error of the first that fails
    alone, so the error names the first sample that fails."""

    def __init__(self, fm: FibrationMetric):
        self.fm = fm
        self._held, self._index = None, {}       # the PointEval, point -> its row

    def hold(self, points):
        """Evaluate every point in one batch, held in place of what was held."""
        points = list(dict.fromkeys(tuple(float(x) for x in p) for p in points))
        try:
            held = PointEval(self, points)
        except GeometryError:
            for p in points:            # the first point that fails alone raises
                PointEval(self, [p])
            raise
        self._held, self._index = held, {p: i for i, p in enumerate(points)}

    def ctx(self, point):
        """The evaluation at ``point``: its row of the held batch, which holds
        the point alone if it was not held."""
        point = tuple(float(x) for x in point)
        if point not in self._index:
            self.hold([point])
        return _Row(self._held, self._index[point])

    def rows(self, points):
        """The evaluations at a point, or at each point of an ``(..., 4)`` array,
        read through ``ctx`` as one view whose attributes have the points'
        shape leading; the points are held together unless all are held."""
        if np.ndim(points) == 1:
            return self.ctx(points)
        points = np.asarray(points, dtype=float)
        flat = [tuple(p) for p in points.reshape(-1, points.shape[-1]).tolist()]
        if not all(p in self._index for p in flat):
            self.hold(flat)
        return _Row(self._held, np.reshape([self.ctx(p).index for p in flat],
                                           points.shape[:-1]))


def _spec(terms, out, z=None):
    """An einsum spec over a leading point axis; term ``z`` (and the output,
    unless z is None) gains a trailing derivative axis."""
    ins = ",".join("..." + s + ("z" if k == z else "") for k, s in enumerate(terms))
    return f"{ins}->...{out}" + ("" if z is None else "z")


def _d_einsum(spec, *pairs):
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


def _take(x, index):
    """Rows ``index`` of a batch attribute: of an array, of each array of a
    (value, derivative) pair; anything else is shared by the rows."""
    if isinstance(x, np.ndarray):
        return x[index]
    if isinstance(x, tuple):
        return tuple(_take(v, index) for v in x)
    return x


class _Row:
    """Rows of a ``PointEval``: each attribute is the batch's at row ``index``
    (an int), or at the rows of an index array, whose shape then leads;
    computed for the whole batch on first use."""

    __slots__ = ("batch", "index")

    def __init__(self, batch, index):
        self.batch, self.index = batch, index

    def __getattr__(self, name):
        return _take(getattr(self.batch, name), self.index)


class PointEval:
    """All data of one fibred metric at a batch of points.

    Every array has a leading point axis.  The metric arrays, the inverse and
    (Gamma, dGamma) come from one ``geo.metric_point`` over the batch, and
    lam^-2 from one batch jet; everything derived from them is computed on
    first use, for every point at once.  h and h^-1 are read once per distinct
    base point.  Derivative arrays carry d/dx^e on their last axis.  A batch
    of one point is a one-row array, evaluated in its own scalar jets.

    Vertical distribution: span of d/dx^0, unit vertical V0 d_0 with
    V0 = g_00^(-1/2).  P = 1 + e_0 (x) w with w_b = -g_0b/g_00 is the
    horizontal projector P(X) = X - d_0 g(X, d_0)/g_00; its columns
    W_b = d_b + w_b d_0 lift the base coordinate frame (b = 1..3), W_0 = 0.
    """

    def __init__(self, setup, points):
        self.fm = fm = setup.fm
        self.points = [tuple(float(x) for x in p) for p in points]
        self._at = fm.total_chart.point_array(self.points)
        self.metric = geo.metric_point(fm.g, self._at)       # checks the chart
        self.gv, self.dg, self.ddg, self.ginv, self.dginv, self.G, self.dG = self.metric
        h = {b: fm.h.values(b) for b in dict.fromkeys(p[1:] for p in self.points)}
        self.hv = np.array([h[p[1:]] for p in self.points])
        self.hinv = np.linalg.inv(self.hv)
        self.lam_inv_sq, self.dlam_inv_sq, self.ddlam_inv_sq = fm.dilation_sq_inv.arrays(self._at)
        g00, dg00 = self.gv[:, 0, 0], self.dg[:, 0, 0]
        self.V0 = jets._pow(g00, -0.5)      # pow per point, as at one point
        # u = 1/g_00 with its first and second derivatives, and d_e w_b
        u = 1.0 / g00
        uc = u[:, None]
        self.u = (u, -dg00 * uc * uc)
        self.ddu = (-self.ddg[:, 0, 0] * uc[..., None] * uc[..., None]
                    + 2.0 * (u ** 3)[:, None, None] * (dg00[:, :, None] * dg00[:, None, :]))
        self.dw = -self.dg[:, 0] * uc[..., None] - self.gv[:, 0, :, None] * self.u[1][:, None, :]
        self.P = np.tile(np.eye(4), (len(self.points), 1, 1))
        self.P[:, 0] -= self.gv[:, 0] * uc
        self.dP = np.zeros(self.dg.shape)
        self.dP[:, 0] = self.dw

    def _g(self, v, w):
        """g(v, w) at each point, as the matrix products of one point compute it."""
        return (v[:, None, :] @ self.gv @ w[:, :, None])[:, 0, 0]

    # -- mean-curvature one-forms ----------------------------------------------

    @cached_property
    def vertical_trace(self):
        """trace Bv = P(nabla_U U) as (value, derivative)."""
        u, du = self.u
        e0 = np.eye(4)[0]
        G00, dG00 = self.G[:, :, 0, 0], self.dG[:, :, 0, 0]
        # nabla_U U = V0^2 Gamma^a_00 + delta^a_0 V0 d_0 V0, and V0^2 = u
        accel = (G00 * u[:, None] + 0.5 * du[:, 0, None] * e0,
                 dG00 * u[:, None, None] + G00[:, :, None] * du[:, None, :]
                 + 0.5 * (e0[:, None] * self.ddu[:, None, 0]))
        return _d_einsum("ab,b->a", (self.P, self.dP), accel)

    @cached_property
    def vertical_trace_flat(self):
        """(trace Bv)-flat as (value, derivative)."""
        return _d_einsum("ab,b->a", (self.gv, self.dg), self.vertical_trace)

    @cached_property
    def horizontal_trace_flat(self):
        """(trace Bh)-flat as (value, derivative): the vertical part of
        h^bc nabla_{W_b} W_c, h^bc being g^-1 less the unit vertical square."""
        u, du = self.u
        g0, dg0 = self.gv[:, 0], self.dg[:, 0]
        # ddw[b,e,f] = d_f d_e w_b, from w_b = -g_0b u
        ddw = (-self.ddg[:, 0] * u[:, None, None, None]
               - np.einsum("...be,...f->...bef", dg0, du)
               - np.einsum("...bf,...e->...bef", dg0, du)
               - np.einsum("...b,...ef->...bef", g0, self.ddu))
        # (nabla_{W_b} W_c)^d = (P^T Gamma^d P)_bc + delta^d_0 W_b(w_c), one
        # matrix product per d; d/dx^z (stacked on axis 1) by the product rule
        P, Pt = self.P[:, None], self.P.swapaxes(-1, -2)[:, None]
        dPz = np.moveaxis(self.dP, -1, 1)[:, :, None]          # [n, z, 1, e, b]
        GP, PtG = self.G @ P, Pt @ self.G
        nab = Pt @ GP
        dnab = np.moveaxis(Pt[:, None] @ np.moveaxis(self.dG, -1, 1) @ P[:, None]
                           + dPz.swapaxes(-1, -2) @ GP[:, None] + PtG[:, None] @ dPz, 1, -1)
        lift, dlift = _d_einsum("eb,ce->bc", (self.P, self.dP), (self.dw, ddw))
        nab[:, 0] += lift
        dnab[:, 0] += dlift
        GH, dGH = self.ginv.copy(), self.dginv.copy()
        GH[:, 0, 0] -= u
        dGH[:, 0, 0] -= du
        s, ds = _d_einsum("bc,bc->", (GH, dGH), _d_einsum("d,dbc->bc", (g0, dg0), (nab, dnab)))
        # t = U g(U, .) of the sum = d_0 s/g_00; lowered: g_a0 s/g_00
        su, dsu = s * u, ds * u[:, None] + s[:, None] * du
        return g0 * su[:, None], dg0 * su[:, None, None] + g0[:, :, None] * dsu[:, None, :]

    @cached_property
    def grad_log_lambda(self):
        """grad log lam = -1/2 g^-1 d log(lam^-2), as (value, derivative)."""
        L, dL, ddL = self.lam_inv_sq, self.dlam_inv_sq, self.ddlam_inv_sq
        Lc = L[:, None]
        dlog = (-0.5 * dL / Lc, -0.5 * (ddL / Lc[..., None]
                                        - dL[:, :, None] * dL[:, None, :] / (Lc * Lc)[..., None]))
        return _d_einsum("ab,b->a", (self.ginv, self.dginv), dlog)

    @cached_property
    def conformality(self):
        """(lam^2, anisotropy, stored mismatch): lam^2 with (g^-1)_base-block =
        lam^2 h^-1, the norm of the deviation from it over lam^2, and
        |lam^-2 lam^2 - 1| against the stored closed form of lam^-2."""
        block = self.ginv[:, 1:, 1:]
        lam_sq = np.einsum("...ij,...ij->...", block, self.hv) / 3.0
        dev = block - lam_sq[:, None, None] * self.hinv
        dev2 = np.sum(dev * (self.hv @ dev @ self.hv), axis=(-2, -1))
        anisotropy = np.sqrt(np.maximum(0.0, dev2)) / np.maximum(lam_sq, 1e-30)
        return lam_sq, anisotropy, np.abs(self.lam_inv_sq * lam_sq - 1.0)

    @cached_property
    def induced_lee(self):
        """Lee form (trace Bv)-flat - *_H I of the induced partial connection."""
        return self.vertical_trace_flat[0] - self.star_H_I

    @cached_property
    def projected_lee(self):
        """(base components b_1..b_3, vertical contraction) of the Lee form in
        the gauge of the pulled-back base metric, paired with the lifts."""
        beta = self.induced_lee
        return ((beta[:, None, :] @ self.P[:, :, 1:])[:, 0] - self.dH_log_lambda,
                np.abs(beta[:, 0] * self.V0))

    # -- integrability, frames, scale --------------------------------------------

    @cached_property
    def integrability(self):
        """I(W_a, W_b) = -g(U, [W_a, W_b]) as a 4x4 antisymmetric array; the
        bracket of two lifts is W_a(w_b) - W_b(w_a) along d_0."""
        lift = np.einsum("...ea,...be->...ab", self.P, self.dw)
        return (-self.V0 * self.gv[:, 0, 0])[:, None, None] * (lift - lift.swapaxes(-1, -2))

    @cached_property
    def dH_log_lambda(self):
        """Horizontal part of d log lam evaluated against the lifts W_1..W_3."""
        dlog = -0.5 * self.dlam_inv_sq / self.lam_inv_sq[:, None]
        return (dlog[:, None, :] @ self.P[:, :, 1:])[:, 0]

    @cached_property
    def horizontal_frame(self):
        """g-orthonormal horizontal frame X1, X2, X3 as rows, oriented so
        (U, X1, X2, X3) is positive for the chart orientation (Gram-Schmidt
        at every point at once)."""
        frame = []
        for i in (1, 2, 3):
            v = self.P[:, :, i].copy()
            for f in frame:
                v = v - self._g(v, f)[:, None] * f
            frame.append(v / np.sqrt(self._g(v, v))[:, None])
        full = np.stack([self.V0[:, None] * np.eye(4)[0]] + frame, axis=-1)
        flip = np.linalg.det(full) * self.fm.total_chart.orientation < 0
        frame[2] = np.where(flip[:, None], -frame[2], frame[2])
        return np.stack(frame, axis=1)

    @cached_property
    def riemann_norm(self):
        """Frame norm of the Riemann tensor, the scale residuals are normalized by."""
        return geo.tensor_norm(geo.curvature_from_gamma(self.metric, self._at)[1], self.gv)

    @cached_property
    def lifted_dtheta(self):
        """d theta evaluated on pairs of lifts W_1..W_3, a 3x3 array."""
        lifts = self.P[:, :, 1:]
        return lifts.swapaxes(-1, -2) @ geo.exterior_derivative(self.fm.theta, self._at) @ lifts

    @cached_property
    def twistorial_sd(self):
        """Norm of the anti-self-dual part of d sigma, sigma = (trace Bv)-flat
        + 1/3 (trace Bh)-flat."""
        dS = self.vertical_trace_flat[1] + (1.0 / 3.0) * self.horizontal_trace_flat[1]
        # dS[b, a] = d_a sigma_b, so (d sigma)_ab = dS[b, a] - dS[a, b]
        return geo.split_two_form(dS.swapaxes(-1, -2) - dS, self.gv,
                                  self.fm.total_chart.orientation, point=self._at)[3]

    @cached_property
    def harmonicity_defect(self):
        """dphi(trace Bv + grad log lam) in base coordinate components."""
        return (self.vertical_trace[0] + self.grad_log_lambda[0])[:, 1:]

    @cached_property
    def star_H_I(self):
        """*_{H,g} of the integrability form, as coordinate one-form components."""
        frame = self.horizontal_frame
        Itilde = frame @ self.integrability @ frame.swapaxes(-1, -2)
        star = 0.5 * np.einsum("...kl,klm->...m", Itilde, geo.levi_civita_symbol(3))
        return (star[:, None, :] @ frame @ self.gv)[:, 0]


# ---------------------------------------------------------------------------
# public operations: one (setup, point) function per quantity
# ---------------------------------------------------------------------------

@dataclass
class DilationData:
    """Each field a float at a point, an array over an array of points."""
    lam_sq: float
    anisotropy: float
    stored_mismatch: float


def _norm(v, M):
    """sqrt(v^T M v) at each point: a float at one point."""
    return geo._float(np.sqrt(np.maximum(0.0, (v[..., None, :] @ M @ v[..., :, None])[..., 0, 0])))


def dilation(setup, point):
    """Conformal factor of the projection on the horizontal space.

    Computed as the unique lam^2 with (g^-1)_base-block = lam^2 h^-1; the
    anisotropy norm certifies horizontal conformality and must stay below
    ``H_CONFORMAL_TOL`` (at every point of an array, else the first point above
    it is named).  Also cross-checks the stored closed form of lam^-2.
    """
    lam_sq, anisotropy, mismatch = setup.rows(point).conformality
    bad = np.flatnonzero(np.ravel(anisotropy) > H_CONFORMAL_TOL)
    if bad.size:
        raise NotHorizontallyConformalError(
            "projection is not horizontally conformal",
            point=np.reshape(point, (-1, 4))[bad[0]].tolist(),
            anisotropy=float(np.ravel(anisotropy)[bad[0]]))
    return DilationData(lam_sq, anisotropy, mismatch)


def second_fundamental_traces(setup, point):
    """Mean-curvature one-forms (vertical trace, horizontal trace), float
    coordinate components with the index lowered by g."""
    ctx = setup.ctx(point)
    return ctx.vertical_trace_flat[0], ctx.horizontal_trace_flat[0]


def integrability_form(setup, point):
    """Integrability two-form of the horizontal distribution, I(W_a, W_b)."""
    return setup.ctx(point).integrability


def integrability_consistency(setup, point):
    """|| I - lam * dtheta restricted to the lifts ||, a structural cross-check."""
    ctx = setup.ctx(point)
    lam = ctx.lam_inv_sq ** -0.5
    return float(np.max(np.abs(ctx.integrability[1:, 1:] - lam * ctx.lifted_dtheta)))


def fundamental_eq_residual(setup, point):
    """Harmonicity residual || dphi(trace Bv + grad log lam) ||_h.

    Zero together with horizontal conformality certifies that the projection
    is a harmonic morphism onto (N, h).
    """
    dilation(setup, point)      # raises if the conformality certificate fails
    rows = setup.rows(point)
    return _norm(rows.harmonicity_defect, rows.hv)


def induced_lee_form(setup, point):
    """Lee form (trace Bv)-flat - *_H I of the induced partial connection,
    float coordinate components (a one-form annihilating the vertical)."""
    return setup.ctx(point).induced_lee


def projected_lee_form(setup, point):
    """The Lee form in the gauge of the pulled-back base metric, paired with
    the horizontal lifts: (base components b_1..b_3, vertical contraction)."""
    return setup.ctx(point).projected_lee


def _base_of(point):
    """The base point of a point, or of each row of an ``(N, 4)`` array."""
    return np.asarray(point)[:, 1:] if np.ndim(point) == 2 else tuple(float(x) for x in point[1:])


def _check_one_fibre(samples):
    """The samples as an ``(..., k, 4)`` array: k >= 2 points of one fibre, or
    of each of several fibres."""
    samples = np.asarray(samples, dtype=float)
    if samples.ndim < 2 or samples.shape[-2] < 2:
        raise ValueError("need at least two points on the fibre")
    if np.any(np.abs(samples[..., 1:, 1:] - samples[..., :1, 1:]) > 1e-12):
        raise ValueError("fibre samples must share the base point")
    return samples


def twistorial_basic_residual(setup, samples):
    """Fibre-independence certificate of the induced Lee form.

    Reads the projected Lee form at each sample of one fibre, a ``(k, 4)``
    array, and returns the maximal pairwise component spread plus the maximal
    vertical contraction; zero means the form is basic at sample resolution.
    An ``(N, k, 4)`` array gives one residual per fibre.
    """
    comps, vertical = setup.rows(_check_one_fibre(samples)).projected_lee
    spread = np.max(comps.max(axis=-2) - comps.min(axis=-2), axis=-1)
    return geo._float(spread + vertical.max(axis=-1))


def twistorial_sd_residual(setup, point):
    """Norm of the anti-self-dual part of d(trace(Bv)-flat + 1/3 trace(Bh)-flat)."""
    return geo._float(setup.rows(point).twistorial_sd)


def monopole_eq_residual(setup, alpha, point, base=None):
    """|| (d^H - phi* alpha)(lam^-2) - *_H dtheta ||_h at the point.

    ``alpha`` is a one-form on the base (None means zero); vanishing residual
    certifies that alpha is the Lee form making the projection twistorial.
    ``base``, a ``weyl3.HeldBase`` at the base point(s), holds alpha's arrays
    when the caller reads them for other residuals too.
    """
    rows = setup.rows(point)
    lhs = (rows.dlam_inv_sq[..., None, :] @ rows.P[..., :, 1:])[..., 0, :]
    if alpha is not None:
        av = alpha.values(_base_of(point)) if base is None else base.arrays(alpha)[0]
        lhs = lhs - rows.lam_inv_sq[..., None] * av
    rhs = geo.hodge_star(rows.lifted_dtheta, rows.hv, 2, setup.fm.total_chart.orientation,
                         ginv=rows.hinv)
    return _norm(lhs - rhs, rows.hinv)


def pullback_sd_residual(setup, u, A, point):
    """Anti-self-dual norm of the curvature of the pulled-back connection.

    The pair (u, A) on the base pulls back to the connection form
    -u (lam^2 theta) + phi*(A); a monopole pair must pull back with self-dual
    curvature.
    """
    fm = setup.fm
    gv = setup.rows(point).gv

    def connection(c):
        L, uv = fm.dilation_sq_inv.fn(c), u.fn(c[1:])
        tilde = [-1.0 * uv * (th / L) for th in fm.theta.fn(c)]
        if A is not None:
            tilde[1:] = [t + a for t, a in zip(tilde[1:], A.fn(c[1:]))]
        return tilde

    dA = geo.exterior_derivative(geo.OneFormField(fm.total_chart, connection, "pullback"), point)
    return geo.split_two_form(dA, gv, fm.total_chart.orientation, point=point)[3]


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

@dataclass
class Classification:
    label: str
    recovered_c: float | None
    evidence: dict = field(default_factory=dict)


def fibre_samples_about(fm, point, count=3):
    """Points on the fibre through ``point``, spaced inside the chart box.  A
    point off the chart's fibre range has none about it: ``require_inside``
    names it."""
    lo, hi = fm.total_chart.lo[0], fm.total_chart.hi[0]
    if not lo < point[0] < hi:
        fm.total_chart.require_inside(point)
    spacing = 0.15 * (hi - lo) / max(count - 1, 1)
    t0 = point[0]
    offsets = (np.arange(count) - (count - 1) / 2.0) * spacing
    ts = np.clip(t0 + offsets, lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
    return [(float(t),) + tuple(point[1:]) for t in sorted(set(ts))]


def classify_type(setup, samples):
    """Decide which family the fibration belongs to, from one fibre's samples.

    Gates: horizontal conformality, the self-duality certificate of the mean
    curvature form, and fibre-constancy of the harmonicity defect (harmonic
    up to a conformal change with basic factor).  Branches on V(lam^-2) and
    V(log V(lam^-2)) along the fibre; returns the label with all intermediate
    scalars as evidence.  ``evidence["decided_by"]`` names the gate that
    decided: its threshold constant (``sign`` for the sign branch of
    V(lam^-2)) and the evidence it tested.  The samples are read as arrays,
    from the held batch or from one hold of them.
    """
    samples = _check_one_fibre(samples)
    if len(samples) < 3:
        raise ValueError("classification needs at least three fibre samples")

    evidence = {"samples": samples.tolist()}
    rows = setup.rows(samples)

    def decided(label, gate, c=None):
        evidence["decided_by"] = gate
        return Classification(label, c, evidence)

    try:
        dilation(setup, samples)
    except NotHorizontallyConformalError as exc:
        evidence["anisotropy"] = exc.anisotropy
        return decided("nonstandard", "H_CONFORMAL_TOL: anisotropy")

    sd_res = rows.twistorial_sd
    basic_res = twistorial_basic_residual(setup, samples)
    evidence["twistorial_sd"] = sd_res.tolist()
    evidence["twistorial_basic"] = basic_res

    # The defect lowered by h and scaled by lam^-2: in that weighting it is
    # constant along fibres exactly when the metric is a basic conformal
    # rescale of a harmonic morphism, the gauge freedom to ignore here.
    defect = (rows.hv @ rows.harmonicity_defect[:, :, None])[:, :, 0] * rows.lam_inv_sq[:, None]
    defect_spread = float(np.max(defect.max(axis=0) - defect.min(axis=0)))
    evidence["harmonicity_defect_spread"] = defect_spread
    evidence["harmonicity_residual"] = _norm(defect, rows.hinv).tolist()

    if np.max(sd_res) > SD_GATE_TOL:
        return decided("nonstandard", "SD_GATE_TOL: twistorial_sd")
    if basic_res > SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: twistorial_basic")
    if defect_spread > SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: harmonicity_defect_spread")

    # V = lam^-1 V0 d_0; v1 = V(lam^-2)
    lam_inv, dlam_inv = rows.lam_inv_sq, rows.dlam_inv_sq[:, 0]
    vcoef = jets._pow(lam_inv, -0.5) * rows.V0
    v1 = vcoef * dlam_inv
    evidence["V_lam_inv_sq"] = v1.tolist()
    scale = 1.0 + float(np.max(np.abs(lam_inv)))

    if np.max(np.abs(v1)) < BRANCH_TOL * scale:
        return decided("type1", "BRANCH_TOL: V_lam_inv_sq")

    flip = 1.0
    if np.all(v1 < 0):
        flip = -1.0
    elif not np.all(v1 > 0):
        return decided("nonstandard", "sign: V_lam_inv_sq")

    # v2 = V(log v1) = V(v1) / v1
    dvcoef = -0.5 * vcoef * (dlam_inv / lam_inv + rows.dg[:, 0, 0, 0] / rows.gv[:, 0, 0])
    v2 = flip * vcoef * (dvcoef * dlam_inv + vcoef * rows.ddlam_inv_sq[:, 0, 0]) / v1
    evidence["V_log_V_lam_inv_sq"] = v2.tolist()
    v2_spread = float(v2.max() - v2.min())
    a_mean = float(np.mean(v2))
    evidence["a"] = a_mean

    if v2_spread < BRANCH_TOL * (1.0 + abs(a_mean)):
        if abs(a_mean) < BRANCH_TOL:
            return decided("type3", "BRANCH_TOL: a")
        c_rec = a_mean * lam_inv - flip * v1
        evidence["recovered_c"] = c_rec.tolist()
        c_val = float(np.mean(c_rec))
        if float(np.max(np.abs(c_rec - c_val))) < C_SPREAD_TOL * (1.0 + abs(c_val)):
            return decided("type4", "C_SPREAD_TOL: recovered_c", c_val)
        return decided("nonstandard", "C_SPREAD_TOL: recovered_c")

    # nonconstant V(log V(lam^-2)): integrable horizontal distribution branch
    integrability = float(np.max(np.abs(rows.integrability)))
    evidence["integrability"] = integrability
    dh_log = rows.dH_log_lambda
    homothety_spread = float(np.max(dh_log.max(axis=0) - dh_log.min(axis=0)))
    evidence["homothety_spread"] = homothety_spread
    if not integrability < SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: integrability")
    if not homothety_spread < SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: homothety_spread")
    return decided("type2_conformal", "SPREAD_GATE_TOL: integrability, homothety_spread")
