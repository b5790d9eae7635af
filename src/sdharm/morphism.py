"""Pointwise verification layer for a fibred 4-metric.

Everything is computed from the metric jets of the total space: dilation and
horizontal conformality, mean-curvature one-forms of the vertical and
horizontal distributions, the integrability two-form, the harmonicity
residual, the induced Lee forms, both twistoriality certificates, the
monopole compatibility residual, pulled-back connections, and the fibre-wise
family classifier.

All of it reads one row of a :class:`PointEval`, which holds g, dg, ddg,
g^-1 and (Gamma, dGamma) at a batch of points, each array with a leading
point axis, and fills in the rest on first use for the whole batch.  The
trace forms are (value, derivative) arrays, by the product rule through
``...``-prefixed einsums (vector forward mode over the point axis, Griewank &
Walther, *Evaluating Derivatives*, ch. 3).  ``SubmersionSetup.hold`` evaluates
a job's fibre samples in one batch; ``SubmersionSetup.ctx`` reads a point's
row, or evaluates a point outside the batch alone.  The checks at a point, the
samples of ``twistorial_basic`` and the classifier's gates read the fibre
through it, so each quantity has one (setup, point) function.

The fibre direction is always coordinate 0; the projection drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import geometry as geo
from . import jets
from .constructions import FibrationMetric
from .errors import NotHorizontallyConformalError

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

    ``hold(points)`` evaluates a job's sample points as one ``PointEval`` and
    keeps it until the next ``hold``; ``ctx`` at one of them reads its row.  A
    point outside the held evaluations is evaluated alone, as a batch of one,
    and kept with the other points of its fibre until a point on another fibre
    is asked for.  h and h^-1 are read once per base point while held."""

    def __init__(self, fm: FibrationMetric):
        self.fm = fm
        self._fibre = None        # the fibre of the lone evaluations, None for a batch
        self._evals = {}          # point -> its row of a PointEval
        self._h = {}              # base point -> (h, h^-1)

    def hold(self, points):
        """Evaluate every point in one batch, the rows kept in place of what was held."""
        points = list(dict.fromkeys(tuple(float(x) for x in p) for p in points))
        self._fibre, self._evals, self._h = None, {}, {}
        batch = PointEval(self, points)
        self._evals = {p: batch.row(i) for i, p in enumerate(points)}

    def ctx(self, point):
        """The evaluation at ``point``: its row of the held batch, or of its own
        batch of one, shared while its fibre is the current one."""
        point = tuple(float(x) for x in point)
        if point not in self._evals:
            if point[1:] != self._fibre:
                self._fibre, self._evals, self._h = point[1:], {}, {}
            self._evals[point] = PointEval(self, [point]).row(0)
        return self._evals[point]

    def base_values(self, base_point):
        """h and h^-1 at a base point, evaluated once while it is held."""
        if base_point not in self._h:
            hv = self.fm.h.values(base_point)
            self._h[base_point] = hv, np.linalg.inv(hv)
        return self._h[base_point]


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


def _take(x, i):
    """Row ``i`` of a batch attribute: of an array (a float for one scalar per
    point), of each array of a (value, derivative) pair; anything else is
    shared by the rows."""
    if isinstance(x, np.ndarray):
        return x[i] if x.ndim > 1 else float(x[i])
    if isinstance(x, tuple):
        return tuple(_take(v, i) for v in x)
    return x


class _Row:
    """One point of a ``PointEval``: each attribute is the batch's at that
    point, computed for the whole batch on first use."""

    __slots__ = ("batch", "index", "point", "base_point")

    def __init__(self, batch, index):
        self.batch, self.index = batch, index
        self.point = batch.points[index]
        self.base_point = self.point[1:]

    def __getattr__(self, name):
        return _take(getattr(self.batch, name), self.index)


class PointEval:
    """All data of one fibred metric at a batch of points.

    Every array has a leading point axis.  The metric arrays, the inverse and
    (Gamma, dGamma) come from one ``geo.metric_point`` over the batch, and
    lam^-2 from one batch jet; everything derived from them is computed on
    first use, for every point at once.  Derivative arrays carry d/dx^e on
    their last axis.  ``row(i)`` is the view the residuals read.  A batch of
    one point is evaluated with that point's own jets, so that its errors name
    it as the evaluation at that point alone does.

    Vertical distribution: span of d/dx^0, unit vertical V0 d_0 with
    V0 = g_00^(-1/2).  P = 1 + e_0 (x) w with w_b = -g_0b/g_00 is the
    horizontal projector P(X) = X - d_0 g(X, d_0)/g_00; its columns
    W_b = d_b + w_b d_0 lift the base coordinate frame (b = 1..3), W_0 = 0.
    """

    def __init__(self, setup, points):
        self.fm = fm = setup.fm
        self.points = [tuple(float(x) for x in p) for p in points]
        self._one = len(self.points) == 1
        self._at = self.points[0] if self._one else fm.total_chart.point_array(self.points)
        fm.total_chart.require_inside(self._at)
        metric = geo.metric_point(fm.g, self._at)
        self.metric = geo.MetricPoint(*(x[None] for x in metric)) if self._one else metric
        self.gv, self.dg, self.ddg, self.ginv, self.dginv, self.G, self.dG = self.metric
        h = [setup.base_values(p[1:]) for p in self.points]
        self.hv, self.hinv = (np.array(x) for x in zip(*h))
        L = fm.dilation_sq_inv.jet(self._at)
        self.lam_inv_sq, self.dlam_inv_sq, self.ddlam_inv_sq = (
            self._lead(x) for x in (L.value, L.grad, L.hess))
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

    def _lead(self, x):
        """A jet-derived array with the point axis in front: a batch jet's
        trailing axis moved there, or a new axis for one point."""
        return np.asarray(x)[None] if self._one else np.moveaxis(x, -1, 0)

    def row(self, index):
        return _Row(self, index)

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
        P = (self.P, self.dP)
        # (nabla_{W_b} W_c)^d = Gamma^d_ef W_b^e W_c^f + delta^d_0 W_b(w_c)
        nab, dnab = _d_einsum("def,eb,fc->dbc", (self.G, self.dG), P, P)
        lift, dlift = _d_einsum("eb,ce->bc", P, (self.dw, ddw))
        nab[:, 0] += lift
        dnab[:, 0] += dlift
        GH, dGH = self.ginv.copy(), self.dginv.copy()
        GH[:, 0, 0] -= u
        dGH[:, 0, 0] -= du
        s = _d_einsum("bc,d,dbc->", (GH, dGH), (g0, dg0), (nab, dnab))
        # t = U g(U, .) of the sum = d_0 s/g_00; lowered: g_a0 s/g_00
        return _d_einsum("a,,->a", (g0, dg0), s, self.u)

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
        dev2 = np.einsum("...ij,...kl,...ik,...jl->...", dev, dev, self.hv, self.hv)
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
        dth = self._lead(geo.form_values(geo.ext_d(self.fm.theta.jets(self._at), 4), 4, 2))
        lifts = self.P[:, :, 1:]
        return lifts.swapaxes(-1, -2) @ dth @ lifts

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
    lam_sq: float
    anisotropy: float
    stored_mismatch: float


def dilation(setup, point, tol=H_CONFORMAL_TOL):
    """Conformal factor of the projection on the horizontal space.

    Computed as the unique lam^2 with (g^-1)_base-block = lam^2 h^-1; the
    anisotropy norm certifies horizontal conformality and must stay below
    ``tol``.  Also cross-checks the stored closed form of lam^-2.
    """
    ctx = setup.ctx(point)
    lam_sq, anisotropy, mismatch = ctx.conformality
    if anisotropy > tol:
        raise NotHorizontallyConformalError(
            "projection is not horizontally conformal", point=ctx.point,
            anisotropy=anisotropy)
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
    ctx = setup.ctx(point)
    drop = ctx.harmonicity_defect
    return float(np.sqrt(max(0.0, drop @ ctx.hv @ drop)))


def induced_lee_form(setup, point):
    """Lee form (trace Bv)-flat - *_H I of the induced partial connection,
    float coordinate components (a one-form annihilating the vertical)."""
    return setup.ctx(point).induced_lee


def projected_lee_form(setup, point):
    """The Lee form in the gauge of the pulled-back base metric, paired with
    the horizontal lifts: (base components b_1..b_3, vertical contraction)."""
    return setup.ctx(point).projected_lee


def _check_one_fibre(samples):
    samples = [tuple(float(x) for x in s) for s in samples]
    if len(samples) < 2:
        raise ValueError("need at least two points on the fibre")
    base = samples[0][1:]
    for s in samples[1:]:
        if max(abs(a - b) for a, b in zip(s[1:], base)) > 1e-12:
            raise ValueError("fibre samples must share the base point")
    return samples


def twistorial_basic_residual(setup, samples):
    """Fibre-independence certificate of the induced Lee form.

    Evaluates the projected Lee form at each sample of one fibre and returns
    the maximal pairwise component spread plus the maximal vertical
    contraction; zero means the form is basic at sample resolution.
    """
    lee = [projected_lee_form(setup, s) for s in _check_one_fibre(samples)]
    comps = np.array([b for b, _ in lee])
    spread = float(np.max(comps.max(axis=0) - comps.min(axis=0)))
    return spread + float(max(v for _, v in lee))


def twistorial_sd_residual(setup, point):
    """Norm of the anti-self-dual part of d(trace(Bv)-flat + 1/3 trace(Bh)-flat)."""
    return setup.ctx(point).twistorial_sd


def monopole_eq_residual(setup, alpha, point):
    """|| (d^H - phi* alpha)(lam^-2) - *_H dtheta ||_h at the point.

    ``alpha`` is a one-form on the base (None means zero); vanishing residual
    certifies that alpha is the Lee form making the projection twistorial.
    """
    ctx = setup.ctx(point)
    lhs = ctx.dlam_inv_sq @ ctx.P[:, 1:]
    if alpha is not None:
        lhs = lhs - ctx.lam_inv_sq * alpha.values(ctx.base_point)
    rhs = geo.hodge_star(ctx.lifted_dtheta, ctx.hv, 2, ctx.fm.total_chart.orientation)
    diff = lhs - rhs
    return float(np.sqrt(max(0.0, diff @ ctx.hinv @ diff)))


def pullback_sd_residual(setup, u, A, point):
    """Anti-self-dual norm of the curvature of the pulled-back connection.

    The pair (u, A) on the base pulls back to the connection form
    -u (lam^2 theta) + phi*(A); a monopole pair must pull back with self-dual
    curvature.
    """
    ctx = setup.ctx(point)
    cj = jets.seed_all(point)
    L = ctx.fm.dilation_sq_inv.fn(cj)
    uv = u.fn(cj[1:])
    tilde = [-1.0 * uv * (th / L) for th in ctx.fm.theta.fn(cj)]
    if A is not None:
        tilde[1:] = [t + a for t, a in zip(tilde[1:], A.fn(cj[1:]))]
    tilde = [t if isinstance(t, jets.Jet) else jets.constant(float(t), 4) for t in tilde]
    dA = geo.form_values(geo.ext_d(tilde, 4), 4, 2)
    _, _, _, minus = geo.split_two_form(dA, ctx.gv, ctx.fm.total_chart.orientation,
                                        point=ctx.point)
    return minus


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

@dataclass
class Classification:
    label: str
    recovered_c: float | None
    evidence: dict = field(default_factory=dict)


def fibre_samples_about(fm, point, count=3):
    """Points on the fibre through ``point``, spaced inside the chart box."""
    lo, hi = fm.total_chart.lo[0], fm.total_chart.hi[0]
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
    V(lam^-2)) and the evidence it tested.
    """
    samples = _check_one_fibre(samples)
    if len(samples) < 3:
        raise ValueError("classification needs at least three fibre samples")

    evidence = {"samples": [list(s) for s in samples]}
    ctxs = [setup.ctx(s) for s in samples]

    def decided(label, gate, c=None):
        evidence["decided_by"] = gate
        return Classification(label, c, evidence)

    try:
        for s in samples:
            dilation(setup, s)
    except NotHorizontallyConformalError as exc:
        evidence["anisotropy"] = exc.anisotropy
        return decided("nonstandard", "H_CONFORMAL_TOL: anisotropy")

    sd_res = [twistorial_sd_residual(setup, s) for s in samples]
    basic_res = twistorial_basic_residual(setup, samples)
    evidence["twistorial_sd"] = sd_res
    evidence["twistorial_basic"] = basic_res

    # The defect lowered by h and scaled by lam^-2: in that weighting it is
    # constant along fibres exactly when the metric is a basic conformal
    # rescale of a harmonic morphism, the gauge freedom to ignore here.
    defect = np.array([(c.hv @ c.harmonicity_defect) * c.lam_inv_sq for c in ctxs])
    defect_spread = float(np.max(defect.max(axis=0) - defect.min(axis=0)))
    evidence["harmonicity_defect_spread"] = defect_spread
    evidence["harmonicity_residual"] = [float(np.sqrt(max(0.0, d @ c.hinv @ d)))
                                        for d, c in zip(defect, ctxs)]

    if max(sd_res) > SD_GATE_TOL:
        return decided("nonstandard", "SD_GATE_TOL: twistorial_sd")
    if basic_res > SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: twistorial_basic")
    if defect_spread > SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: harmonicity_defect_spread")

    # V = lam^-1 V0 d_0; v1 = V(lam^-2)
    lam_inv = np.array([c.lam_inv_sq for c in ctxs])
    dlam_inv = np.array([c.dlam_inv_sq[0] for c in ctxs])
    vcoef = np.array([c.lam_inv_sq ** -0.5 * c.V0 for c in ctxs])
    v1 = vcoef * dlam_inv
    evidence["V_lam_inv_sq"] = list(map(float, v1))
    scale = 1.0 + float(np.max(np.abs(lam_inv)))

    if np.max(np.abs(v1)) < BRANCH_TOL * scale:
        return decided("type1", "BRANCH_TOL: V_lam_inv_sq")

    flip = 1.0
    if np.all(v1 < 0):
        flip = -1.0
    elif not np.all(v1 > 0):
        return decided("nonstandard", "sign: V_lam_inv_sq")

    # v2 = V(log v1) = V(v1) / v1
    dvcoef = -0.5 * vcoef * (dlam_inv / lam_inv
                             + np.array([c.dg[0, 0, 0] / c.gv[0, 0] for c in ctxs]))
    ddlam_inv = np.array([c.ddlam_inv_sq[0, 0] for c in ctxs])
    v2 = flip * vcoef * (dvcoef * dlam_inv + vcoef * ddlam_inv) / v1
    evidence["V_log_V_lam_inv_sq"] = list(map(float, v2))
    v2_spread = float(v2.max() - v2.min())
    a_mean = float(np.mean(v2))
    evidence["a"] = a_mean

    if v2_spread < BRANCH_TOL * (1.0 + abs(a_mean)):
        if abs(a_mean) < BRANCH_TOL:
            return decided("type3", "BRANCH_TOL: a")
        c_rec = a_mean * lam_inv - flip * v1
        evidence["recovered_c"] = list(map(float, c_rec))
        c_val = float(np.mean(c_rec))
        if float(np.max(np.abs(c_rec - c_val))) < C_SPREAD_TOL * (1.0 + abs(c_val)):
            return decided("type4", "C_SPREAD_TOL: recovered_c", c_val)
        return decided("nonstandard", "C_SPREAD_TOL: recovered_c")

    # nonconstant V(log V(lam^-2)): integrable horizontal distribution branch
    integrability = max(float(np.max(np.abs(c.integrability))) for c in ctxs)
    evidence["integrability"] = integrability
    dh_log = np.array([c.dH_log_lambda for c in ctxs])
    homothety_spread = float(np.max(dh_log.max(axis=0) - dh_log.min(axis=0)))
    evidence["homothety_spread"] = homothety_spread
    if not integrability < SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: integrability")
    if not homothety_spread < SPREAD_GATE_TOL:
        return decided("nonstandard", "SPREAD_GATE_TOL: homothety_spread")
    return decided("type2_conformal", "SPREAD_GATE_TOL: integrability, homothety_spread")
