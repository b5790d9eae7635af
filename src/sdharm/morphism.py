"""Pointwise verification layer for a fibred 4-metric.

Everything is computed from the metric jets of the total space: dilation and
horizontal conformality, mean-curvature one-forms of the vertical and
horizontal distributions, the integrability two-form, the harmonicity
residual, the induced Lee forms, both twistoriality certificates, the
monopole compatibility residual, pulled-back connections, and the fibre-wise
family classifier.

All of it reads one :class:`PointEval` per point, which holds g, dg, ddg,
g^-1 and (Gamma, dGamma) and fills in the rest on first use.  The trace
forms are (value, derivative) arrays, by the product rule through einsum.
Inside ``SubmersionSetup.sharing()`` the checks at one sample point share one
``PointEval`` per distinct point; the classifier passes its fibre's own.

The fibre direction is always coordinate 0; the projection drops it.
"""

from __future__ import annotations

import contextlib
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


class SubmersionSetup:
    """A fibration metric with the verification hooks of the projection map."""

    def __init__(self, fm: FibrationMetric):
        self.fm = fm
        self._shared = None       # point -> PointEval while sharing() is open

    @property
    def orientation(self):
        return self.fm.total_chart.orientation

    def ctx(self, point):
        """The evaluation at ``point``; inside ``sharing()``, one per distinct point."""
        point = tuple(float(x) for x in point)
        if self._shared is None:
            return PointEval(self.fm, point)
        if point not in self._shared:
            self._shared[point] = PointEval(self.fm, point)
        return self._shared[point]

    @contextlib.contextmanager
    def sharing(self):
        """Reuse evaluations by point until the block ends (a nested block joins
        the outer one).  Opened around one sample point's checks, so that no
        evaluation outlives its sample point."""
        outer = self._shared
        self._shared = {} if outer is None else outer
        try:
            yield
        finally:
            self._shared = outer


def _d_einsum(spec, *pairs):
    """Product rule through einsum: the (value, derivative) pair of
    ``einsum(spec, *values)`` from (value, derivative) pairs whose derivative
    arrays carry one extra trailing axis, d/dx^e."""
    ins, out = spec.split("->")
    ins = ins.split(",")
    values = [v for v, _ in pairs]
    deriv = sum(np.einsum(",".join(s + "z" if i == k else s for i, s in enumerate(ins))
                          + f"->{out}z", *values[:k], d, *values[k + 1:])
                for k, (_, d) in enumerate(pairs))
    return np.einsum(spec, *values), deriv


class PointEval:
    """All data of one fibred metric at one point.

    The metric arrays, the inverse and (Gamma, dGamma) are built on
    construction; everything derived from them is computed on first use.
    Derivative arrays carry d/dx^e on their last axis.

    Vertical distribution: span of d/dx^0, unit vertical V0 d_0 with
    V0 = g_00^(-1/2).  P = 1 + e_0 (x) w with w_b = -g_0b/g_00 is the
    horizontal projector P(X) = X - d_0 g(X, d_0)/g_00; its columns
    W_b = d_b + w_b d_0 lift the base coordinate frame (b = 1..3), W_0 = 0.
    """

    def __init__(self, fm, point):
        fm.total_chart.require_inside(point)
        self.fm = fm
        self.point = tuple(float(x) for x in point)
        self.base_point = self.point[1:]
        self.gv, self.dg, self.ddg = geo.metric_arrays(fm.g.jets(self.point), self.point)
        self.ginv, self.dginv = geo.jet_matrix_inverse(self.gv, self.dg)
        self.G, self.dG = geo.christoffel_jets(self.ginv, self.dginv, self.dg, self.ddg)
        self.hv = fm.h.values(self.base_point)
        self.hinv = np.linalg.inv(self.hv)
        L = fm.dilation_sq_inv.jet(self.point)
        self.lam_inv_sq, self.dlam_inv_sq, self.ddlam_inv_sq = L.value, L.grad, L.hess
        g00, dg00 = self.gv[0, 0], self.dg[0, 0]
        self.V0 = g00 ** -0.5
        # u = 1/g_00 with its first and second derivatives, and d_e w_b
        u = 1.0 / g00
        self.u = (u, -dg00 * u * u)
        self.ddu = -self.ddg[0, 0] * u * u + 2.0 * u ** 3 * np.outer(dg00, dg00)
        self.dw = -self.dg[0] * u - np.outer(self.gv[0], self.u[1])
        self.P = np.eye(4)
        self.P[0] -= self.gv[0] * u
        self.dP = np.zeros((4, 4, 4))
        self.dP[0] = self.dw

    # -- mean-curvature one-forms ----------------------------------------------

    @cached_property
    def vertical_trace(self):
        """trace Bv = P(nabla_U U) as (value, derivative)."""
        u, du = self.u
        e0 = np.eye(4)[0]
        # nabla_U U = V0^2 Gamma^a_00 + delta^a_0 V0 d_0 V0, and V0^2 = u
        accel = (self.G[:, 0, 0] * u + 0.5 * du[0] * e0,
                 self.dG[:, 0, 0] * u + np.outer(self.G[:, 0, 0], du)
                 + 0.5 * np.outer(e0, self.ddu[0]))
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
        g0, dg0 = self.gv[0], self.dg[0]
        # ddw[b,e,f] = d_f d_e w_b, from w_b = -g_0b u
        ddw = (-self.ddg[0] * u - np.einsum("be,f->bef", dg0, du)
               - np.einsum("bf,e->bef", dg0, du) - np.einsum("b,ef->bef", g0, self.ddu))
        P = (self.P, self.dP)
        # (nabla_{W_b} W_c)^d = Gamma^d_ef W_b^e W_c^f + delta^d_0 W_b(w_c)
        nab, dnab = _d_einsum("def,eb,fc->dbc", (self.G, self.dG), P, P)
        lift, dlift = _d_einsum("eb,ce->bc", P, (self.dw, ddw))
        nab[0] += lift
        dnab[0] += dlift
        GH, dGH = self.ginv.copy(), self.dginv.copy()
        GH[0, 0] -= u
        dGH[0, 0] -= du
        s = _d_einsum("bc,d,dbc->", (GH, dGH), (g0, dg0), (nab, dnab))
        # t = U g(U, .) of the sum = d_0 s/g_00; lowered: g_a0 s/g_00
        return _d_einsum("a,,->a", (g0, dg0), s, self.u)

    @cached_property
    def grad_log_lambda(self):
        """grad log lam = -1/2 g^-1 d log(lam^-2), as (value, derivative)."""
        L, dL, ddL = self.lam_inv_sq, self.dlam_inv_sq, self.ddlam_inv_sq
        dlog = (-0.5 * dL / L, -0.5 * (ddL / L - np.outer(dL, dL) / (L * L)))
        return _d_einsum("ab,b->a", (self.ginv, self.dginv), dlog)

    # -- integrability, frames, scale --------------------------------------------

    @cached_property
    def integrability(self):
        """I(W_a, W_b) = -g(U, [W_a, W_b]) as a 4x4 antisymmetric array; the
        bracket of two lifts is W_a(w_b) - W_b(w_a) along d_0."""
        lift = np.einsum("ea,be->ab", self.P, self.dw)
        return -self.V0 * self.gv[0, 0] * (lift - lift.T)

    def dH_log_lambda_values(self):
        """Horizontal part of d log lam evaluated against the lifts W_1..W_3."""
        return (-0.5 * self.dlam_inv_sq / self.lam_inv_sq) @ self.P[:, 1:]

    @cached_property
    def horizontal_frame(self):
        """g-orthonormal horizontal frame X1, X2, X3 as rows, oriented so
        (U, X1, X2, X3) is positive for the chart orientation."""
        frame = []
        for i in (1, 2, 3):
            v = self.P[:, i].copy()
            for f in frame:
                v = v - (v @ self.gv @ f) * f
            frame.append(v / np.sqrt(v @ self.gv @ v))
        full = np.column_stack([self.V0 * np.eye(4)[0]] + frame)
        if np.linalg.det(full) * self.fm.total_chart.orientation < 0:
            frame[2] = -frame[2]
        return np.array(frame)

    @cached_property
    def riemann_norm(self):
        """Frame norm of the Riemann tensor, the scale residuals are normalized by."""
        _, R_low, _, _ = geo.curvature_from_gamma(self.gv, self.ginv, self.G, self.dG,
                                                  self.point)
        return geo.tensor_norm(R_low, self.gv)


# ---------------------------------------------------------------------------
# public operations: thin (setup, point) wrappers over PointEval helpers
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
    return _dilation(setup.ctx(point), tol)


def _dilation(ctx, tol=H_CONFORMAL_TOL):
    block = ctx.ginv[1:, 1:]
    lam_sq = float(np.einsum("ij,ij->", block, ctx.hv) / 3.0)
    dev = block - lam_sq * ctx.hinv
    anisotropy = float(np.sqrt(max(0.0, np.einsum("ij,kl,ik,jl->", dev, dev,
                                                  ctx.hv, ctx.hv)))) / max(lam_sq, 1e-30)
    mismatch = abs(ctx.lam_inv_sq * lam_sq - 1.0)
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


def _lifted_dtheta(ctx):
    """d theta evaluated on pairs of lifts W_1..W_3, a 3x3 array."""
    dth = geo.form_values(geo.ext_d(ctx.fm.theta.jets(ctx.point), 4), 4, 2)
    lifts = ctx.P[:, 1:]
    return lifts.T @ dth @ lifts


def integrability_consistency(setup, point):
    """|| I - lam * dtheta restricted to the lifts ||, a structural cross-check."""
    ctx = setup.ctx(point)
    lam = ctx.lam_inv_sq ** -0.5
    return float(np.max(np.abs(ctx.integrability[1:, 1:] - lam * _lifted_dtheta(ctx))))


def fundamental_eq_residual(setup, point):
    """Harmonicity residual || dphi(trace Bv + grad log lam) ||_h.

    Zero together with horizontal conformality certifies that the projection
    is a harmonic morphism onto (N, h).
    """
    ctx = setup.ctx(point)
    _dilation(ctx)      # raises if the conformality certificate fails
    drop = _harmonicity_defect(ctx)
    return float(np.sqrt(max(0.0, drop @ ctx.hv @ drop)))


def _harmonicity_defect(ctx):
    """dphi(trace Bv + grad log lam) in base coordinate components."""
    return (ctx.vertical_trace[0] + ctx.grad_log_lambda[0])[1:]


def induced_lee_form(setup, point):
    """Lee form (trace Bv)-flat - *_H I of the induced partial connection,
    float coordinate components (a one-form annihilating the vertical)."""
    ctx = setup.ctx(point)
    return ctx.vertical_trace_flat[0] - _star_H_I(ctx)


def _star_H_I(ctx):
    """*_{H,g} of the integrability form, as coordinate one-form components."""
    frame = ctx.horizontal_frame
    Itilde = frame @ ctx.integrability @ frame.T
    star = 0.5 * np.einsum("kl,klm->m", Itilde, geo.levi_civita_symbol(3))
    return star @ frame @ ctx.gv


def projected_lee_form(setup, point):
    """The Lee form in the gauge of the pulled-back base metric, paired with
    the horizontal lifts: (base components b_1..b_3, vertical contraction)."""
    return _projected_lee(setup.ctx(point))


def _projected_lee(ctx):
    beta = ctx.vertical_trace_flat[0] - _star_H_I(ctx)
    return beta @ ctx.P[:, 1:] - ctx.dH_log_lambda_values(), float(abs(beta[0] * ctx.V0))


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
    return _basic_residual([setup.ctx(s) for s in _check_one_fibre(samples)])


def _basic_residual(ctxs):
    lee = [_projected_lee(c) for c in ctxs]
    comps = np.array([b for b, _ in lee])
    spread = float(np.max(comps.max(axis=0) - comps.min(axis=0)))
    return spread + float(max(v for _, v in lee))


def twistorial_sd_residual(setup, point):
    """Norm of the anti-self-dual part of d(trace(Bv)-flat + 1/3 trace(Bh)-flat)."""
    return _sd_residual(setup.ctx(point))


def _sd_residual(ctx):
    dS = ctx.vertical_trace_flat[1] + (1.0 / 3.0) * ctx.horizontal_trace_flat[1]
    # dS[b, a] = d_a sigma_b, so (d sigma)_ab = dS[b, a] - dS[a, b]
    _, _, _, minus = geo.split_two_form(dS.T - dS, ctx.gv, ctx.fm.total_chart.orientation,
                                        point=ctx.point)
    return minus


def monopole_eq_residual(setup, alpha, point):
    """|| (d^H - phi* alpha)(lam^-2) - *_H dtheta ||_h at the point.

    ``alpha`` is a one-form on the base (None means zero); vanishing residual
    certifies that alpha is the Lee form making the projection twistorial.
    """
    ctx = setup.ctx(point)
    lhs = ctx.dlam_inv_sq @ ctx.P[:, 1:]
    if alpha is not None:
        lhs = lhs - ctx.lam_inv_sq * alpha.values(ctx.base_point)
    rhs = geo.hodge_star(_lifted_dtheta(ctx), ctx.hv, 2, ctx.fm.total_chart.orientation)
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
    _, _, _, minus = geo.split_two_form(dA, ctx.gv, setup.orientation, point=ctx.point)
    return minus


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

@dataclass
class Classification:
    label: str
    recovered_c: float | None
    evidence: dict = field(default_factory=dict)


def fibre_samples_about(fm, point, count=3, spacing=None):
    """Points on the fibre through ``point``, spaced inside the chart box."""
    lo, hi = fm.total_chart.lo[0], fm.total_chart.hi[0]
    if spacing is None:
        spacing = 0.15 * (hi - lo) / max(count - 1, 1)
    t0 = point[0]
    offsets = (np.arange(count) - (count - 1) / 2.0) * spacing
    ts = np.clip(t0 + offsets, lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))
    return [(float(t),) + tuple(point[1:]) for t in sorted(set(ts))]


def classify_type(setup, samples, pass_tol=1e-8, branch_tol=1e-6):
    """Decide which family the fibration belongs to, from one fibre's samples.

    Gates: horizontal conformality, the self-duality certificate of the mean
    curvature form, and fibre-constancy of the harmonicity defect (harmonic
    up to a conformal change with basic factor).  Branches on V(lam^-2) and
    V(log V(lam^-2)) along the fibre; returns the label with all intermediate
    scalars as evidence.
    """
    samples = _check_one_fibre(samples)
    if len(samples) < 3:
        raise ValueError("classification needs at least three fibre samples")

    evidence = {"samples": [list(s) for s in samples]}
    ctxs = [setup.ctx(s) for s in samples]

    try:
        for c in ctxs:
            _dilation(c)
    except NotHorizontallyConformalError as exc:
        evidence["anisotropy"] = exc.anisotropy
        return Classification("nonstandard", None, evidence)

    sd_res = [_sd_residual(c) for c in ctxs]
    basic_res = _basic_residual(ctxs)
    evidence["twistorial_sd"] = sd_res
    evidence["twistorial_basic"] = basic_res

    # The defect lowered by h and scaled by lam^-2: in that weighting it is
    # constant along fibres exactly when the metric is a basic conformal
    # rescale of a harmonic morphism, the gauge freedom to ignore here.
    defect = np.array([(c.hv @ _harmonicity_defect(c)) * c.lam_inv_sq for c in ctxs])
    defect_spread = float(np.max(defect.max(axis=0) - defect.min(axis=0))) \
        if len(defect) else 0.0
    evidence["harmonicity_defect_spread"] = defect_spread
    evidence["harmonicity_residual"] = [float(np.sqrt(max(0.0, d @ c.hinv @ d)))
                                        for d, c in zip(defect, ctxs)]

    gate_tol = max(pass_tol, 10 * pass_tol)
    if (max(sd_res) > 1e-7 or basic_res > gate_tol or defect_spread > gate_tol):
        return Classification("nonstandard", None, evidence)

    # V = lam^-1 V0 d_0; v1 = V(lam^-2)
    lam_inv = np.array([c.lam_inv_sq for c in ctxs])
    dlam_inv = np.array([c.dlam_inv_sq[0] for c in ctxs])
    vcoef = np.array([c.lam_inv_sq ** -0.5 * c.V0 for c in ctxs])
    v1 = vcoef * dlam_inv
    evidence["V_lam_inv_sq"] = list(map(float, v1))
    scale = 1.0 + float(np.max(np.abs(lam_inv)))

    if np.max(np.abs(v1)) < branch_tol * scale:
        return Classification("type1", None, evidence)

    flip = 1.0
    if np.all(v1 < 0):
        flip = -1.0
    elif not np.all(v1 > 0):
        return Classification("nonstandard", None, evidence)

    # v2 = V(log v1) = V(v1) / v1
    dvcoef = -0.5 * vcoef * (dlam_inv / lam_inv
                             + np.array([c.dg[0, 0, 0] / c.gv[0, 0] for c in ctxs]))
    ddlam_inv = np.array([c.ddlam_inv_sq[0, 0] for c in ctxs])
    v2 = flip * vcoef * (dvcoef * dlam_inv + vcoef * ddlam_inv) / v1
    evidence["V_log_V_lam_inv_sq"] = list(map(float, v2))
    v2_spread = float(v2.max() - v2.min())
    a_mean = float(np.mean(v2))
    evidence["a"] = a_mean

    if v2_spread < branch_tol * (1.0 + abs(a_mean)):
        if abs(a_mean) < branch_tol:
            return Classification("type3", None, evidence)
        c_rec = a_mean * lam_inv - flip * v1
        evidence["recovered_c"] = list(map(float, c_rec))
        c_val = float(np.mean(c_rec))
        if float(np.max(np.abs(c_rec - c_val))) < 1e-5 * (1.0 + abs(c_val)):
            return Classification("type4", c_val, evidence)
        return Classification("nonstandard", None, evidence)

    # nonconstant V(log V(lam^-2)): integrable horizontal distribution branch
    integrability = max(float(np.max(np.abs(c.integrability))) for c in ctxs)
    evidence["integrability"] = integrability
    dh_log = np.array([c.dH_log_lambda_values() for c in ctxs])
    homothety_spread = float(np.max(dh_log.max(axis=0) - dh_log.min(axis=0)))
    evidence["homothety_spread"] = homothety_spread
    if integrability < gate_tol and homothety_spread < gate_tol:
        return Classification("type2_conformal", None, evidence)
    return Classification("nonstandard", None, evidence)
