"""Pointwise verification layer for a fibred 4-metric.

Everything is computed from the metric jets of the total space: dilation and
horizontal conformality, mean-curvature one-forms of the vertical and
horizontal distributions, the integrability two-form, the harmonicity
residual, the induced Lee forms, both twistoriality certificates, the
monopole compatibility residual, pulled-back connections, and the fibre-wise
family classifier.

The fibre direction is always coordinate 0; the projection drops it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import geometry as geo
from . import jets
from .constructions import FibrationMetric
from .errors import NotHorizontallyConformalError

__all__ = [
    "SubmersionSetup",
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

    @property
    def orientation(self):
        return self.fm.total_chart.orientation

    def ctx(self, point):
        return _Ctx(self.fm, point)


def _order1_jets(values, derivs):
    """Nested lists of order-1 jets: values from ``values``, gradients from the
    trailing axis of ``derivs``."""
    zero = np.zeros((derivs.shape[-1],) * 2)
    if values.ndim == 0:
        return jets.Jet(values, derivs, zero, order=1)
    return [_order1_jets(v, d) for v, d in zip(values, derivs)]


class _Ctx:
    """All jet-level data of one metric at one point.

    Vertical distribution: span of d/dx^0.  Unit vertical (positive on the
    fibre orientation) V0 * d_0 with V0 = g_00^(-1/2); horizontal projector
    P(X) = X - d_0 g(X, d_0)/g_00.  Horizontal lifts of the base coordinate
    frame are W_i = d_i + w_i d_0 with w_i = -g_0i/g_00.
    """

    def __init__(self, fm, point):
        fm.total_chart.require_inside(point)
        self.fm = fm
        self.point = tuple(float(x) for x in point)
        self.base_point = tuple(point[1:])
        self.gj = fm.g.jets(point)
        self.gv, dg, ddg = geo.metric_arrays(self.gj, point)
        self.ginv, dginv = geo.jet_matrix_inverse(self.gv, dg)
        G, dG = geo.christoffel_jets(self.ginv, dginv, dg, ddg)
        # order-1 jet views for the trace forms, whose d sigma needs one derivative
        self.ginv_j = _order1_jets(self.ginv, dginv)
        self.gamma = _order1_jets(G, dG)
        self.hv = fm.h.values(self.base_point)
        self.hinv = np.linalg.inv(self.hv)
        self.lam_j = fm.dilation_sq_inv.jet(point)       # lam^-2 as a jet
        self.V0 = jets.powc(self.gj[0][0], -0.5)          # unit vertical coefficient
        self.w = [jets.constant(0.0, 4) if i == 0 else
                  -1.0 * self.gj[0][i] / self.gj[0][0] for i in range(4)]
        self.w[0] = -1.0 * self.gj[0][0] / self.gj[0][0]  # = -1: P(d_0) = 0

    # -- frames ---------------------------------------------------------------

    def lift_values(self, i):
        """Horizontal lift of the i-th base coordinate vector (i = 1..3)."""
        v = np.zeros(4)
        v[i] = 1.0
        v[0] = self.w[i].value
        return v

    def vertical_unit_values(self):
        v = np.zeros(4)
        v[0] = self.V0.value
        return v

    def horizontal_frame(self):
        """g-orthonormal horizontal frame, oriented so (U, X1, X2, X3) is
        positive for the chart orientation."""
        raw = [self.lift_values(i) for i in (1, 2, 3)]
        frame = []
        for v in raw:
            u = v.copy()
            for f in frame:
                u = u - (u @ self.gv @ f) * f
            u = u / np.sqrt(u @ self.gv @ u)
            frame.append(u)
        full = np.column_stack([self.vertical_unit_values()] + frame)
        if np.linalg.det(full) * self.fm.total_chart.orientation < 0:
            frame[2] = -frame[2]
        return frame

    # -- mean-curvature one-forms ----------------------------------------------

    def vertical_trace_form_jets(self):
        """(trace of the vertical second fundamental form)-flat, order-1 jets."""
        V0 = self.V0
        accel = [None] * 4
        dV0 = V0.deriv(0)
        V0sq = (V0 * V0)
        for a in range(4):
            t = self.gamma[a][0][0] * V0sq
            if a == 0:
                t = t + V0 * dV0
            accel[a] = t
        # horizontal projection
        g0n = self.gj[0][0] * accel[0]
        for b in range(1, 4):
            g0n = g0n + self.gj[0][b] * accel[b]
        corr = g0n / self.gj[0][0]
        tv = [accel[a] - corr if a == 0 else accel[a] for a in range(4)]
        flat = [sum((self.gj[a][b] * tv[b] for b in range(1, 4)),
                    self.gj[a][0] * tv[0]) for a in range(4)]
        return tv, flat

    def horizontal_trace_form_jets(self):
        """(trace of the horizontal second fundamental form)-flat, order-1 jets."""
        # lift components: W_b^e = delta^e_b + delta^e_0 w_b
        w = self.w
        dw = [[w[b].deriv(e) for e in range(4)] for b in range(4)]
        # co-metric of the horizontal distribution: g^ab minus the unit
        # vertical square, which only touches the (0,0) slot
        GH = [row[:] for row in self.ginv_j]
        GH[0][0] = self.ginv_j[0][0] - self.gj[0][0].reciprocal()
        s = jets.constant(0.0, 4)
        for b in range(4):
            for c in range(4):
                # d-component of nabla_{W_b} W_c, contracted against the
                # vertical co-vector g_{d0} V0; only d = 0 carries the
                # derivative part of the lift
                deriv_part = dw[c][b] + w[b] * dw[c][0]
                gam = (self.gamma[0][b][c] + w[c] * self.gamma[0][b][0]
                       + w[b] * self.gamma[0][0][c] + w[b] * w[c] * self.gamma[0][0][0])
                contrib0 = (deriv_part + gam) * self.gj[0][0]
                acc = contrib0
                for dd in range(1, 4):
                    gamd = (self.gamma[dd][b][c] + w[c] * self.gamma[dd][b][0]
                            + w[b] * self.gamma[dd][0][c] + w[b] * w[c] * self.gamma[dd][0][0])
                    acc = acc + gamd * self.gj[dd][0]
                s = s + GH[b][c] * acc
        # t^a = V-hat^a (V-hat_d t_pre^d) = delta^a_0 s / g_00
        t0 = s / self.gj[0][0]
        flat = [self.gj[a][0] * t0 for a in range(4)]
        tvec = [t0 if a == 0 else jets.constant(0.0, 4) for a in range(4)]
        return tvec, flat

    def integrability_values(self):
        """I(W_a, W_b) = -g(U, [W_a, W_b]) as a 4x4 antisymmetric float array."""
        w = self.w
        wv = np.array([x.value for x in w])
        dwv = np.array([x.grad for x in w])         # dwv[b, e] = d_e w_b
        I = np.zeros((4, 4))
        # bracket of lifts only has a d_0 component: [W_a, W_b]^0
        for a in range(4):
            for b in range(4):
                br0 = (dwv[b, a] + wv[a] * dwv[b, 0]
                       - dwv[a, b] - wv[b] * dwv[a, 0])
                # g(U, [.]) = V0 * g_{00} * br0 + V0 * sum_i g_{0i} * 0
                I[a, b] = -self.V0.value * self.gv[0, 0] * br0
        return I

    def grad_log_lambda_jets(self):
        """Coordinate components of grad log(lam) = -1/2 grad log(lam^-2), order-1."""
        L = self.lam_j
        dlog = [L.deriv(a) / L for a in range(4)]
        out = []
        for a in range(4):
            acc = self.ginv_j[a][0] * dlog[0]
            for b in range(1, 4):
                acc = acc + self.ginv_j[a][b] * dlog[b]
            out.append(-0.5 * acc)
        return out

    def dH_log_lambda_values(self):
        """Horizontal part of d log lam evaluated against the lifts (i = 1..3)."""
        L = self.lam_j
        dlog = -0.5 * L.grad / L.value
        return np.array([dlog[i] + self.w[i].value * dlog[0] for i in range(1, 4)])


# ---------------------------------------------------------------------------
# public operations
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
    ctx = setup.ctx(point) if isinstance(setup, SubmersionSetup) else setup
    block = ctx.ginv[1:, 1:]
    lam_sq = float(np.einsum("ij,ij->", block, ctx.hv) / 3.0)
    dev = block - lam_sq * ctx.hinv
    anisotropy = float(np.sqrt(max(0.0, np.einsum("ij,kl,ik,jl->", dev, dev,
                                                  ctx.hv, ctx.hv)))) / max(lam_sq, 1e-30)
    stored = ctx.lam_j.value
    mismatch = abs(stored * lam_sq - 1.0)
    if anisotropy > tol:
        raise NotHorizontallyConformalError(
            "projection is not horizontally conformal", point=ctx.point,
            anisotropy=anisotropy)
    return DilationData(lam_sq, anisotropy, mismatch)


def second_fundamental_traces(setup, point):
    """Mean-curvature one-forms (vertical trace, horizontal trace), float
    coordinate components with the index lowered by g."""
    ctx = setup.ctx(point)
    _, bv = ctx.vertical_trace_form_jets()
    _, bh = ctx.horizontal_trace_form_jets()
    return (np.array([j.value for j in bv]), np.array([j.value for j in bh]))


def integrability_form(setup, point):
    """Integrability two-form of the horizontal distribution, I(W_a, W_b)."""
    return setup.ctx(point).integrability_values()


def integrability_consistency(setup, point):
    """|| I - lam * dtheta restricted to the lifts ||, a structural cross-check."""
    ctx = setup.ctx(point)
    I = ctx.integrability_values()
    th = ctx.fm.theta.jets(point)
    dth = geo.form_values(geo.ext_d(th, 4), 4, 2)
    lam = ctx.lam_j.value ** -0.5
    resid = 0.0
    for a in range(1, 4):
        for b in range(1, 4):
            Wa, Wb = ctx.lift_values(a), ctx.lift_values(b)
            resid = max(resid, abs(I[a, b] - lam * (Wa @ dth @ Wb)))
    return resid


def fundamental_eq_residual(setup, point):
    """Harmonicity residual || dphi(trace Bv + grad log lam) ||_h.

    Zero together with horizontal conformality certifies that the projection
    is a harmonic morphism onto (N, h).
    """
    ctx = setup.ctx(point)
    dilation(setup, point)      # raises if the conformality certificate fails
    drop = _harmonicity_defect(ctx)
    return float(np.sqrt(max(0.0, drop @ ctx.hv @ drop)))


def _harmonicity_defect(ctx):
    """dphi(trace Bv + grad log lam) in base coordinate components."""
    tv, _ = ctx.vertical_trace_form_jets()
    gl = ctx.grad_log_lambda_jets()
    return np.array([tv[i].value + gl[i].value for i in range(1, 4)])


def induced_lee_form(setup, point):
    """Lee form (trace Bv)-flat - *_H I of the induced partial connection,
    float coordinate components (a one-form annihilating the vertical)."""
    ctx = setup.ctx(point)
    _, bv = ctx.vertical_trace_form_jets()
    bv_vals = np.array([j.value for j in bv])
    return bv_vals - _star_H_I(ctx)


def _star_H_I(ctx):
    """*_{H,g} of the integrability form, as coordinate one-form components."""
    I = ctx.integrability_values()
    frame = ctx.horizontal_frame()
    Itilde = np.zeros((3, 3))
    for k in range(3):
        for l in range(3):
            Itilde[k, l] = frame[k] @ I @ frame[l]
    eps3 = geo.levi_civita_symbol(3)
    star = 0.5 * np.einsum("kl,klm->m", Itilde, eps3)
    out = np.zeros(4)
    for m in range(3):
        out += star[m] * (ctx.gv @ frame[m])
    return out


def projected_lee_form(setup, point):
    """The Lee form in the gauge of the pulled-back base metric, paired with
    the horizontal lifts: (base components b_1..b_3, vertical contraction)."""
    ctx = setup.ctx(point)
    _, bv = ctx.vertical_trace_form_jets()
    beta = np.array([j.value for j in bv])
    dh_log = ctx.dH_log_lambda_values()
    star_I = _star_H_I(ctx)
    beta = beta - star_I
    beta_lifted = np.array([beta @ ctx.lift_values(i) for i in (1, 2, 3)]) - dh_log
    vert = float(abs(beta @ ctx.vertical_unit_values()))
    return beta_lifted, vert


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
    samples = _check_one_fibre(samples)
    comps, verts = [], []
    for s in samples:
        b, v = projected_lee_form(setup, s)
        comps.append(b)
        verts.append(v)
    comps = np.array(comps)
    spread = float(np.max(comps.max(axis=0) - comps.min(axis=0)))
    return spread + float(max(verts))


def twistorial_sd_residual(setup, point):
    """Norm of the anti-self-dual part of d(trace(Bv)-flat + 1/3 trace(Bh)-flat)."""
    ctx = setup.ctx(point)
    _, bv = ctx.vertical_trace_form_jets()
    _, bh = ctx.horizontal_trace_form_jets()
    sigma = [bv[a] + (1.0 / 3.0) * bh[a] for a in range(4)]
    dsigma = geo.form_values(geo.ext_d(sigma, 4), 4, 2)
    _, _, _, minus = geo.split_two_form(dsigma, ctx.gv, setup.orientation,
                                        point=ctx.point)
    return minus


def monopole_eq_residual(setup, alpha, point):
    """|| (d^H - phi* alpha)(lam^-2) - *_H dtheta ||_h at the point.

    ``alpha`` is a one-form on the base (None means zero); vanishing residual
    certifies that alpha is the Lee form making the projection twistorial.
    """
    ctx = setup.ctx(point)
    L = ctx.lam_j
    lhs = np.array([L.grad[i] + ctx.w[i].value * L.grad[0] for i in (1, 2, 3)])
    if alpha is not None:
        av = alpha.values(ctx.base_point)
        lhs = lhs - L.value * av
    th = ctx.fm.theta.jets(point)
    dth = geo.form_values(geo.ext_d(th, 4), 4, 2)
    omega = np.zeros((3, 3))
    for i in range(1, 4):
        for j in range(1, 4):
            omega[i - 1, j - 1] = ctx.lift_values(i) @ dth @ ctx.lift_values(j)
    ori = ctx.fm.total_chart.orientation
    rhs = geo.hodge_star(omega, ctx.hv, 2, ori)
    diff = lhs - rhs
    return float(np.sqrt(max(0.0, diff @ ctx.hinv @ diff)))


def pullback_sd_residual(setup, u, A, point):
    """Anti-self-dual norm of the curvature of the pulled-back connection.

    The pair (u, A) on the base pulls back to the connection form
    -u (lam^2 theta) + phi*(A); a monopole pair must pull back with self-dual
    curvature.
    """
    ctx = setup.ctx(point)
    fm = ctx.fm
    cj = jets.seed_all(point)
    L = fm.dilation_sq_inv.fn(cj)
    th = fm.theta.fn(cj)
    uv = u.fn(cj[1:])
    Av = A.fn(cj[1:]) if A is not None else None
    omega = [th[a] / L for a in range(4)]
    tilde = [-1.0 * uv * omega[a] for a in range(4)]
    if Av is not None:
        for i in range(3):
            tilde[i + 1] = tilde[i + 1] + Av[i]
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
        for s in samples:
            dilation(setup, s)
    except NotHorizontallyConformalError as exc:
        evidence["anisotropy"] = exc.anisotropy
        return Classification("nonstandard", None, evidence)

    sd_res = [twistorial_sd_residual(setup, s) for s in samples]
    basic_res = twistorial_basic_residual(setup, samples)
    evidence["twistorial_sd"] = sd_res
    evidence["twistorial_basic"] = basic_res

    # The defect lowered by h and scaled by lam^-2: in that weighting it is
    # constant along fibres exactly when the metric is a basic conformal
    # rescale of a harmonic morphism, the gauge freedom to ignore here.
    defect = np.array([(c.hv @ _harmonicity_defect(c)) * c.lam_j.value for c in ctxs])
    defect_spread = float(np.max(defect.max(axis=0) - defect.min(axis=0))) \
        if len(defect) else 0.0
    evidence["harmonicity_defect_spread"] = defect_spread
    evidence["harmonicity_residual"] = [float(np.sqrt(max(0.0, d @ c.hinv @ d)))
                                        for d, c in zip(defect, ctxs)]

    gate_tol = max(pass_tol, 10 * pass_tol)
    if (max(sd_res) > 1e-7 or basic_res > gate_tol or defect_spread > gate_tol):
        return Classification("nonstandard", None, evidence)

    lam_inv = np.array([c.lam_j.value for c in ctxs])
    v1_jets = []
    for c in ctxs:
        Vcoef = jets.powc(c.lam_j, -0.5) * jets.powc(c.gj[0][0], -0.5)
        v1_jets.append(Vcoef * c.lam_j.deriv(0))
    v1 = np.array([j.value for j in v1_jets])
    evidence["V_lam_inv_sq"] = list(map(float, v1))
    scale = 1.0 + float(np.max(np.abs(lam_inv)))

    if np.max(np.abs(v1)) < branch_tol * scale:
        return Classification("type1", None, evidence)

    flip = 1.0
    if np.all(v1 < 0):
        flip = -1.0
    elif not np.all(v1 > 0):
        return Classification("nonstandard", None, evidence)

    v2 = []
    for c, j in zip(ctxs, v1_jets):
        Vcoef = jets.powc(c.lam_j, -0.5) * jets.powc(c.gj[0][0], -0.5)
        v2.append(flip * Vcoef.value * j.grad[0] / j.value)
    v2 = np.array(v2)
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
    integrability = max(float(np.max(np.abs(c.integrability_values()))) for c in ctxs)
    evidence["integrability"] = integrability
    dh_log = np.array([c.dH_log_lambda_values() for c in ctxs])
    homothety_spread = float(np.max(dh_log.max(axis=0) - dh_log.min(axis=0)))
    evidence["homothety_spread"] = homothety_spread
    if integrability < gate_tol and homothety_spread < gate_tol:
        return Classification("type2_conformal", None, evidence)
    return Classification("nonstandard", None, evidence)
