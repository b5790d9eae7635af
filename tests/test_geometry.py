import re

import numpy as np
import pytest
import sympy

from sdharm import cli, constructions as con, geometry as geo, jets
from sdharm.errors import (DegenerateMetricError, DimensionError, DomainError,
                           SingularEvaluationError)

from _fieldgen import random_field
from _metrics import (
    bumpy4,
    chart3,
    chart4,
    conformal_rescale,
    constant_curvature3,
    flat,
    gibbons_hawking,
    random_two_form4,
    round_s4,
    sphere2_unit,
)
from _oracles import fd_oracle


def sample_points(chart, n, seed=0, margin=0.15):
    rng = np.random.default_rng(seed)
    lo = np.asarray(chart.lo) + margin
    hi = np.asarray(chart.hi) - margin
    return [tuple(rng.uniform(lo, hi)) for _ in range(n)]


# ---------------------------------------------------------------------------
# christoffel
# ---------------------------------------------------------------------------

def test_flat_christoffels_vanish():
    G = geo.metric_point(flat(chart4()), (0.1, 0.2, -0.3, 0.4)).G
    assert np.max(np.abs(G)) == 0.0


def test_polar_plane_christoffels():
    ch = geo.Chart(("r", "t"), (0.1, -3), (5, 3))
    g = geo.MetricField(ch, lambda c: [[1.0 + 0 * c[0], 0.0], [0.0, c[0] * c[0]]], "polar")
    G = geo.metric_point(g, (2.0, 0.5)).G
    assert G[0, 1, 1] == pytest.approx(-2.0, abs=1e-12)
    assert G[1, 0, 1] == pytest.approx(0.5, abs=1e-12)


def test_conformal_christoffel_closed_form():
    # Gamma(e^{2f} delta)^a_{bc} = d^a_b f_c + d^a_c f_b - delta_{bc} f_a
    ch = chart3()
    def f_jet(c):
        return 0.3 * jets.sin(c[0]) * jets.cos(c[1]) + 0.2 * c[2] * c[0]
    g = geo.MetricField(ch, lambda c: [[jets.exp(2.0 * f_jet(c)) * (1.0 if a == b else 0.0)
                                        for b in range(3)] for a in range(3)], "conf")
    for pt in sample_points(ch, 5, seed=3):
        G = geo.metric_point(g, pt).G
        df = f_jet(jets.seed_all(pt)).grad
        expected = np.zeros((3, 3, 3))
        for a in range(3):
            for b in range(3):
                for c in range(3):
                    if a == b:
                        expected[a, b, c] += df[c]
                    if a == c:
                        expected[a, b, c] += df[b]
                    if b == c:
                        expected[a, b, c] -= df[a]
        assert np.max(np.abs(G - expected)) < 1e-9


def test_christoffel_vs_finite_difference():
    g = bumpy4(seed=5)
    pt = (0.3, -0.2, 0.5, 0.1)
    G = geo.metric_point(g, pt).G
    h = 1e-4
    gv = lambda p: g.values(p)
    d = 4
    dg = np.empty((d, d, d))
    for e in range(d):
        ep = np.array(pt); ep[e] += h
        em = np.array(pt); em[e] -= h
        dg[e] = (gv(ep) - gv(em)) / (2 * h)
    ginv = np.linalg.inv(gv(pt))
    # Gamma^a_{bc} = 1/2 g^{ad} (d_b g_dc + d_c g_db - d_d g_bc)
    G_fd = 0.5 * np.einsum("ad,dbc->abc", ginv,
                           np.einsum("bdc->dbc", dg) + np.einsum("cdb->dbc", dg)
                           - np.einsum("dbc->dbc", dg))
    rel = np.max(np.abs(G - G_fd)) / (1.0 + np.max(np.abs(G)))
    assert rel < 1e-6


def test_degenerate_metric_raises():
    ch = chart3()
    g = geo.MetricField(ch, lambda c: [[c[0], 0, 0], [0, 1.0 + 0 * c[0], 0],
                                       [0, 0, 1.0 + 0 * c[0]]], "deg")
    with pytest.raises(DegenerateMetricError):
        geo.curvature_report(g, (1e-16, 0.2, 0.3))


def test_degenerate_metric_raises_for_a_batch():
    g = geo.MetricField(chart3(), lambda c: [[c[0], 0, 0], [0, 1.0 + 0 * c[0], 0],
                                             [0, 0, 1.0 + 0 * c[0]]], "deg")
    with pytest.raises(DegenerateMetricError):
        geo.curvature_report(g, np.array([[0.5, 0.2, 0.3], [1e-16, 0.2, 0.3]]))


def test_singular_metric_test_is_scale_relative():
    """berger_s3(0.8) times 1e-5 has det g ~ 7e-18 but is a homothety: its
    Riemann norm is 1e5 times that of berger_s3(0.8)."""
    h = con.berger_s3(0.8)
    small = geo.MetricField(h.chart, lambda c: [[1e-5 * x for x in row] for row in h.fn(c)],
                            "tiny_berger")
    pt = (1.0, 2.0, 3.0)
    assert abs(np.linalg.det(small.values(pt))) < 1e-14
    assert geo.curvature_report(small, pt).riemann_norm == pytest.approx(
        1e5 * 4.5367830012025046, rel=1e-10)


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("corner", [lambda c: float("inf") + 0 * c[0],   # the value
                                    lambda c: c[0] * 1e200 * 1e200])       # the gradient
def test_non_finite_metric_raises_with_its_name(corner):
    g = geo.MetricField(chart3(), lambda c: [[corner(c), 0, 0], [0, 1.0 + 0 * c[0], 0],
                                             [0, 0, 1.0 + 0 * c[0]]], "blowup")
    with pytest.raises(SingularEvaluationError, match="metric blowup has a non-finite component"):
        geo.curvature_report(g, (0.0, 0.2, 0.3))


# ---------------------------------------------------------------------------
# riemann / scalar calibration
# ---------------------------------------------------------------------------

def test_flat_curvature_zero():
    rep = geo.curvature_report(flat(chart4()), (0.5, -0.5, 0.25, 0.1))
    assert rep.riemann_norm < 1e-12
    assert rep.w_plus_norm < 1e-12 and rep.w_minus_norm < 1e-12


def test_unit_s2_scalar():
    rep = geo.curvature_report(sphere2_unit(), (0.3, -0.4))
    assert rep.scalar == pytest.approx(2.0, abs=1e-9)


def test_unit_s3_scalar():
    rep = geo.curvature_report(constant_curvature3(1.0), (0.2, 0.1, -0.3))
    assert rep.scalar == pytest.approx(6.0, abs=1e-9)


@pytest.mark.parametrize("k", [-1.0, 0.25, 1.0])
def test_constant_curvature_sectional(k):
    ch = geo.Chart(("x", "y", "z"), (-0.6, -0.6, -0.6), (0.6, 0.6, 0.6))
    g = constant_curvature3(k, ch)
    rng = np.random.default_rng(11)
    for pt in sample_points(ch, 5, seed=int(10 * abs(k))):
        for _ in range(4):
            X = rng.uniform(-1, 1, 3)
            Y = rng.uniform(-1, 1, 3)
            K = geo.sectional_curvature(g, pt, X, Y)
            assert K == pytest.approx(k, abs=1e-9)


def test_sectional_degenerate_plane_raises():
    g = flat(chart3())
    with pytest.raises(ValueError):
        geo.sectional_curvature(g, (0, 0, 0), (1.0, 0, 0), (2.0, 0, 0))


# ---------------------------------------------------------------------------
# tensor identities
# ---------------------------------------------------------------------------

CURVED = [gibbons_hawking(1.0), round_s4(), bumpy4(seed=2)]


@pytest.mark.parametrize("g", CURVED, ids=lambda g: g.name)
def test_riemann_symmetries_bianchi_weyl(g):
    for pt in sample_points(g.chart, 7, seed=1):
        rep = geo.curvature_report(g, pt)
        R = rep.riemann_low
        scale = rep.riemann_norm + 1.0
        assert np.max(np.abs(R + np.einsum("bacd->abcd", R))) / scale < 1e-9
        assert np.max(np.abs(R + np.einsum("abdc->abcd", R))) / scale < 1e-9
        assert np.max(np.abs(R - np.einsum("cdab->abcd", R))) / scale < 1e-9
        bianchi = R + np.einsum("acdb->abcd", R) + np.einsum("adbc->abcd", R)
        assert np.max(np.abs(bianchi)) / scale < 1e-9
        # Weyl totally trace-free
        gv = g.values(pt)
        ginv = np.linalg.inv(gv)
        W = rep.weyl_low
        for axes in [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3)]:
            tr = np.tensordot(ginv, W, axes=([0, 1], axes))
            assert np.max(np.abs(tr)) / scale < 1e-9
        # norm split
        assert rep.weyl_norm ** 2 == pytest.approx(
            rep.w_plus_norm ** 2 + rep.w_minus_norm ** 2,
            rel=1e-9, abs=1e-12)


def _symbolic_metric_derivatives(g, monkeypatch):
    """Exact (dg, ddg) of a metric field as a function of the point, by sympy.

    The field closure runs on sympy symbols with the jet elementary functions
    swapped for sympy's, so no jet arithmetic is involved.
    """
    for name in ("sin", "cos", "exp", "log", "sqrt"):
        monkeypatch.setattr(jets, name, getattr(sympy, name))
    monkeypatch.setattr(jets, "powc", lambda a, p: a ** p)
    d = g.chart.dim
    xs = sympy.symbols(f"x0:{d}")
    M = [[sympy.sympify(e) for e in row] for row in g.fn(list(xs))]
    dg = [[[sympy.diff(M[a][b], xs[c]) for c in range(d)] for b in range(d)]
          for a in range(d)]
    ddg = [[[[sympy.diff(dg[a][b][c], xs[e]) for e in range(d)] for c in range(d)]
            for b in range(d)] for a in range(d)]
    f = sympy.lambdify(xs, [dg, ddg], "math")
    return lambda pt: tuple(np.array(t, dtype=float) for t in f(*pt))


@pytest.mark.parametrize("g", [bumpy4(seed=3), round_s4(), con.berger_s3(0.8),
                               con.constant_curvature3(-1.0)], ids=lambda g: g.name)
def test_riemann_vs_symbolic_oracle(g, monkeypatch):
    # R_abcd = 1/2 (g_ad,bc + g_bc,ad - g_ac,bd - g_bd,ac)
    #          + g_ef (G^e_bc G^f_ad - G^e_bd G^f_ac),
    # which needs neither d Gamma nor d g^-1.
    points = sample_points(g.chart, 3, seed=17)
    gvals = [g.values(pt) for pt in points]
    R_pipe = [geo.riemann(g, pt)[0] for pt in points]
    derivs = _symbolic_metric_derivatives(g, monkeypatch)
    for pt, gv, R in zip(points, gvals, R_pipe):
        dg, ddg = derivs(pt)                   # dg[a,b,c] = d_c g_ab
        low = 0.5 * (np.einsum("ecb->ebc", dg) + dg - np.einsum("bce->ebc", dg))
        G = np.einsum("ae,ebc->abc", np.linalg.inv(gv), low)
        R_sym = (0.5 * (np.einsum("adbc->abcd", ddg) + np.einsum("bcad->abcd", ddg)
                        - np.einsum("acbd->abcd", ddg) - np.einsum("bdac->abcd", ddg))
                 + np.einsum("ef,ebc,fad->abcd", gv, G, G)
                 - np.einsum("ef,ebd,fac->abcd", gv, G, G))
        assert np.max(np.abs(R - R_sym)) <= 1e-10 * (1.0 + np.max(np.abs(R_sym)))


@pytest.mark.parametrize("g", CURVED, ids=lambda g: g.name)
def test_star_involution_on_two_forms(g):
    rng = np.random.default_rng(9)
    for pt in sample_points(g.chart, 4, seed=8):
        gv = g.values(pt)
        for _ in range(5):
            F = rng.uniform(-1, 1, (4, 4))
            F = F - F.T
            FF = geo.hodge_star(geo.hodge_star(F, gv, 2), gv, 2)
            assert np.max(np.abs(FF - F)) < 1e-12


def test_hodge_flat_examples():
    g3 = np.eye(3)
    F = np.zeros((3, 3)); F[0, 1], F[1, 0] = 1.0, -1.0   # dx^dy
    assert np.allclose(geo.hodge_star(F, g3, 2), [0, 0, 1])  # dz
    g4 = np.eye(4)
    F4 = np.zeros((4, 4)); F4[0, 1], F4[1, 0] = 1.0, -1.0
    out = geo.hodge_star(F4, g4, 2)
    expected = np.zeros((4, 4)); expected[2, 3], expected[3, 2] = 1.0, -1.0
    assert np.allclose(out, expected)


def test_sd_split_canonical_forms():
    gv = np.eye(4)
    F = np.zeros((4, 4))
    F[0, 1], F[1, 0], F[2, 3], F[3, 2] = 1.0, -1.0, 1.0, -1.0
    _, minus, _, mnorm = geo.split_two_form(F, gv)
    assert mnorm < 1e-14
    F[2, 3], F[3, 2] = -1.0, 1.0
    _, _, pnorm, _ = geo.split_two_form(F, gv)
    assert pnorm < 1e-14


def test_split_reconstructs_two_form():
    rng = np.random.default_rng(3)
    g = bumpy4(seed=7)
    for pt in sample_points(g.chart, 3, seed=5):
        gv = g.values(pt)
        F = rng.uniform(-1, 1, (4, 4)); F = F - F.T
        plus, minus, _, _ = geo.split_two_form(F, gv)
        assert np.max(np.abs(plus + minus - F)) < 1e-12


@pytest.mark.parametrize("g", [gibbons_hawking(), bumpy4()], ids=["gh", "bumpy4"])
@pytest.mark.parametrize("orientation", [1, -1])
def test_report_weyl_norms_equal_the_public_split(g, orientation):
    """curvature_report takes the Weyl norm and the W+/W- split from one
    operator; each equals its own route bit for bit, on a batch of points.
    The report splits W by the chart's orientation."""
    pts = np.array(sample_points(g.chart, 3, seed=23))
    rep = geo.curvature_report(g if orientation == 1 else g.flipped(), pts)
    gv = geo.metric_point(g, pts)[0]
    E = geo.orthonormal_frame(gv)
    _, _, wp, wm = geo.sd_asd_split(rep.weyl_low, gv, orientation)
    assert np.array_equal(rep.w_plus_norm, wp) and np.array_equal(rep.w_minus_norm, wm)
    M = geo.weyl_operator_matrix(geo.to_frame(rep.weyl_low, E))
    assert np.array_equal(rep.weyl_norm, np.sqrt(np.sum(M * M, axis=(-2, -1))))


def test_sd_split_dim3_raises():
    with pytest.raises(DimensionError):
        geo.sd_asd_split(np.zeros((3, 3, 3, 3)), np.eye(3))


def test_weyl_dim3_raises():
    with pytest.raises(DimensionError):
        geo.weyl(flat(chart3()), (0.1, 0.2, 0.3))


# ---------------------------------------------------------------------------
# exterior derivative
# ---------------------------------------------------------------------------

def test_exterior_derivative_xdy():
    ch = chart3()
    omega = geo.OneFormField(ch, lambda c: [0.0 * c[0], c[0], 0.0 * c[0]], "x dy")
    d = geo.exterior_derivative(omega, (0.4, 0.2, -0.1))
    expected = np.zeros((3, 3)); expected[0, 1], expected[1, 0] = 1.0, -1.0
    assert np.allclose(d, expected)


def test_exterior_derivative_trkalian_hand_result():
    ch = chart3()
    omega = geo.OneFormField(ch, lambda c: [jets.cos(c[2]), jets.sin(c[2]), 0.0 * c[2]])
    pt = (0.3, 1.0, 0.7)
    d = geo.exterior_derivative(omega, pt)
    z = pt[2]
    expected = np.zeros((3, 3))
    expected[2, 0] = -np.sin(z); expected[0, 2] = np.sin(z)
    expected[2, 1] = np.cos(z); expected[1, 2] = -np.cos(z)
    assert np.max(np.abs(d - expected)) < 1e-12
    # cross-check one component against the finite-difference oracle
    fd_g, _ = fd_oracle(lambda p: float(np.cos(p[2])), pt)
    assert abs(d[2, 0] - fd_g[2]) < 1e-8


def test_d_squared_zero_scalar_and_one_form():
    ch = chart4()
    rng = np.random.default_rng(12)
    for trial in range(5):
        f = random_field(rng, 4)
        pt = tuple(rng.uniform(-1.2, 1.2, 4))
        sf = geo.ScalarField(ch, f)
        try:
            df = geo.ext_d(sf.jet(pt), 4)
        except Exception:
            continue
        ddf = geo.form_values(geo.ext_d(df, 4), 4, 2)
        assert np.max(np.abs(ddf)) < 1e-10
    omega = geo.OneFormField(ch, lambda c: [jets.sin(c[1]) * c[2], jets.exp(jets.sin(c[0])),
                                            c[0] * c[3], jets.cos(c[2])])
    do = geo.ext_d(omega.jets((0.2, 0.4, -0.3, 0.6)), 4)
    ddo = geo.form_values(geo.ext_d(do, 4), 4, 3)
    assert np.max(np.abs(ddo)) < 1e-10


# ---------------------------------------------------------------------------
# conformal rescaling
# ---------------------------------------------------------------------------

def test_laplacian_closed_forms():
    # Delta r^2 = 6 on flat space; coordinate functions of R^4 restricted to the
    # unit round S^3 have Delta f = -3 f.
    flat = con.flat3_spherical()
    r2 = geo.ScalarField(flat.chart, lambda c: c[0] * c[0])
    s3 = con.round_s3_euler()
    f = geo.ScalarField(s3.chart, lambda c: jets.cos(0.5 * c[0]) * jets.cos(0.5 * (c[1] + c[2])))
    for seed in range(3):
        p = tuple(np.random.default_rng(seed).uniform(flat.chart.lo, flat.chart.hi))
        assert geo.laplacian(r2, flat, p) == pytest.approx(6.0, abs=1e-12)
        q = tuple(np.random.default_rng(seed).uniform(s3.chart.lo, s3.chart.hi))
        assert geo.laplacian(f, s3, q) == pytest.approx(-3.0 * f.value(q), abs=1e-12)


def test_conformal_rescale_identity():
    g = flat(chart3())
    one = geo.ScalarField(chart3(), lambda c: 1.0 + 0.0 * c[0])
    gv = conformal_rescale(g, one).values((0.1, 0.2, 0.3))
    assert np.allclose(gv, np.eye(3))


def test_weyl_one_up_conformal_invariance():
    g = bumpy4(seed=4)
    f = geo.ScalarField(chart4(), lambda c: jets.exp(0.4 * jets.sin(c[0] + c[2])) + 0.5)
    fg = conformal_rescale(g, f)
    for pt in sample_points(chart4(), 4, seed=21):
        W1 = geo.weyl(g, pt)
        W2 = geo.weyl(fg, pt)
        up1 = np.einsum("ae,ebcd->abcd", np.linalg.inv(g.values(pt)), W1)
        up2 = np.einsum("ae,ebcd->abcd", np.linalg.inv(fg.values(pt)), W2)
        denom = 1.0 + np.max(np.abs(up1))
        assert np.max(np.abs(up1 - up2)) / denom < 1e-8


def test_scalar_homothety_scaling():
    h = constant_curvature3(1.0)
    c2 = geo.ScalarField(chart3(), lambda c: 4.0 + 0.0 * c[0])
    pt = (0.2, -0.1, 0.3)
    s1 = geo.curvature_report(h, pt).scalar
    s2 = geo.curvature_report(conformal_rescale(h, c2), pt).scalar
    assert s2 == pytest.approx(s1 / 4.0, rel=1e-10)


def test_conformal_rescale_vanishing_factor_errors():
    g = flat(chart3())
    f = geo.ScalarField(chart3(), lambda c: c[0])
    with pytest.raises(DegenerateMetricError):
        conformal_rescale(g, f).jets((-0.5, 0.1, 0.1))


# ---------------------------------------------------------------------------
# curvature report composite behaviour
# ---------------------------------------------------------------------------

def test_round_s4_einstein_and_conformally_flat():
    rep = geo.curvature_report(round_s4(), (0.2, -0.3, 0.1, 0.4))
    assert rep.einstein_residual_norm < 1e-9
    assert rep.weyl_norm < 1e-9


def test_report_raw_and_normalized_fields():
    rep = geo.curvature_report(gibbons_hawking(), (0.3, 1.0, 1.2, 2.5))
    raw = rep.raw()
    assert set(raw) == {"riemann", "ricci", "scalar_curv", "einstein",
                        "weyl", "w_plus", "w_minus"}
    (record,) = cli._check_records({k: (v, rep.riemann_norm) for k, v in raw.items()},
                                   lambda name: 1.0)
    for key, val in raw.items():
        assert record[key]["normalized"] == pytest.approx(abs(val) / (rep.riemann_norm + 1.0))


def test_three_d_riemann_reconstructs_from_ricci():
    g = constant_curvature3(1.0)
    bump = conformal_rescale(
        g, geo.ScalarField(chart3(), lambda c: 1.0 + 0.2 * jets.sin(c[0] * c[1])))
    for pt in sample_points(chart3(), 6, seed=14):
        rep = geo.curvature_report(bump, pt)
        gv = bump.values(pt)
        R, ric, scal = rep.riemann_low, rep.ricci, rep.scalar
        rebuilt = (np.einsum("ac,bd->abcd", gv, ric) + np.einsum("bd,ac->abcd", gv, ric)
                   - np.einsum("ad,bc->abcd", gv, ric) - np.einsum("bc,ad->abcd", gv, ric)
                   - 0.5 * scal * (np.einsum("ac,bd->abcd", gv, gv)
                                   - np.einsum("ad,bc->abcd", gv, gv)))
        assert np.max(np.abs(R - rebuilt)) / (rep.riemann_norm + 1.0) < 1e-9


def test_domain_violation_raises():
    g = flat(chart3())
    with pytest.raises(DomainError):
        geo.curvature_report(g, (5.0, 0.0, 0.0))


def test_an_asymmetric_metric_names_its_first_pair():
    """metric_jets names the first asymmetric pair (a, b), a < b, in row-major
    order: at a point, and on a batch whose points are asymmetric in
    different pairs."""
    ch = geo.Chart(("x", "y", "z", "w"), (-1.0,) * 4, (1.0,) * 4)

    def fn(c):
        x = c[0]
        g = [[(1.0 if a == b else 0.0) + 0.0 * x for b in range(4)] for a in range(4)]
        g[2][3] = g[2][3] + 1e-3                     # asymmetric everywhere
        g[1][2] = g[1][2] + 1e-3 * (x - 0.5)         # asymmetric off x = 0.5
        return g

    g = geo.MetricField(ch, fn, "skew")
    for point, pair in (((0.5, 0.0, 0.0, 0.0), "(2,3)"), ((0.1, 0.0, 0.0, 0.0), "(1,2)"),
                        (np.array([[0.5, 0.0, 0.0, 0.0], [0.1, 0.2, 0.0, 0.0]]), "(1,2)")):
        with pytest.raises(SingularEvaluationError,
                           match=re.escape(f"metric skew not symmetric in components {pair}")):
            geo.metric_jets(g, point)


def test_a_batch_asymmetric_in_its_last_row_alone_names_its_pair_and_a_lower_only_excess_passes():
    """On a batch whose last row alone is asymmetric, metric_jets names the
    pair (a, b), a < b, of an excess that lies below the diagonal; and an
    excess of the test below the diagonal alone (g_12 infinite, g_21 finite:
    |g_12 - g_21| is not above 1e-12 (1 + |g_12|)) raises nothing."""
    ch = geo.Chart(("x", "y", "z"), (-1.0,) * 3, (1.0,) * 3)

    def fn(c):
        g = [[1.0 if a == b else 0.0 for b in range(3)] for a in range(3)]
        g[2][1] = 1e-3 * (c[0] - 0.25)               # nonzero off x = 0.25
        return g

    g = geo.MetricField(ch, fn, "skew")
    batch = np.array([[0.25, 0.1, 0.2], [0.25, -0.3, 0.4], [0.5, 0.0, 0.0]])
    geo.metric_jets(g, batch[:2])
    with pytest.raises(SingularEvaluationError,
                       match=re.escape("metric skew not symmetric in components (1,2)")):
        geo.metric_jets(g, batch)
    v = np.repeat(np.eye(3)[..., None], 3, axis=-1)
    v[1, 2, -1] = np.inf
    geo._require_symmetric(v, "skew", batch)


def test_a_batch_metric_error_names_its_first_failing_row():
    """metric_point on an ``(N, d)`` array names one point, its first failing
    row, as ``Chart.require_inside`` does: the message that point gives alone."""
    ch = geo.Chart(("x", "y"), (-3.0, -3.0), (3.0, 3.0))
    singular = geo.MetricField(ch, lambda c: [[c[0] * c[0], 0.0], [0.0, 1.0]], "singular")
    # exp(700 x) is finite, but its second derivative overflows at x = 1
    blowup = geo.MetricField(ch, lambda c: [[jets.exp(700.0 * c[0]), 0.0], [0.0, 1.0]],
                             "blowup")
    for g, points, error in ((singular, [[-1.0, 0.5], [0.0, 0.2], [0.0, 0.3]],
                              DegenerateMetricError),
                             (blowup, [[-1.0, 0.5], [1.0, 0.2], [1.0, 0.3]],
                              SingularEvaluationError)):
        with np.errstate(over="ignore"), pytest.raises(error) as alone:
            geo.metric_point(g, tuple(points[1]))
        with np.errstate(over="ignore"), pytest.raises(error) as batch:
            geo.metric_point(g, np.array(points))
        assert str(batch.value) == str(alone.value)
        assert f"at point {tuple(points[1])}" in str(batch.value)
