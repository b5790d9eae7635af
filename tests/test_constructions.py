import numpy as np
import pytest

from sdharm import constructions as con, geometry as geo, jets, weyl3
from sdharm.errors import DomainError


def sample_points(chart, n, seed=0, margin=0.15):
    rng = np.random.default_rng(seed)
    lo = np.asarray(chart.lo) + margin
    hi = np.asarray(chart.hi) - margin
    return [tuple(rng.uniform(lo, hi)) for _ in range(n)]


# ---------------------------------------------------------------------------
# catalog validations: each entry ships with its own check
# ---------------------------------------------------------------------------

def test_flat3_is_flat():
    rep = geo.curvature_report(con.flat3(), (0.3, -0.2, 0.5))
    assert rep.riemann_norm < 1e-12


def test_flat3_spherical_is_flat():
    g = con.flat3_spherical()
    for pt in sample_points(g.chart, 5, seed=2):
        assert geo.curvature_report(g, pt).riemann_norm < 1e-10


@pytest.mark.parametrize("k", [-1.0, 0.25, 1.0])
def test_constant_curvature_entry(k):
    g = con.constant_curvature3(k)
    rng = np.random.default_rng(5)
    for pt in sample_points(g.chart, 4, seed=3):
        X, Y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
        assert geo.sectional_curvature(g, pt, X, Y) == pytest.approx(k, abs=1e-9)


@pytest.mark.parametrize("sign", [1, -1])
def test_trkalian_entry(sign):
    alpha = con.trkalian(sign)
    h = con.flat3()
    w = weyl3.WeylStructure3(h, alpha)
    for pt in sample_points(h.chart, 4, seed=4):
        assert weyl3.beltrami_residual(w, -sign, pt) < 1e-12
        assert weyl3.beltrami_residual(w, sign, pt) == pytest.approx(2.0, abs=1e-10)


def test_euler_frame_structure_equations():
    s = con.euler_s3_frame()
    ch = s[0].chart
    for pt in sample_points(ch, 4, seed=6):
        vals = [f.values(pt) for f in s]
        assert np.linalg.det(np.array(vals)) > 0
        for i, j, k in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]:
            d = geo.exterior_derivative(s[i], pt)
            target = 2.0 * (np.outer(vals[j], vals[k]) - np.outer(vals[k], vals[j]))
            assert np.max(np.abs(d - target)) < 1e-12


def test_round_s3_euler_scalar():
    g = con.round_s3_euler()
    for pt in sample_points(g.chart, 3, seed=7):
        assert geo.curvature_report(g, pt).scalar == pytest.approx(6.0, abs=1e-9)


def test_gh_potential_harmonic():
    u = con.gh_potential(1.0)
    h = con.flat3_spherical()
    # laplacian u = (1/sqrt|h|) d_a (sqrt|h| h^ab d_b u)
    for pt in sample_points(h.chart, 4, seed=8):
        uj = u.jet(pt)
        hj = h.jets(pt)
        hv = geo.jet_values(hj)
        hinv = np.linalg.inv(hv)
        dh = np.array([[[hj[a][b].grad[c] for c in range(3)] for b in range(3)]
                       for a in range(3)])          # dh[a,b,c] = d_c h_ab
        dhinv = -np.einsum("ae,efc,fb->abc", hinv, dh, hinv)
        det = np.linalg.det(hv)
        ddet = det * np.einsum("ab,abc->c", hinv, dh)
        grad_u = uj.grad
        lap = 0.0
        for a in range(3):
            for b in range(3):
                lap += hinv[a, b] * uj.hess[a, b]
                lap += dhinv[a, b, a] * grad_u[b]
                lap += 0.5 * hinv[a, b] * (ddet[a] / det) * grad_u[b]
        assert abs(lap) < 1e-9
        assert geo.laplacian(u, h, pt) == pytest.approx(lap, abs=1e-15)


def test_dirac_A_satisfies_monopole_closed_form():
    m = 1.5
    A = con.dirac_A(m)
    u = con.gh_potential(m)
    h = con.flat3_spherical()
    for pt in sample_points(h.chart, 5, seed=9):
        dA = geo.exterior_derivative(A, pt)
        hv = h.values(pt)
        star_du = geo.hodge_star(u.jet(pt).grad, hv, 1)
        assert np.max(np.abs(dA - star_du)) < 1e-10


def test_berger_ew_scale_closed_form():
    mu = 0.8
    a_star = con.berger_ew_scale(mu)
    w = weyl3.WeylStructure3(con.berger_s3(mu), con.berger_lee(a_star))
    for pt in sample_points(w.h.chart, 3, seed=10):
        assert weyl3.einstein_weyl_residual(w, pt) < 1e-10
    w_off = weyl3.WeylStructure3(con.berger_s3(mu), con.berger_lee(a_star + 0.3))
    assert weyl3.einstein_weyl_residual(w_off, (1.2, 2.0, 3.0)) > 1e-2


def test_catalog_registry_roundtrip():
    assert len(con.catalog_names()) >= 6
    g = con.catalog("constant_curvature3", k=0.25)
    assert "0.25" in g.name
    with pytest.raises(KeyError):
        con.catalog("bogus")
    with pytest.raises(DomainError):
        con.catalog("trkalian", sign=3)
    desc = con.catalog_describe("trkalian")
    assert "cos z dx" in desc["formula"]


# ---------------------------------------------------------------------------
# fibration invariants
# ---------------------------------------------------------------------------

def make_type2():
    h = con.flat3()
    chart = geo.Chart(("tau",) + h.chart.names, (-1.5,) + h.chart.lo,
                      (1.5,) + h.chart.hi)
    f = geo.ScalarField(chart, lambda c: jets.exp(2.0 * c[0]), "fibre_exp(2)")
    return con.type2_warped(h, f)


@pytest.mark.parametrize("fm_maker", [
    lambda: con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                                 A=con.dirac_A(1.0)),
    make_type2,
    lambda: con.type3_metric(con.constant_curvature3(1.0), con.trkalian(1)),
    lambda: con.type4_metric(con.flat3(), con.trkalian(-1), c=1.0),
], ids=["type1", "type2", "type3", "type4"])
def test_fibration_invariants(fm_maker):
    fm = fm_maker()
    rng = np.random.default_rng(20)
    for pt in sample_points(fm.total_chart, 20, seed=13):
        gv = fm.g.values(pt)
        th = fm.theta.values(pt)
        lam_inv_sq = fm.dilation_sq_inv.value(pt)
        hv = fm.h.values(fm.base_point(pt))
        # horizontal restriction drops to lam^-2 h
        basis = []
        for i in range(1, 4):
            v = np.zeros(4); v[i] = 1.0
            v[0] = -th[i] / th[0]
            basis.append(v)
        for i in range(3):
            for j in range(3):
                assert gv @ basis[i] @ basis[j] == pytest.approx(
                    lam_inv_sq * hv[i, j], rel=1e-10, abs=1e-10)
        # theta(V) = 1 for the fundamental field V = lam * unit vertical
        lam = lam_inv_sq ** -0.5
        V = np.zeros(4); V[0] = lam / np.sqrt(gv[0, 0])
        assert th @ V == pytest.approx(1.0, abs=1e-12)
        assert gv @ V @ V == pytest.approx(lam ** 2, rel=1e-12)


def test_bryant_reproduces_type3():
    h = con.constant_curvature3(1.0)
    A = con.trkalian(1)
    t3 = con.type3_metric(h, A, fibre_range=(0.1, 5.0))
    chart = t3.total_chart
    lam = geo.ScalarField(chart, lambda c: jets.powc(c[0], -0.5), "rho^-1/2")
    br = con.bryant_metric(h, lam, A, fibre_range=(0.1, 5.0), fibre_name="rho")
    for pt in sample_points(chart, 6, seed=14):
        assert np.max(np.abs(t3.g.values(pt) - br.g.values(pt))) < 1e-12


def test_bryant_flat_when_trivial():
    h = con.flat3()
    chart = geo.Chart(("tau",) + h.chart.names, (0.1,) + h.chart.lo, (5,) + h.chart.hi)
    lam = geo.ScalarField(chart, lambda c: 1.0 + 0.0 * c[0])
    fm = con.bryant_metric(h, lam)
    rep = geo.curvature_report(fm.g, (1.0, 0.2, -0.3, 0.4))
    assert rep.riemann_norm < 1e-12


def test_jones_tod_trivial_flat():
    h = con.flat3()
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    fm = con.jones_tod_metric(h, u)
    assert geo.curvature_report(fm.g, (0.5, 0.1, 0.2, 0.3)).riemann_norm < 1e-12


def test_type3_rejects_nonpositive_fibre():
    with pytest.raises(DomainError):
        con.type3_metric(con.flat3(), fibre_range=(-1, 1))
    fm = con.type3_metric(con.flat3())
    with pytest.raises(DomainError):
        fm.g.values((-0.5, 0, 0, 0))


def test_type4_negative_branch_rejected():
    fm = con.type4_metric(con.flat3(), c=-2.0, fibre_range=(-1.5, 1.5))
    with pytest.raises(DomainError):
        fm.g.values((0.0, 0.1, 0.1, 0.1))   # e^0 - 2 < 0


# ---------------------------------------------------------------------------
# self-duality of the families (positive and negative controls)
# ---------------------------------------------------------------------------

def test_gibbons_hawking_ricci_flat_self_dual():
    fm = con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                              A=con.dirac_A(1.0))
    for r in (0.5, 1.0, 2.0):
        rep = geo.curvature_report(fm.g, (0.3, r, 1.2, 2.5))
        assert rep.ricci_norm < 1e-8
        assert rep.w_minus_norm < 1e-8
        assert rep.w_plus_norm > 1e-2


def test_gibbons_hawking_monopole_hypothesis():
    u = con.gh_potential(1.0)
    h = con.flat3_spherical()
    A = con.dirac_A(1.0)
    alpha0 = geo.OneFormField(h.chart, lambda c: [0.0 * c[0]] * 3, "zero")
    w = weyl3.WeylStructure3(h, alpha0)
    F = geo.TwoFormField(h.chart, lambda c: geo.ext_d(A.fn(c), 3), "dA")
    for pt in sample_points(h.chart, 4, seed=15):
        assert weyl3.monopole_residual(u, w, F, pt) < 1e-9
        assert weyl3.closure_residual(F, pt, h) < 1e-9


def test_type3_beltrami_self_dual_and_control():
    good = con.type3_metric(con.flat3(), con.trkalian(1))
    bad = con.type3_metric(con.flat3(), con.xdy())
    for pt in sample_points(good.total_chart, 6, seed=16):
        assert geo.curvature_report(good.g, pt).w_minus_norm < 1e-8
    for pt in [(0.7, 0.3, -0.4, 1.0), (2.0, 1.0, 0.5, -0.7)]:
        assert geo.curvature_report(bad.g, pt).w_minus_norm > 1e-3


def test_type3_flatness_oracle_quarter_curvature():
    # independent oracle: the metric is the pull-back of flat R^4 under
    # (rho, x) -> 2 sqrt(rho) * Psi(x/2), Psi the unit-sphere stereographic map
    fm = con.type3_metric(con.constant_curvature3(0.25))
    chart = fm.total_chart

    def embed(c):
        rho, x, y, z = c
        s = 2.0 * jets.sqrt(rho)
        q = 1.0 + (x * x + y * y + z * z) / 16.0
        return [s * (x / 2.0) / q, s * (y / 2.0) / q, s * (z / 2.0) / q,
                s * (1.0 - (x * x + y * y + z * z) / 16.0) / q]

    for pt in sample_points(chart, 6, seed=17):
        cj = jets.seed_all(pt)
        T = embed(cj)
        J = np.array([t.grad for t in T])       # J[c, a] = d_a T^c
        pulled = J.T @ J
        assert np.max(np.abs(pulled - fm.g.values(pt))) < 1e-12
        assert geo.curvature_report(fm.g, pt).riemann_norm < 1e-8


def test_type4_alpha_zero_conformally_flat():
    fm = con.type4_metric(con.constant_curvature3(1.0), c=1.0)
    for pt in sample_points(fm.total_chart, 5, seed=18):
        assert geo.curvature_report(fm.g, pt).weyl_norm < 1e-8


def test_type4_berger_einstein_weyl_self_dual():
    mu = 0.8
    fm = con.type4_metric(con.berger_s3(mu), con.berger_lee(con.berger_ew_scale(mu)),
                          c=2.0 * mu)
    for pt in sample_points(fm.total_chart, 5, seed=19):
        rep = geo.curvature_report(fm.g, pt)
        assert rep.w_minus_norm < 1e-8
        assert rep.w_plus_norm > 1e-2


def test_jones_tod_monopole_implies_self_dual_over_family():
    # hypothesis residual < 1e-9 at samples => w_minus < 1e-7 at samples
    for m in (0.5, 1.0, 2.0):
        u = con.gh_potential(m)
        h = con.flat3_spherical()
        A = con.dirac_A(m)
        alpha0 = geo.OneFormField(h.chart, lambda c: [0.0 * c[0]] * 3)
        F = geo.TwoFormField(h.chart, lambda c: geo.ext_d(A.fn(c), 3))
        w = weyl3.WeylStructure3(h, alpha0)
        fm = con.jones_tod_metric(h, u, A=A)
        for pt4 in sample_points(fm.total_chart, 3, seed=int(10 * m)):
            assert weyl3.monopole_residual(u, w, F, fm.base_point(pt4)) < 1e-9
            assert geo.curvature_report(fm.g, pt4).w_minus_norm < 1e-7


# ---------------------------------------------------------------------------
# type-4 normalization
# ---------------------------------------------------------------------------

def test_type4_normalize_constant_c():
    fm = con.type4_metric(con.flat3(), c=2.0, fibre_range=(-1.0, 1.5))
    norm = con.type4_normalize(fm)
    assert norm.family_params["c"] == 1.0
    for pt in sample_points(fm.total_chart, 4, seed=21):
        assert np.max(np.abs(norm.g.values(pt) - 2.0 * fm.g.values(pt))) < 1e-12
        assert np.max(np.abs(norm.h.values(fm.base_point(pt))
                             - 4.0 * fm.h.values(fm.base_point(pt)))) < 1e-12


def test_type4_normalize_variable_c_beltrami_equivalence():
    h, alpha, c = con.variable_c_background()
    w = weyl3.WeylStructure3(h, alpha)
    pts = sample_points(h.chart, 5, seed=22)
    for pt in pts:
        assert weyl3.generalized_beltrami_residual(w, c, pt) < 1e-10
    fm = con.type4_metric(h, alpha, c=c)
    norm = con.type4_normalize(fm)
    assert norm.family_params["c"] == 1.0
    wn = weyl3.WeylStructure3(norm.h, norm.family_params["alpha"])
    for pt in pts:
        assert weyl3.beltrami_residual(wn, +1, pt) < 1e-9
    # and a broken pair fails both sides of the equivalence
    alpha_bad = con.xdy()
    w_bad = weyl3.WeylStructure3(h, alpha_bad)
    fm_bad = con.type4_metric(h, alpha_bad, c=c)
    norm_bad = con.type4_normalize(fm_bad)
    wn_bad = weyl3.WeylStructure3(norm_bad.h, norm_bad.family_params["alpha"])
    for pt in pts[:2]:
        assert weyl3.generalized_beltrami_residual(w_bad, c, pt) > 1e-3
        assert weyl3.beltrami_residual(wn_bad, +1, pt) > 1e-3


def test_type4_normalize_rejects_vanishing_c():
    ch = con.flat3().chart
    c = geo.ScalarField(ch, lambda c_: c_[0], "x")
    fm = con.type4_metric(con.flat3(), c=c, fibre_range=(0.5, 1.5))
    with pytest.raises(DomainError):
        con.type4_normalize(fm).family_params["alpha"].jets((0.0, 0.1, 0.1))


def test_type3_trkalian_not_einstein():
    fm = con.type3_metric(con.flat3(), con.trkalian(1))
    rep = geo.curvature_report(fm.g, (0.7, 0.3, -0.4, 1.0))
    assert rep.w_minus_norm < 1e-8
    assert rep.einstein_residual_norm > 0.01


def test_bryant_generic_is_harmonic_morphism():
    from sdharm import morphism as mor
    h = con.constant_curvature3(-1.0)
    probe = con.type3_metric(h, fibre_range=(0.2, 3.0))
    lam = geo.ScalarField(probe.total_chart,
                          lambda c: jets.exp(0.3 * c[0]) + 0.2 * jets.powc(c[0], -1))
    fm = con.bryant_metric(h, lam, None, fibre_range=(0.2, 3.0), fibre_name="rho")
    s = mor.SubmersionSetup(fm)
    for pt in sample_points(fm.total_chart, 4, seed=33):
        assert mor.fundamental_eq_residual(s, pt) < 1e-8


def test_bryant_generic_with_connection_form_harmonic():
    from sdharm import morphism as mor
    h = con.flat3()
    probe = con.type3_metric(h, fibre_range=(0.2, 3.0))
    lam = geo.ScalarField(probe.total_chart, lambda c: 1.0 + 0.5 * jets.sin(c[0]))
    fm = con.bryant_metric(h, lam, con.xdy(), fibre_range=(0.2, 3.0), fibre_name="tau")
    s = mor.SubmersionSetup(fm)
    for pt in sample_points(fm.total_chart, 4, seed=34):
        assert mor.fundamental_eq_residual(s, pt) < 1e-8


def test_type4_c_zero_flat_base_conformally_flat_not_flat():
    # degenerate structure-function branch: conformal to a cylinder metric,
    # so the Weyl tensor vanishes but the curvature does not
    fm = con.type4_metric(con.flat3(), c=0.0, fibre_range=(-1.0, 1.5))
    for pt in sample_points(fm.total_chart, 4, seed=35):
        rep = geo.curvature_report(fm.g, pt)
        assert rep.weyl_norm < 1e-8
        assert rep.riemann_norm > 0.01


# ---------------------------------------------------------------------------
# chart invariance
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family", [
    lambda h: con.type2_warped(h, con.fibre_exp(2.0)(None)),
    lambda h: con.type3_metric(h),
], ids=["type2", "type3"])
def test_report_norms_are_chart_invariant(family):
    """The same fibration over flat R^3 in Cartesian and in spherical
    coordinates (an orientation-preserving change of base chart) reports the
    same curvature norms at corresponding points, to 1e-12 relative."""
    cart, sph = family(con.flat3()), family(con.flat3_spherical())
    rng = np.random.default_rng(12)
    for _ in range(6):
        t = rng.uniform(0.3, 1.2)
        r, th, ph = rng.uniform(0.3, 1.8), rng.uniform(0.4, 2.7), rng.uniform(0.3, 5.9)
        xyz = (r * np.sin(th) * np.cos(ph), r * np.sin(th) * np.sin(ph), r * np.cos(th))
        a = geo.curvature_report(sph.g, (t, r, th, ph)).raw()
        b = geo.curvature_report(cart.g, (t,) + xyz).raw()
        assert a.keys() == b.keys() == {"riemann", "ricci", "scalar_curv", "einstein",
                                        "weyl", "w_plus", "w_minus"}
        for key in a:
            assert abs(a[key] - b[key]) <= 1e-12 * (1.0 + abs(b[key])), (key, a[key], b[key])
