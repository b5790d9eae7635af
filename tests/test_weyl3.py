import os

import numpy as np
import pytest

from sdharm import cli, constructions as con, geometry as geo, jets, weyl3
from sdharm.errors import DimensionError


def pts(chart, n, seed=0, margin=0.2):
    rng = np.random.default_rng(seed)
    lo = np.asarray(chart.lo) + margin
    hi = np.asarray(chart.hi) - margin
    return [tuple(rng.uniform(lo, hi)) for _ in range(n)]


def zero_form(chart):
    return geo.OneFormField(chart, lambda c: [0.0 * c[0]] * 3, "zero")


def test_weyl_structure_requires_dim3():
    ch4 = geo.Chart(("a", "b", "c", "d"), (-1,) * 4, (1,) * 4)
    g4 = geo.MetricField(ch4, lambda c: [[1.0 if i == j else 0.0 for j in range(4)]
                                         for i in range(4)])
    with pytest.raises(DimensionError):
        weyl3.WeylStructure3(g4, None)


def test_weyl_connection_reduces_to_levi_civita():
    h = con.constant_curvature3(1.0)
    w = weyl3.WeylStructure3(h, zero_form(h.chart))
    for pt in pts(h.chart, 3, seed=1):
        G, _ = weyl3.weyl_connection_coeffs(w, pt)
        gamma_lc = geo.christoffel(h, pt)
        assert np.max(np.abs(G - gamma_lc)) < 1e-12


def test_weyl_connection_defining_property_random():
    rng = np.random.default_rng(7)
    h = con.constant_curvature3(-1.0)
    for seed in range(3):
        coef = rng.uniform(-1, 1, 3)
        alpha = geo.OneFormField(
            h.chart,
            lambda c: [coef[0] * jets.sin(c[1]), coef[1] * c[0], coef[2] * jets.cos(c[2])],
            "rand")
        w = weyl3.WeylStructure3(h, alpha)
        for pt in pts(h.chart, 4, seed=seed):
            assert weyl3.weyl_covariant_metric_residual(w, pt) < 1e-10


def test_weyl_covariant_metric_residual_evaluates_metric_once(monkeypatch):
    calls = []
    real = geo.metric_jets
    monkeypatch.setattr(geo, "metric_jets", lambda g, p: calls.append(p) or real(g, p))
    w = weyl3.WeylStructure3(con.berger_s3(0.8), con.berger_lee(0.5))
    assert weyl3.weyl_covariant_metric_residual(w, (1.2, 2.0, 3.0)) < 1e-10
    assert len(calls) == 1


def test_residuals_read_a_held_base_as_they_evaluate_h():
    """With the held base of h at the point, each residual that takes one
    gives, to the bit, what it gives when it evaluates h itself."""
    h = con.berger_s3(0.8)
    w = weyl3.WeylStructure3(h, con.berger_lee(0.7))
    c = geo.ScalarField(h.chart, lambda x: 1.6 + 0.0 * x[0])
    for pt in pts(h.chart, 3, seed=5):
        base = weyl3.hold(h, pt)
        for residual in (lambda **kw: weyl3.einstein_weyl_residual(w, pt, **kw),
                         lambda **kw: weyl3.beltrami_residual(w, -1, pt, **kw),
                         lambda **kw: weyl3.generalized_beltrami_residual(w, c, pt, **kw)):
            assert residual(base=base) == residual()
        G, dG = weyl3.weyl_connection_coeffs(w, pt)
        G_held, dG_held = weyl3.weyl_connection_coeffs(w, pt, base)
        assert np.array_equal(G, G_held) and np.array_equal(dG, dG_held)


def test_weyl_connection_correction_pattern_flat_dx():
    h = con.flat3()
    alpha = geo.OneFormField(h.chart, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0], 0.0 * c[0]],
                             "dx")
    w = weyl3.WeylStructure3(h, alpha)
    G, _ = weyl3.weyl_connection_coeffs(w, (0.1, 0.2, 0.3))
    # D_X Y - nabla_X Y = alpha(X) Y + alpha(Y) X - h(X,Y) alpha#
    expected = np.zeros((3, 3, 3))
    for a in range(3):
        for b in range(3):
            for c in range(3):
                if a == b and c == 0:
                    expected[a, b, c] += 1.0
                if a == c and b == 0:
                    expected[a, b, c] += 1.0
                if b == c and a == 0:
                    expected[a, b, c] -= 1.0
    assert np.max(np.abs(G - expected)) < 1e-12


@pytest.mark.parametrize("k", [-1.0, 0.0, 0.25, 1.0])
def test_einstein_weyl_constant_curvature_zero_lee(k):
    h = con.flat3() if k == 0.0 else con.constant_curvature3(k)
    w = weyl3.WeylStructure3(h, zero_form(h.chart))
    for pt in pts(h.chart, 4, seed=int(4 * abs(k) + 1)):
        assert weyl3.einstein_weyl_residual(w, pt) < 1e-10


def test_einstein_weyl_generic_lee_fails():
    h = con.flat3()
    w = weyl3.WeylStructure3(h, con.xdy())
    assert weyl3.einstein_weyl_residual(w, (0.3, -0.5, 0.8)) > 1e-2


def test_einstein_weyl_berger_family_and_bisection():
    mu = 0.8
    a_star = con.berger_ew_scale(mu)
    h = con.berger_s3(mu)
    pt = (1.2, 2.0, 3.0)

    def resid(a):
        return weyl3.einstein_weyl_residual(weyl3.WeylStructure3(h, con.berger_lee(a)), pt)

    assert resid(a_star) < 1e-10
    x, fx = weyl3.locate_residual_minimum(resid, 0.5, 1.4, tol=1e-8)
    assert abs(x - a_star) < 1e-6
    assert fx < 1e-7


def test_beltrami_residual_zero_form():
    h = con.flat3()
    w = weyl3.WeylStructure3(h, zero_form(h.chart))
    assert weyl3.beltrami_residual(w, 1, (0.1, 0.2, 0.3)) == 0.0


def test_beltrami_trkalian_both_signs():
    h = con.flat3()
    w = weyl3.WeylStructure3(h, con.trkalian(1))
    for pt in pts(h.chart, 3, seed=5):
        assert weyl3.beltrami_residual(w, -1, pt) < 1e-10
        assert weyl3.beltrami_residual(w, 1, pt) == pytest.approx(2.0, abs=1e-10)


def test_beltrami_conformal_covariance():
    # alpha_k = cos(kz) dx - sin(kz) dy satisfies d alpha = k * alpha; under
    # h~ = k^2 h the rescaled star gives *~ d alpha = alpha exactly.
    k = 2.0
    ch = con.flat3().chart
    alpha = geo.OneFormField(
        ch, lambda c: [jets.cos(k * c[2]), -1.0 * jets.sin(k * c[2]), 0.0 * c[2]], "alpha_k")
    h = con.flat3()
    h_scaled = geo.conformal_rescale(h, geo.ScalarField(ch, lambda c: k * k + 0.0 * c[0]))
    for pt in pts(ch, 4, seed=6):
        da = geo.form_values(geo.ext_d(alpha.jets(pt), 3), 3, 2)
        hv = h.values(pt)
        hv_scaled = h_scaled.values(pt)
        # raw star: * d alpha = k alpha
        star_da = geo.hodge_star(da, hv, 2)
        av = alpha.values(pt)
        assert np.max(np.abs(star_da - k * av)) < 1e-12
        # scaled star on 2-forms picks up 1/k
        star_da_scaled = geo.hodge_star(da, hv_scaled, 2)
        assert np.max(np.abs(star_da_scaled - av)) < 1e-12
        w_scaled = weyl3.WeylStructure3(h_scaled, alpha)
        assert weyl3.beltrami_residual(w_scaled, 1, pt) < 1e-12


def test_generalized_beltrami_constant_and_zero():
    h = con.flat3()
    zero = zero_form(h.chart)
    c = geo.ScalarField(h.chart, lambda c_: 3.0 + 0.0 * c_[0])
    w = weyl3.WeylStructure3(h, zero)
    assert weyl3.generalized_beltrami_residual(w, c, (0.1, 0.2, 0.3)) == 0.0


def test_generalized_beltrami_reduces_to_beltrami():
    h = con.flat3()
    alpha = con.trkalian(-1)       # d alpha = + * alpha
    one = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    w = weyl3.WeylStructure3(h, alpha)
    for pt in pts(h.chart, 3, seed=8):
        assert weyl3.generalized_beltrami_residual(w, one, pt) < 1e-12


def test_generalized_beltrami_closed_degenerate_branch():
    h = con.flat3()
    alpha = geo.OneFormField(h.chart, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0], 0.0 * c[0]],
                             "dx")
    zero_c = geo.ScalarField(h.chart, lambda c: 0.0 * c[0])
    w = weyl3.WeylStructure3(h, alpha)
    assert weyl3.generalized_beltrami_residual(w, zero_c, (0.4, 0.1, -0.2)) < 1e-14


def test_monopole_residual_trivial():
    h = con.flat3()
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    F = geo.TwoFormField(h.chart, lambda c: [[0.0 * c[0]] * 3] * 3)
    w = weyl3.WeylStructure3(h, zero_form(h.chart))
    assert weyl3.monopole_residual(u, w, F, (0.1, 0.2, 0.3)) == 0.0


def test_monopole_gh_pair_and_norm_of_du():
    h = con.flat3_spherical()
    u = con.gh_potential(1.0)
    A = con.dirac_A(1.0)
    F = geo.TwoFormField(h.chart, lambda c: geo.ext_d(A.fn(c), 3), "dA")
    w = weyl3.WeylStructure3(h, zero_form(h.chart))
    zero_F = geo.TwoFormField(h.chart, lambda c: [[0.0 * c[0]] * 3] * 3)
    for pt in pts(h.chart, 4, seed=9):
        assert weyl3.monopole_residual(u, w, F, pt) < 1e-9
        r = pt[0]
        assert weyl3.monopole_residual(u, w, zero_F, pt) == pytest.approx(
            1.0 / (2.0 * r * r), rel=1e-9)


def test_monopole_star_involution_identity():
    # F := *(du - u alpha) makes the residual vanish identically
    h = con.constant_curvature3(1.0)
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.3 * jets.sin(c[0]) * jets.cos(c[1]))
    alpha = con.trkalian(1)
    w = weyl3.WeylStructure3(h, alpha)

    def F_fn(c):
        uj = u.fn(c)
        av = alpha.fn(c)
        lhs = [uj.deriv(a) - uj * av[a] for a in range(3)]
        ptv = [x.value if isinstance(x, jets.Jet) else float(x) for x in c]
        hv = h.values(ptv)
        vals = np.array([x.value for x in lhs])
        Fv = geo.hodge_star(vals, hv, 1)
        return [[jets.constant(Fv[a][b], 3) for b in range(3)] for a in range(3)]

    F = geo.TwoFormField(h.chart, F_fn, "star(du-ua)")
    for pt in pts(h.chart, 3, seed=10):
        assert weyl3.monopole_residual(u, w, F, pt) < 1e-12


def test_closure_residual_cases():
    ch = con.flat3().chart
    const_F = geo.TwoFormField(ch, lambda c: [[0.0 * c[0], 1.0 + 0.0 * c[0], 0.0 * c[0]],
                                              [-1.0 + 0.0 * c[0], 0.0 * c[0], 0.0 * c[0]],
                                              [0.0 * c[0]] * 3], "dxdy")
    assert weyl3.closure_residual(const_F, (0.1, 0.2, 0.3)) == 0.0
    zdxdy = geo.TwoFormField(ch, lambda c: [[0.0 * c[0], c[2], 0.0 * c[0]],
                                            [-1.0 * c[2], 0.0 * c[0], 0.0 * c[0]],
                                            [0.0 * c[0]] * 3], "z dxdy")
    assert weyl3.closure_residual(zdxdy, (0.1, 0.2, 0.3)) == pytest.approx(1.0)


def test_round_sphere_lee_scale_curve_zero_at_origin():
    # on the round metric every left-invariant form is Killing-dual, so the
    # Einstein-Weyl residual grows quadratically in the scale: the located
    # minimum of the curve sits at scale 0
    h = con.round_s3_euler()
    ch = h.chart
    pt = (1.2, 2.0, 3.0)

    def lee(scale):
        return geo.OneFormField(
            ch, lambda c: [scale * 0.5 * (1.0 + 0.0 * c[0]) if i == 1 else
                           (scale * 0.5 * jets.cos(c[0]) if i == 2 else 0.0 * c[0])
                           for i in range(3)], "scaled_s3")

    def resid(scale):
        return weyl3.einstein_weyl_residual(weyl3.WeylStructure3(h, lee(scale)), pt)

    vals = [resid(s) for s in np.linspace(-0.5, 0.5, 5)]
    assert vals[2] < 1e-12 and vals[0] > 1e-2 and vals[-1] > 1e-2
    x, fx = weyl3.locate_residual_minimum(resid, -0.4, 0.4, tol=1e-8)
    assert abs(x) < 1e-6 and fx < 1e-8


# ---------------------------------------------------------------------------
# an independent route for Einstein-Weyl
# ---------------------------------------------------------------------------

def _einstein_weyl_closed_form(h, alpha, point):
    """|[Ric^h]_0 - [(nabla alpha)_sym - alpha (x) alpha]_0|_h: in dimension 3
    the trace-free symmetric Ricci tensor of D (D h = -2 alpha (x) h), from the
    Levi-Civita data of h and alpha's first jets alone, with the norm taken
    through h^-1 rather than an orthonormal frame."""
    mp = geo.metric_point(h, point)
    ric = geo.riemann(h, point)[2]
    aj = alpha.jets(point)
    av = np.array([a.value for a in aj])
    da = np.array([a.grad for a in aj]).T                # da[a, b] = d_a alpha_b
    nabla = da - np.einsum("cab,c->ab", mp.G, av)        # (nabla_a alpha)_b
    T = ric - (0.5 * (nabla + nabla.T) - np.outer(av, av))
    T0 = T - (np.einsum("ab,ab->", mp.ginv, T) / 3.0) * mp.g
    return float(np.sqrt(np.einsum("ab,cd,ac,bd->", T0, T0, mp.ginv, mp.ginv)))


SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def _scene(name):
    return cli.load_scene(os.path.join(SCENES, name))


def _assert_closed_form_matches(r):
    points, _ = r.sample_points()
    w = weyl3.WeylStructure3(r.h, r.lee_form)
    for p in points:
        base = tuple(p[1:]) if r.fm is not None else tuple(p)
        ref = weyl3.einstein_weyl_residual(w, base)
        got = _einstein_weyl_closed_form(r.h, r.lee_form, base)
        assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref)), (base, got, ref)


@pytest.mark.parametrize("name", sorted(os.listdir(SCENES)))
def test_einstein_weyl_closed_form_on_every_scene(name):
    """The closed form agrees with einstein_weyl_residual on each scene's base
    metric and Lee form, at the base point of every sample point."""
    _assert_closed_form_matches(cli.ResolvedScene(_scene(name)))


def test_einstein_weyl_closed_form_along_the_berger_sweep():
    """Every step of the README sweep of berger_ew_sweep.json (alpha scale
    0.5 to 1.4, 10 steps), and the Einstein-Weyl scale itself."""
    scene = _scene("berger_ew_sweep.json")
    keys = cli.scene_slot(scene, "alpha.params.scale")
    scales = list(np.linspace(0.5, 1.4, 10)) + [con.berger_ew_scale(0.8)]
    run = cli.Run()
    for scale in scales:
        _assert_closed_form_matches(cli.ResolvedScene(cli.with_slot(scene, keys, float(scale)), run))


@pytest.mark.parametrize("h, alpha", [
    (con.flat3(), con.trkalian(1)),                    # sqrt(7/6) everywhere (README)
    (con.constant_curvature3(1.0), con.xdy()),
    (con.berger_s3(0.6), con.berger_lee(con.berger_ew_scale(0.6))),
    con.variable_c_background()[:2],
], ids=["flat_trkalian", "cc3_xdy", "berger_ew", "variable_c"])
def test_einstein_weyl_closed_form_on_catalog_pairs(h, alpha):
    w = weyl3.WeylStructure3(h, alpha)
    for pt in pts(h.chart, 4, seed=9):
        ref = weyl3.einstein_weyl_residual(w, pt)
        got = _einstein_weyl_closed_form(h, alpha, pt)
        assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref)), (pt, got, ref)
