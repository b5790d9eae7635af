import os

import numpy as np
import pytest

from sdharm import cli, constructions as con, geometry as geo, jets, weyl3
from sdharm.errors import DimensionError

import _oracles as O
from _fieldgen import random_field
from _metrics import berger_ew_scale, conformal_rescale, variable_c_background


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
        weyl3.HeldBase(g4, (0.0, 0.0, 0.0, 0.0))


def test_weyl_connection_reduces_to_levi_civita():
    h = con.constant_curvature3(1.0)
    for pt in pts(h.chart, 3, seed=1):
        G = weyl3.weyl_connection_coeffs(weyl3.HeldBase(h, pt), zero_form(h.chart))
        gamma_lc = geo.metric_point(h, pt).G
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
        for pt in pts(h.chart, 4, seed=seed):
            assert weyl3.weyl_covariant_metric_residual(weyl3.HeldBase(h, pt), alpha) < 1e-10


def test_weyl_covariant_metric_residual_evaluates_metric_once(monkeypatch):
    calls = []
    real = geo.metric_jets
    monkeypatch.setattr(geo, "metric_jets", lambda g, p: calls.append(p) or real(g, p))
    base = weyl3.HeldBase(con.berger_s3(0.8), (1.2, 2.0, 3.0))
    assert weyl3.weyl_covariant_metric_residual(base, con.berger_lee(0.5)) < 1e-10
    assert len(calls) == 1


def test_residuals_read_a_held_base_as_they_evaluate_h():
    """With one held base of h at the point, shared by every residual, each
    gives, to the bit, what it gives on a base of its own that evaluates h
    afresh."""
    h, alpha = con.berger_s3(0.8), con.berger_lee(0.7)
    c = geo.ScalarField(h.chart, lambda x: 1.6 + 0.0 * x[0])
    for pt in pts(h.chart, 3, seed=5):
        base = weyl3.HeldBase(h, pt)
        for residual in (lambda b: weyl3.einstein_weyl_residual(b, alpha),
                         lambda b: weyl3.beltrami_residual(b, alpha, -1),
                         lambda b: weyl3.generalized_beltrami_residual(b, alpha, c)):
            assert residual(base) == residual(weyl3.HeldBase(h, pt))
        G_own = weyl3.weyl_connection_coeffs(weyl3.HeldBase(h, pt), alpha)
        assert np.array_equal(G_own, weyl3.weyl_connection_coeffs(base, alpha))


@pytest.mark.parametrize("n", [3, 1, None], ids=["batch", "one_row", "point"])
def test_a_field_read_through_a_held_base_is_its_own_arrays(n):
    """HeldBase.arrays and h's evaluation at the held point: every array
    equals, to the bit (the sign of a zero too) and in shape, the field's own
    ``arrays`` (and h's ``metric_point``) at the points.  The Lee forms after
    the first are their unit's held arrays times a scale."""
    h = con.berger_s3(0.8)
    points = pts(h.chart, 1, seed=9)[0] if n is None else np.array(pts(h.chart, n, seed=9))
    fields = [con.berger_lee(0.7), con.berger_lee(-0.7), con.berger_lee(0.0),
              geo.OneFormField(h.chart, lambda c: [jets.sin(c[0]) * c[1], 0.5, c[2] * c[2]], "mix"),
              geo.ScalarField(h.chart, lambda c: 1.6 + jets.cos(c[1]) * c[2], "c")]
    base = weyl3.HeldBase(h, points)
    for field in fields:
        for held, own in zip(base.arrays(field), field.arrays(points)):
            assert np.shape(held) == np.shape(own)
            assert np.asarray(held).tobytes() == np.asarray(own).tobytes()
    for held, own in zip(base.mp, geo.metric_point(h, points)):
        assert held.shape == own.shape and held.tobytes() == own.tobytes()


def test_weyl_connection_correction_pattern_flat_dx():
    h = con.flat3()
    alpha = geo.OneFormField(h.chart, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0], 0.0 * c[0]],
                             "dx")
    G = weyl3.weyl_connection_coeffs(weyl3.HeldBase(h, (0.1, 0.2, 0.3)), alpha)
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
    for pt in pts(h.chart, 4, seed=int(4 * abs(k) + 1)):
        assert weyl3.einstein_weyl_residual(weyl3.HeldBase(h, pt), zero_form(h.chart)) < 1e-10


def test_einstein_weyl_generic_lee_fails():
    h = con.flat3()
    assert weyl3.einstein_weyl_residual(weyl3.HeldBase(h, (0.3, -0.5, 0.8)), con.xdy()) > 1e-2


def test_einstein_weyl_berger_family_and_bisection():
    mu = 0.8
    a_star = berger_ew_scale(mu)
    h = con.berger_s3(mu)
    pt = (1.2, 2.0, 3.0)

    def resid(a):
        return weyl3.einstein_weyl_residual(weyl3.HeldBase(h, pt), con.berger_lee(a))

    assert resid(a_star) < 1e-10
    x, fx = weyl3.locate_residual_minimum(resid, 0.5, 1.4, tol=1e-8)
    assert abs(x - a_star) < 1e-6
    assert fx < 1e-7


def test_beltrami_residual_zero_form():
    h = con.flat3()
    base = weyl3.HeldBase(h, (0.1, 0.2, 0.3))
    assert weyl3.beltrami_residual(base, zero_form(h.chart), 1) == 0.0


def test_beltrami_trkalian_both_signs():
    h = con.flat3()
    alpha = con.trkalian(1)
    for pt in pts(h.chart, 3, seed=5):
        base = weyl3.HeldBase(h, pt)
        assert weyl3.beltrami_residual(base, alpha, -1) < 1e-10
        assert weyl3.beltrami_residual(base, alpha, 1) == pytest.approx(2.0, abs=1e-10)


def test_beltrami_conformal_covariance():
    # alpha_k = cos(kz) dx - sin(kz) dy satisfies d alpha = k * alpha; under
    # h~ = k^2 h the rescaled star gives *~ d alpha = alpha exactly.
    k = 2.0
    ch = con.flat3().chart
    alpha = geo.OneFormField(
        ch, lambda c: [jets.cos(k * c[2]), -1.0 * jets.sin(k * c[2]), 0.0 * c[2]], "alpha_k")
    h = con.flat3()
    h_scaled = conformal_rescale(h, geo.ScalarField(ch, lambda c: k * k + 0.0 * c[0]))
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
        assert weyl3.beltrami_residual(weyl3.HeldBase(h_scaled, pt), alpha, 1) < 1e-12


def test_generalized_beltrami_constant_and_zero():
    h = con.flat3()
    zero = zero_form(h.chart)
    c = geo.ScalarField(h.chart, lambda c_: 3.0 + 0.0 * c_[0])
    base = weyl3.HeldBase(h, (0.1, 0.2, 0.3))
    assert weyl3.generalized_beltrami_residual(base, zero, c) == 0.0


def test_generalized_beltrami_reduces_to_beltrami():
    h = con.flat3()
    alpha = con.trkalian(-1)       # d alpha = + * alpha
    one = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    for pt in pts(h.chart, 3, seed=8):
        assert weyl3.generalized_beltrami_residual(weyl3.HeldBase(h, pt), alpha, one) < 1e-12


def test_generalized_beltrami_closed_degenerate_branch():
    h = con.flat3()
    alpha = geo.OneFormField(h.chart, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0], 0.0 * c[0]],
                             "dx")
    zero_c = geo.ScalarField(h.chart, lambda c: 0.0 * c[0])
    base = weyl3.HeldBase(h, (0.4, 0.1, -0.2))
    assert weyl3.generalized_beltrami_residual(base, alpha, zero_c) < 1e-14


def test_monopole_residual_trivial():
    h = con.flat3()
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    F = geo.TwoFormField(h.chart, lambda c: [[0.0 * c[0]] * 3] * 3)
    base = weyl3.HeldBase(h, (0.1, 0.2, 0.3))
    assert weyl3.monopole_residual(base, u, zero_form(h.chart), F) == 0.0


def test_monopole_gh_pair_and_norm_of_du():
    h = con.flat3_spherical()
    u = con.gh_potential(1.0)
    A = con.dirac_A(1.0)
    F = geo.TwoFormField(h.chart, lambda c: geo.ext_d(A.fn(c), 3), "dA")
    zero, zero_F = zero_form(h.chart), geo.TwoFormField(h.chart, lambda c: [[0.0 * c[0]] * 3] * 3)
    for pt in pts(h.chart, 4, seed=9):
        base = weyl3.HeldBase(h, pt)
        assert weyl3.monopole_residual(base, u, zero, F) < 1e-9
        r = pt[0]
        assert weyl3.monopole_residual(base, u, zero, zero_F) == pytest.approx(
            1.0 / (2.0 * r * r), rel=1e-9)


def test_monopole_star_involution_identity():
    # F := *(du - u alpha) makes the residual vanish identically
    h = con.constant_curvature3(1.0)
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.3 * jets.sin(c[0]) * jets.cos(c[1]))
    alpha = con.trkalian(1)

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
        assert weyl3.monopole_residual(weyl3.HeldBase(h, pt), u, alpha, F) < 1e-12


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
        return weyl3.einstein_weyl_residual(weyl3.HeldBase(h, pt), lee(scale))

    vals = [resid(s) for s in np.linspace(-0.5, 0.5, 5)]
    assert vals[2] < 1e-12 and vals[0] > 1e-2 and vals[-1] > 1e-2
    x, fx = weyl3.locate_residual_minimum(resid, -0.4, 0.4, tol=1e-8)
    assert abs(x) < 1e-6 and fx < 1e-8


# ---------------------------------------------------------------------------
# an independent route for Einstein-Weyl
# ---------------------------------------------------------------------------

def _weyl_connection(h, av, da):
    """(Gamma, dGamma) of D from the base ``geo.MetricPoint`` h, which holds
    the Levi-Civita Gamma (its dGamma by ``_oracles.christoffel_jets``), and
    alpha's values and first derivatives: dGamma[a,b,c,d] = d_d Gamma^a_bc,
    C being linear in alpha."""
    a_up = (h.ginv @ av[..., None])[..., 0]
    da_up = np.einsum("...abd,...b->...ad", h.dginv, av) + h.ginv @ da
    # outer products by broadcasting, an index per axis: [..., a, b, c(, d)]
    delta = np.eye(3)
    C = (delta[:, :, None] * av[..., None, None, :] + delta[:, None, :] * av[..., None, :, None]
         - h.g[..., None, :, :] * a_up[..., :, None, None])
    dC = (delta[:, :, None, None] * da[..., None, None, :, :]
          + delta[:, None, :, None] * da[..., None, :, None, :]
          - h.dg[..., None, :, :, :] * a_up[..., :, None, None, None]
          - h.g[..., None, :, :, None] * da_up[..., :, None, None, :])
    return h.G + C, O.christoffel_jets(h.ginv, h.dginv, h.dg, h.ddg)[1] + dC


def _einstein_weyl_via_weyl_riemann(h, alpha, point):
    """The trace-free symmetrized Ricci tensor of D itself, in the frame norm:
    D's (Gamma, dGamma) from h's Levi-Civita data and alpha's jets, then D's
    Riemann tensor (``_oracles.riemann_from_gamma``), its Ricci contraction,
    symmetrized, with the trace taken out through h^-1."""
    mp = geo.metric_point(h, point)
    aj = alpha.jets(point)
    av = geo._lead(np.array([a.value for a in aj]), point)
    da = geo._lead(np.array([a.grad for a in aj]), point)       # da[b, d] = d_d alpha_b
    ric = np.einsum("...abad->...bd", O.riemann_from_gamma(*_weyl_connection(mp, av, da)))
    sym = 0.5 * (ric + ric.swapaxes(-1, -2))
    trace = np.einsum("...ab,...ab->...", mp.ginv, sym) / 3.0
    tracefree = sym - trace[..., None, None] * mp.g
    return geo.frame_norm(tracefree, geo.orthonormal_frame(mp.g))


def _assert_close(got, ref, where):
    assert abs(got - ref) <= 1e-10 * (1.0 + abs(ref)), (where, got, ref)


SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def _scene(name):
    return cli.load_scene(os.path.join(SCENES, name))


def _assert_scene_matches_oracle(r):
    points, _ = r.sample_points()
    for p in points:
        base = tuple(p[1:]) if r.fm is not None else tuple(p)
        _assert_close(weyl3.einstein_weyl_residual(weyl3.HeldBase(r.h, base), r.lee_form),
                               _einstein_weyl_via_weyl_riemann(r.h, r.lee_form, base), base)


@pytest.mark.parametrize("name", sorted(os.listdir(SCENES)))
def test_einstein_weyl_matches_the_weyl_riemann_oracle_on_every_scene(name):
    """einstein_weyl_residual agrees with the Ricci tensor of D's own Riemann
    tensor on each scene's base metric and Lee form, at the base point of
    every sample point."""
    _assert_scene_matches_oracle(cli.ResolvedScene(_scene(name)))


def test_einstein_weyl_matches_the_weyl_riemann_oracle_along_the_berger_sweep():
    """Every step of the README sweep of berger_ew_sweep.json (alpha scale
    0.5 to 1.4, 10 steps), and the Einstein-Weyl scale itself."""
    scene = _scene("berger_ew_sweep.json")
    keys = cli.scene_slot(scene, "alpha.params.scale")
    scales = list(np.linspace(0.5, 1.4, 10)) + [berger_ew_scale(0.8)]
    step = cli.ResolvedScene(scene)
    for scale in scales:
        step = cli.ResolvedScene(cli.with_slot(scene, keys, float(scale)), held=step)
        _assert_scene_matches_oracle(step)


@pytest.mark.parametrize("h, alpha", [
    (con.flat3(), con.trkalian(1)),                    # sqrt(7/6) everywhere (README)
    (con.constant_curvature3(1.0), con.xdy()),
    (con.berger_s3(0.6), con.berger_lee(berger_ew_scale(0.6))),
    variable_c_background()[:2],
], ids=["flat_trkalian", "cc3_xdy", "berger_ew", "variable_c"])
def test_einstein_weyl_matches_the_weyl_riemann_oracle_on_catalog_pairs(h, alpha):
    for pt in pts(h.chart, 4, seed=9):
        _assert_close(weyl3.einstein_weyl_residual(weyl3.HeldBase(h, pt), alpha),
                               _einstein_weyl_via_weyl_riemann(h, alpha, pt), pt)


def _random_form(chart, seed):
    rng = np.random.default_rng(seed)
    parts = [random_field(rng, 3) for _ in range(3)]
    return geo.OneFormField(chart, lambda c: [f(c) for f in parts], f"random{seed}")


BASES = {"flat3": con.flat3, "cc3": lambda: con.constant_curvature3(0.5),
         "berger": lambda: con.berger_s3(0.6)}


@pytest.mark.parametrize("name", sorted(BASES))
@pytest.mark.parametrize("seed", range(4))
def test_einstein_weyl_matches_the_weyl_riemann_oracle_on_random_forms(name, seed):
    """Seeded random Lee forms, far from Einstein-Weyl: the residual is O(1),
    so every term of the closed form (Ric^h, Gamma.alpha, alpha (x) alpha, the
    transposed d alpha) shows in the comparison."""
    h = BASES[name]()
    alpha = _random_form(h.chart, 100 * seed + len(name))
    refs = []
    for pt in pts(h.chart, 3, seed=seed):
        ref = _einstein_weyl_via_weyl_riemann(h, alpha, pt)
        _assert_close(weyl3.einstein_weyl_residual(weyl3.HeldBase(h, pt), alpha), ref, pt)
        refs.append(ref)
    assert max(refs) > 1e-2


@pytest.mark.parametrize("name", sorted(BASES))
def test_einstein_weyl_batch_matches_the_weyl_riemann_oracle_row_by_row(name):
    h = BASES[name]()
    alpha = _random_form(h.chart, 7)
    rows = pts(h.chart, 5, seed=11)
    got = weyl3.einstein_weyl_residual(weyl3.HeldBase(h, np.array(rows)), alpha)
    assert got.shape == (5,)
    for value, pt in zip(got, rows):
        _assert_close(value, _einstein_weyl_via_weyl_riemann(h, alpha, pt), pt)
