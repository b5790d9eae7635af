import ast
import dataclasses
import importlib
import json
import pkgutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import sdharm
from sdharm import cli, constructions as con, geometry as geo, jets, morphism as mor, weyl3
from sdharm.errors import GeometryError, NotHorizontallyConformalError

import _metrics
from _metrics import berger_ew_scale, conformal_rescale_fibration
import _oracles as O
from _oracles import fd_gradient, integrability_consistency, star_H_I as gram_schmidt_star


def pts(chart, n, seed=0, margin=0.2):
    rng = np.random.default_rng(seed)
    lo = np.asarray(chart.lo) + margin
    hi = np.asarray(chart.hi) - margin
    return [tuple(rng.uniform(lo, hi)) for _ in range(n)]


@pytest.fixture(scope="module")
def flat_product():
    h = con.flat3()
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    return mor.SubmersionSetup(con.jones_tod_metric(h, u))


@pytest.fixture(scope="module")
def gh_setup():
    return mor.SubmersionSetup(
        con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                             A=con.dirac_A(1.0)))


@pytest.fixture(scope="module")
def type2_setup():
    h = con.flat3()
    chart = geo.Chart(("tau",) + h.chart.names, (-1.5,) + h.chart.lo, (1.5,) + h.chart.hi)
    f = geo.ScalarField(chart, lambda c: jets.exp(2.0 * c[0]), "fibre_exp(2)")
    return mor.SubmersionSetup(con.type2_warped(h, f))


@pytest.fixture(scope="module")
def type3_setup():
    return mor.SubmersionSetup(con.type3_metric(con.flat3(), con.trkalian(1)))


@pytest.fixture(scope="module")
def type4_setup():
    return mor.SubmersionSetup(con.type4_metric(con.flat3(), con.trkalian(-1), c=1.0))


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilation_flat_product(flat_product):
    d = mor.dilation(flat_product, (0.4, 0.2, -0.3, 0.5))
    assert d.lam_sq == pytest.approx(1.0, abs=1e-12)
    assert d.anisotropy < 1e-12
    assert d.stored_mismatch < 1e-12


def test_dilation_type3_value(type3_setup):
    d = mor.dilation(type3_setup, (2.0, 0.2, -0.3, 0.5))
    assert d.lam_sq == pytest.approx(0.5, abs=1e-10)


def test_dilation_type4_value(type4_setup):
    d = mor.dilation(type4_setup, (0.0, 0.3, -0.4, 1.0))
    assert d.lam_sq == pytest.approx(0.5, abs=1e-10)   # 1/(e^0 + 1)


def test_dilation_not_conformal_raises():
    # squash one horizontal direction: no single conformal factor exists
    h = con.flat3()
    chart = geo.Chart(("tau",) + h.chart.names, (-1,) + h.chart.lo, (1,) + h.chart.hi)
    def fn(c):
        g = [[1.0 if a == b else 0.0 for b in range(4)] for a in range(4)]
        g[1][1] = 2.0 + 0.0 * c[0]
        return g
    fm = con.FibrationMetric(
        chart, h, geo.MetricField(chart, fn, "squashed"),
        geo.OneFormField(chart, lambda c: [1.0 + 0 * c[0], 0 * c[0], 0 * c[0], 0 * c[0]]),
        geo.ScalarField(chart, lambda c: 1.0 + 0.0 * c[0]), "broken")
    with pytest.raises(NotHorizontallyConformalError):
        mor.dilation(mor.SubmersionSetup(fm), (0.1, 0.2, 0.3, 0.4))


# ---------------------------------------------------------------------------
# second fundamental traces
# ---------------------------------------------------------------------------

def test_traces_flat_product(flat_product):
    ctx = flat_product.ctx((0.4, 0.2, -0.3, 0.5))
    bv, bh = ctx.vertical_trace_flat[0], ctx.horizontal_trace_flat[0]
    assert np.max(np.abs(bv)) < 1e-14
    assert np.max(np.abs(bh)) < 1e-14


def test_traces_type2_geodesic_fibres_curved_slices(type2_setup):
    pt = (0.3, 0.2, -0.3, 0.5)
    ctx = type2_setup.ctx(pt)
    bv, bh = ctx.vertical_trace_flat[0], ctx.horizontal_trace_flat[0]
    assert np.max(np.abs(bv)) < 1e-12
    # warped slices: trace B_H lowered = -3 dtau for f = e^{2 tau}
    assert bh[0] == pytest.approx(-3.0, abs=1e-10)
    assert np.max(np.abs(bh[1:])) < 1e-12


def test_traces_gh_killing_closed_form(gh_setup):
    # Killing-generated fibres: trace Bv = 1/2 grad_g log u, lowered = 1/2 d log u
    for pt in pts(gh_setup.fm.total_chart, 5, seed=3):
        bv = gh_setup.ctx(pt).vertical_trace_flat[0]
        r = pt[1]
        u = 1.0 + 1.0 / (2.0 * r)
        expected = np.zeros(4)
        expected[1] = 0.5 * (-1.0 / (2.0 * r * r)) / u
        assert np.max(np.abs(bv - expected)) < 1e-10


# ---------------------------------------------------------------------------
# integrability form
# ---------------------------------------------------------------------------

def test_integrability_type2_and_type3_A0(type2_setup):
    assert np.max(np.abs(type2_setup.ctx((0.3, 0.2, -0.3, 0.5)).integrability)) < 1e-12
    t3 = mor.SubmersionSetup(con.type3_metric(con.flat3()))
    assert np.max(np.abs(t3.ctx((1.0, 0.2, -0.3, 0.5)).integrability)) < 1e-12


def test_integrability_matches_dtheta(gh_setup, type3_setup, type4_setup):
    for setup in (gh_setup, type3_setup, type4_setup):
        for pt in pts(setup.fm.total_chart, 4, seed=5):
            assert integrability_consistency(setup, pt) < 1e-9


def test_integrability_type4_nonzero(type4_setup):
    I = type4_setup.ctx((0.2, 0.3, -0.4, 1.0)).integrability
    assert np.max(np.abs(I)) > 1e-2


def _scene_fibrations():
    """{scene and orientation: (fibration, points)}: each scene's sample points
    and the four classify fibre samples about each, at orientation +1 and -1."""
    out = {}
    for path in sorted((Path(__file__).parent.parent / "scenes").glob("*.json")):
        scene = json.loads(path.read_text())
        for orientation in (1, -1):
            r = cli.ResolvedScene(cli.validate_scene(dict(scene, orientation=orientation)))
            if r.fm is not None:
                points = r.sample_points()[0]
                points += [s for p in points for s in mor.fibre_samples_about(r.fm, p, 4)]
                out[f"{path.stem}{orientation:+d}"] = r.fm, points
    return out


SCENE_FIBRATIONS = _scene_fibrations()


@pytest.mark.parametrize("name", sorted(SCENE_FIBRATIONS))
def test_star_H_I_matches_the_gram_schmidt_star(name):
    """The frame-free *_H I is the star taken in a Gram-Schmidt horizontal
    frame, within 1e-13 (1 + its largest entry): read at one point, on a
    one-row batch of each point, and on the batch of all points."""
    fm, points = SCENE_FIBRATIONS[name]
    setup = mor.SubmersionSetup(fm)

    def assert_close(star, ref):
        assert np.max(np.abs(star - ref)) <= 1e-13 * (1 + np.max(np.abs(ref))), name

    batch = mor.PointEval(setup, points)
    assert_close(batch.star_H_I, gram_schmidt_star(batch))
    for p in points:
        row = setup.ctx(p)
        assert row.star_H_I.shape == (4,)
        assert_close(row.star_H_I, gram_schmidt_star(row.batch)[row.index])
        one = mor.PointEval(setup, [p])
        assert_close(one.star_H_I, gram_schmidt_star(one))


def _largest(x):
    """The largest |entry| at each point of an array with a leading point axis."""
    return np.max(np.abs(x), axis=tuple(range(1, x.ndim)))


@pytest.mark.parametrize("name", sorted(SCENE_FIBRATIONS))
def test_coframe_forms_match_the_christoffel_route(name):
    """The trace forms (value and derivative), nabla_U U and the integrability
    form from the unit vertical coframe are those through Gamma and dGamma of
    the lifted coordinate frame (``_oracles``), within 1e-13 (1 + |ref|) at
    each point, |.| the largest entry; where the Christoffel route's
    integrability form is zero, the coframe's is within 1e-15 (1 + |ref|)."""
    fm, points = SCENE_FIBRATIONS[name]
    pe = mor.PointEval(mor.SubmersionSetup(fm), points)
    lifts = O.lift_inputs(pe)
    pairs = [(pe.vertical_trace_flat, O.vertical_trace_flat(lifts)),
             (pe.horizontal_trace_flat, O.horizontal_trace_flat(lifts)),
             ((pe.vertical_trace,), O.vertical_trace(lifts)[:1]),
             ((pe.integrability,), (O.integrability(lifts),))]
    for new, ref in pairs:
        for a, b in zip(new, ref):
            assert a.shape == b.shape
            assert np.all(_largest(a - b) <= 1e-13 * (1 + _largest(b))), (name, _largest(a - b))
    ref = O.integrability(lifts)
    moved = np.where(ref == 0.0, np.abs(pe.integrability), 0.0)
    assert np.all(_largest(moved) <= 1e-15 * (1 + _largest(ref))), name


# ---------------------------------------------------------------------------
# fundamental equation
# ---------------------------------------------------------------------------

def test_fundamental_all_catalog_families(flat_product, gh_setup, type2_setup,
                                          type3_setup, type4_setup):
    for setup in (flat_product, gh_setup, type2_setup, type3_setup, type4_setup):
        for pt in pts(setup.fm.total_chart, 5, seed=7):
            assert mor.fundamental_eq_residual(setup, pt) < 1e-8


def test_fundamental_broken_dilation_control(type3_setup):
    broken = dataclasses.replace(
        type3_setup.fm,
        dilation_sq_inv=geo.ScalarField(type3_setup.fm.total_chart,
                                        lambda c: c[0] * c[0], "rho^2"))
    s = mor.SubmersionSetup(broken)
    assert mor.fundamental_eq_residual(s, (1.0, 0.2, -0.3, 0.5)) > 1e-3


# ---------------------------------------------------------------------------
# Lee forms
# ---------------------------------------------------------------------------

def test_lee_form_flat_zero(flat_product):
    assert np.max(np.abs(flat_product.ctx((0.4, 0.2, -0.3, 0.5)).induced_lee)) < 1e-14


def test_lee_form_type3_A0_zero():
    s = mor.SubmersionSetup(con.type3_metric(con.constant_curvature3(1.0)))
    for pt in pts(s.fm.total_chart, 4, seed=8):
        assert np.max(np.abs(s.ctx(pt).induced_lee)) < 1e-10


def test_projected_lee_type4_matches_alpha(type4_setup):
    alpha = con.trkalian(-1)
    for pt in pts(type4_setup.fm.total_chart, 5, seed=9):
        b, vert = mor.projected_lee_form(type4_setup, pt)
        assert np.max(np.abs(b - alpha.values(pt[1:]))) < 1e-9
        assert vert < 1e-10


def test_projected_lee_gh_vanishes(gh_setup):
    for pt in pts(gh_setup.fm.total_chart, 5, seed=10):
        b, vert = mor.projected_lee_form(gh_setup, pt)
        assert np.max(np.abs(b)) < 1e-10 and vert < 1e-10


# ---------------------------------------------------------------------------
# twistorial residuals: Theorem-style biconditional over instances
# ---------------------------------------------------------------------------

def catalog_setups():
    h = con.flat3()
    chart = geo.Chart(("tau",) + h.chart.names, (-1.5,) + h.chart.lo, (1.5,) + h.chart.hi)
    f = geo.ScalarField(chart, lambda c: jets.exp(2.0 * c[0]))
    return {
        "type1": mor.SubmersionSetup(
            con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                                 A=con.dirac_A(1.0))),
        "type2": mor.SubmersionSetup(con.type2_warped(h, f)),
        "type3": mor.SubmersionSetup(con.type3_metric(con.flat3(), con.trkalian(1))),
        "type4": mor.SubmersionSetup(con.type4_metric(con.flat3(), con.trkalian(-1), c=1.0)),
    }


def control_setups():
    return {
        "type3_xdy": mor.SubmersionSetup(con.type3_metric(con.flat3(), con.xdy())),
        "type4_sign_mismatch": mor.SubmersionSetup(
            con.type4_metric(con.flat3(), con.trkalian(1), c=1.0)),
    }


def test_twistorial_biconditional_over_instances():
    for name, setup in catalog_setups().items():
        for pt in pts(setup.fm.total_chart, 3, seed=11):
            samples = mor.fibre_samples_about(setup.fm, pt, 3)
            assert mor.twistorial_basic_residual(setup, samples) < 1e-8, name
            assert mor.twistorial_sd_residual(setup, pt) < 1e-7, name
    for name, setup in control_setups().items():
        pt = (0.7, 0.6, 0.5, -0.4) if "type3" in name else (0.2, 0.6, -0.4, 1.0)
        samples = mor.fibre_samples_about(setup.fm, pt, 3)
        assert mor.twistorial_basic_residual(setup, samples) > 1e-4, name
        assert mor.twistorial_sd_residual(setup, pt) > 1e-4, name


def test_twistorial_samples_validation(type3_setup):
    with pytest.raises(ValueError):
        mor.twistorial_basic_residual(type3_setup,
                                      [(1.0, 0.1, 0.2, 0.3), (1.5, 0.4, 0.2, 0.3)])


# ---------------------------------------------------------------------------
# monopole equation and pulled-back connections
# ---------------------------------------------------------------------------

def held_base(setup, pt):
    """The base metric held at the point's base point, as a job holds it."""
    return weyl3.HeldBase(setup.fm.h, tuple(pt[1:]))


def test_monopole_eq_gh(gh_setup):
    for pt in pts(gh_setup.fm.total_chart, 4, seed=12):
        assert mor.monopole_eq_residual(gh_setup, None, pt, held_base(gh_setup, pt)) < 1e-9


def test_monopole_eq_type4_lee_form(type4_setup):
    alpha = con.trkalian(-1)
    for pt in pts(type4_setup.fm.total_chart, 4, seed=13):
        assert mor.monopole_eq_residual(type4_setup, alpha, pt, held_base(type4_setup, pt)) < 1e-8


def test_monopole_eq_wrong_lee_form(gh_setup):
    ch = con.flat3_spherical().chart
    alpha = geo.OneFormField(ch, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0], 0.0 * c[0]])
    pt = (0.3, 1.0, 1.2, 2.5)
    assert mor.monopole_eq_residual(gh_setup, alpha, pt, held_base(gh_setup, pt)) > 1e-3


def test_pullback_trivial_pair(flat_product):
    h = con.flat3()
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    assert mor.pullback_sd_residual(flat_product, u, None, (0.4, 0.2, -0.3, 0.5)) < 1e-14


def test_pullback_gh_monopole_pair(gh_setup):
    for pt in pts(gh_setup.fm.total_chart, 4, seed=14):
        assert mor.pullback_sd_residual(gh_setup, con.gh_potential(2.0),
                                        con.dirac_A(2.0), pt) < 1e-8


def test_pullback_corrupted_pair(gh_setup):
    ch = con.flat3_spherical().chart
    bad = geo.OneFormField(
        ch, lambda c: [0.0 * c[0], 0.0 * c[0], (jets.cos(c[1]) - 1.0) + 0.3 * c[0]])
    assert mor.pullback_sd_residual(gh_setup, con.gh_potential(2.0), bad,
                                    (0.3, 1.0, 1.2, 2.5)) > 1e-4


def test_pullback_own_pair_flat_connection(gh_setup):
    # the fibration's own monopole pair pulls back to a flat connection:
    # the connection form collapses to -dtau
    for pt in pts(gh_setup.fm.total_chart, 3, seed=15):
        assert mor.pullback_sd_residual(gh_setup, con.gh_potential(1.0),
                                        con.dirac_A(1.0), pt) < 1e-8
    ctx = gh_setup.ctx((0.3, 1.0, 1.2, 2.5))
    cj = jets.seed_all((0.3, 1.0, 1.2, 2.5))
    L = gh_setup.fm.dilation_sq_inv.fn(cj)
    th = gh_setup.fm.theta.fn(cj)
    u = con.gh_potential(1.0).fn(cj[1:])
    A = con.dirac_A(1.0).fn(cj[1:])
    tilde = [-1.0 * u * (th[a] / L) for a in range(4)]
    for i in range(3):
        tilde[i + 1] = tilde[i + 1] + A[i]
    dA = geo.form_values(geo.ext_d(tilde, 4), 4, 2)
    assert np.max(np.abs(dA)) < 1e-12


# ---------------------------------------------------------------------------
# two-of-three property on the warped family
# ---------------------------------------------------------------------------

def test_type2_joint_residuals(type2_setup):
    for pt in pts(type2_setup.fm.total_chart, 5, seed=16):
        ctx = type2_setup.ctx(pt)
        assert np.max(np.abs(ctx.vertical_trace_flat[0])) < 1e-9   # geodesic fibres
        assert np.max(np.abs(ctx.dH_log_lambda)) < 1e-8   # horizontal homothety
        assert mor.fundamental_eq_residual(type2_setup, pt) < 1e-8


# ---------------------------------------------------------------------------
# classifier
# ---------------------------------------------------------------------------

def test_classify_all_families(flat_product, gh_setup, type2_setup, type3_setup,
                               type4_setup):
    cases = [(gh_setup, "type1"), (type2_setup, "type2_conformal"),
             (type3_setup, "type3"), (type4_setup, "type4")]
    for setup, expected in cases:
        pt = pts(setup.fm.total_chart, 1, seed=17)[0]
        samples = mor.fibre_samples_about(setup.fm, pt, 4)
        cls = mor.classify_type(setup, samples)
        assert cls.label == expected
        if expected == "type4":
            assert cls.recovered_c == pytest.approx(1.0, abs=1e-6)


def test_classify_type3_v1_is_one(type3_setup):
    samples = mor.fibre_samples_about(type3_setup.fm, (1.0, 0.2, -0.3, 0.5), 4)
    cls = mor.classify_type(type3_setup, samples)
    assert cls.label == "type3"
    assert np.allclose(cls.evidence["V_lam_inv_sq"], 1.0, atol=1e-10)


def test_classify_requires_three_samples(type3_setup):
    with pytest.raises(ValueError):
        mor.classify_type(type3_setup, mor.fibre_samples_about(type3_setup.fm,
                                                               (1.0, 0.2, -0.3, 0.5), 2))


def test_classify_nonstandard_on_controls():
    for name, setup in control_setups().items():
        pt = (0.7, 0.6, 0.5, -0.4) if "type3" in name else (0.2, 0.6, -0.4, 1.0)
        samples = mor.fibre_samples_about(setup.fm, pt, 4)
        assert mor.classify_type(setup, samples).label == "nonstandard", name


def test_classify_invariances():
    w_flat = geo.ScalarField(con.flat3().chart,
                             lambda c: 1.0 + 0.5 * jets.sin(c[0]), "w")
    w_sph = geo.ScalarField(con.flat3_spherical().chart,
                            lambda c: 1.0 + 0.5 * jets.sin(c[0]), "w")
    for name, setup in catalog_setups().items():
        fm = setup.fm
        pt = pts(fm.total_chart, 1, seed=18)[0]
        base_label = mor.classify_type(setup, mor.fibre_samples_about(fm, pt, 4))
        # fibre translation
        pt_shift = (pt[0] + 0.2 * (fm.total_chart.hi[0] - fm.total_chart.lo[0]) * 0.3,
                    ) + pt[1:]
        shifted = mor.classify_type(setup, mor.fibre_samples_about(fm, pt_shift, 4))
        assert shifted.label == base_label.label, name
        # basic conformal rescale
        w = w_sph if name == "type1" else w_flat
        rescaled = conformal_rescale_fibration(fm, w)
        cls = mor.classify_type(mor.SubmersionSetup(rescaled),
                                mor.fibre_samples_about(rescaled, pt, 4))
        assert cls.label == base_label.label, name
        if name == "type4":
            assert cls.recovered_c == pytest.approx(base_label.recovered_c, abs=1e-6)


def _classify_held(setup, points):
    """classify_type at each point, its fibre samples held as one batch."""
    samples = [mor.fibre_samples_about(setup.fm, p, 4) for p in points]
    setup.hold([s for ss in samples for s in ss])
    return [mor.classify_type(setup, ss) for ss in samples]


RESCALE_FAMILIES = {"type1": "type1", "type3": "type3", "type4": "type4"}


@settings(max_examples=20, deadline=None)
@given(st.sampled_from(sorted(RESCALE_FAMILIES)), st.integers(1, 3),
       st.integers(0, 2 ** 31 - 1), st.floats(0.05, 0.8), st.floats(0.3, 2.0),
       st.floats(0.0, 6.3), st.integers(0, 2))
def test_basic_conformal_rescale_keeps_label_and_c(family, n, seed, amp, freq, phase, axis):
    """A basic factor w = 1 + amp sin(freq x^axis + phase) > 0 rescales the
    metric conformally; the classifier, run on held batches, gives the same
    label and recovered c at drawn points."""
    setup = catalog_setups()[family]
    fm = setup.fm
    w = geo.ScalarField(fm.h.chart,
                        lambda c: 1.0 + amp * jets.sin(freq * c[axis] + phase), "w")
    rescaled = mor.SubmersionSetup(conformal_rescale_fibration(fm, w))
    points = pts(fm.total_chart, n, seed=seed)
    for before, after in zip(_classify_held(setup, points), _classify_held(rescaled, points)):
        assert before.label == after.label == RESCALE_FAMILIES[family]
        if family == "type4":
            assert after.recovered_c == pytest.approx(before.recovered_c, abs=1e-6)
            assert before.recovered_c == pytest.approx(1.0, abs=1e-6)


def test_a_failing_hold_names_one_point_in_its_chained_error():
    """A batch hold that fails is evaluated point by point; the batch's own
    error, chained to the one raised, names its first failing point, not the
    whole array of points."""
    fm = con.type2_warped(con.flat3(), con.fibre_exp(3.0), fibre_range=(0.0, 400.0))
    with pytest.raises(GeometryError) as info:      # e^33 makes g singular at tau = 11
        mor.SubmersionSetup(fm).hold([(1.0, 0.1, 0.2, 0.3), (11.0, 0.1, 0.2, 0.3),
                                      (12.0, 0.1, 0.2, 0.3)])
    for error in (info.value, info.value.__context__):
        assert str(error).startswith("metric is singular at point (11.0, 0.1, 0.2, 0.3) (det g")
        assert str(error).count("at point") == 1 and "array" not in str(error)


def _chain(error):
    """The error and its contexts, innermost first."""
    return [error] + (_chain(error.__context__) if error.__context__ is not None else [])


@pytest.mark.parametrize("first", ["off_chart", "singular"])
def test_a_hold_with_failing_samples_in_both_halves_names_the_first(first):
    """One sample off the chart and one whose metric is singular, one in each
    half of the hold, in either order: the hold raises the error of the first
    that fails alone, though the batch (which checks the chart first) names
    the point off the chart, and its chain of contexts ends at the batch's
    error."""
    fm = con.type2_warped(con.flat3(), con.fibre_exp(3.0), fibre_range=(0.0, 400.0))
    setup = mor.SubmersionSetup(fm)
    off_chart, singular = (-1.0, 0.1, 0.2, 0.3), (11.0, 0.1, 0.2, 0.3)
    bad = [off_chart, singular] if first == "off_chart" else [singular, off_chart]
    points = [(1.0, 0.1, 0.2, 0.3), bad[0], (2.0, 0.1, 0.2, 0.3), bad[1]]
    with pytest.raises(GeometryError) as batch:
        mor.PointEval(setup, points)
    with pytest.raises(GeometryError) as alone:
        mor.PointEval(setup, [bad[0]])
    with pytest.raises(GeometryError) as info:
        setup.hold(points)
    chain = _chain(info.value)
    assert str(chain[0]) == str(alone.value)
    assert str(chain[0]).startswith("point (-1.0, " if first == "off_chart"
                                    else "metric is singular at point (11.0, ")
    assert str(chain[-1]) == str(batch.value) and "outside chart domain" in str(batch.value)
    assert len(chain) == 3           # the one-point job, its half, the batch


def test_a_batch_names_its_point_off_the_chart_as_that_point_alone(type2_setup):
    """``Chart.require_inside`` names a batch's first row off the chart in
    Python floats, with the message the one-point batch gives, not numpy
    reprs."""
    off_chart, good = (-2.0, 0.1, 0.2, 0.3), (0.5, 0.1, 0.2, 0.3)
    with pytest.raises(GeometryError) as batch:
        mor.PointEval(type2_setup, [off_chart, good])
    with pytest.raises(GeometryError) as alone:
        mor.PointEval(type2_setup, [off_chart])
    assert str(batch.value) == str(alone.value)
    assert str(alone.value).startswith("point (-2.0, 0.1, 0.2, 0.3) outside chart domain")
    assert "np.float64" not in str(batch.value) + str(alone.value)


def test_a_hold_that_fails_only_as_a_batch_raises_the_batchs_error(monkeypatch):
    """A batch may fail where each of its points passes alone (a bound met
    only by the batch's round-off): the hold then raises the batch's error,
    and holds nothing of the halves that passed."""
    fm = con.type2_warped(con.flat3(), con.fibre_exp(3.0), fibre_range=(0.0, 400.0))
    points = [(1.0, 0.1, 0.2, 0.3), (2.0, 0.1, 0.2, 0.3), (3.0, 0.1, 0.2, 0.3)]

    class Together(mor.PointEval):
        def __init__(self, setup, batch):
            if len(batch) == len(points):
                raise GeometryError("fails together")
            super().__init__(setup, batch)

    monkeypatch.setattr(mor, "PointEval", Together)
    setup = mor.SubmersionSetup(fm)
    setup.hold(points[:1])
    with pytest.raises(GeometryError, match="^fails together$"):
        setup.hold(points)
    assert list(setup._index) == points[:1]


def test_a_hold_of_several_fibres_raises_its_batchs_error_at_once(counted):
    """A hold over several fibres is evaluated once: one failing sample
    raises the batch's own error, with no context, and no half is evaluated;
    ``cli._evaluate`` splits a failing job by point down to one-fibre holds."""
    built, _ = counted
    fm = con.type2_warped(con.flat3(), con.fibre_exp(3.0), fibre_range=(0.0, 400.0))
    points = [(1.0, 0.1, 0.2, 0.3), (2.0, 0.5, 0.2, 0.3), (11.0, 0.1, 0.2, 0.3),
              (3.0, 0.1, 0.6, 0.3)]
    with pytest.raises(GeometryError) as batch:
        mor.PointEval(mor.SubmersionSetup(fm), points)
    built.clear()
    with pytest.raises(GeometryError) as info:          # e^33 makes g singular at tau = 11
        mor.SubmersionSetup(fm).hold(points)
    assert built == [points]
    assert str(info.value) == str(batch.value) and info.value.__context__ is None
    assert str(info.value).startswith("metric is singular at point (11.0, 0.1, 0.2, 0.3)")


def test_fibre_samples_of_an_array_stack_each_points_samples(type4_setup):
    """The samples about an ``(N, 4)`` array are those about each row, bit for
    bit, at the fibre coordinates t0 + (i - (count - 1)/2) spacing, spacing
    15% of the fibre range over count - 1, and on the row's base point."""
    fm = type4_setup.fm
    points = np.array(pts(fm.total_chart, 5, seed=33))
    lo, hi = fm.total_chart.lo[0], fm.total_chart.hi[0]
    for count in (3, 4):
        samples = mor.fibre_samples_about(fm, points, count)
        assert samples.shape == (5, count, 4)
        rows = [mor.fibre_samples_about(fm, p, count) for p in points.tolist()]
        assert samples.tobytes() == np.stack(rows).tobytes()
        spacing = 0.15 * (hi - lo) / (count - 1)
        for p, fibre in zip(points.tolist(), samples):
            ts = sorted(set(np.clip(p[0] + (np.arange(count) - (count - 1) / 2.0) * spacing,
                                    lo + 0.02 * (hi - lo), hi - 0.02 * (hi - lo))))
            assert fibre[:, 0].tolist() == ts and (fibre[:, 1:] == p[1:]).all()


def test_a_sample_clipped_at_a_fibre_end_repeats(type4_setup):
    """rho = 1.4 lies within 4.5% of the fibre range (-1.5, 1.5) of its end:
    two of its four samples clip to rho = 1.44 and both are kept, and the
    basic residual over the four rows is its value over the three distinct
    ones, bit for bit."""
    setup = mor.SubmersionSetup(type4_setup.fm)
    samples = mor.fibre_samples_about(setup.fm, (1.4, 0.2, 0.3, 0.4), 4)
    assert samples.shape == (4, 4)
    assert samples[:, 0].tolist() == pytest.approx([1.175, 1.325, 1.44, 1.44], abs=1e-12)
    assert samples[2].tolist() == samples[3].tolist()
    both = mor.twistorial_basic_residual(setup, samples)
    assert both == mor.twistorial_basic_residual(setup, samples[:3])


def test_fibre_samples_name_a_point_off_the_chart_itself(type4_setup):
    """A point off the chart in a base coordinate has no samples about it: the
    chart's error names the point, the first such row of an array too."""
    fm = type4_setup.fm
    for points in ((0.5, 3.0, 0.2, 0.3), [(0.5, 0.1, 0.2, 0.3), (0.5, 3.0, 0.2, 0.3)]):
        with pytest.raises(GeometryError, match=r"^point \(0\.5, 3\.0, 0\.2, 0\.3\) outside"):
            mor.fibre_samples_about(fm, points, 4)


def test_classify_records_the_gate_that_decided():
    """evidence["decided_by"] names the deciding gate on every label."""
    expected = {"type1": "BRANCH_TOL: V_lam_inv_sq",
                "type2": "SPREAD_GATE_TOL: integrability, homothety_spread",
                "type3": "BRANCH_TOL: a", "type4": "C_SPREAD_TOL: recovered_c"}
    for name, setup in catalog_setups().items():
        cls, = _classify_held(setup, pts(setup.fm.total_chart, 1, seed=20))
        assert cls.evidence["decided_by"] == expected[name], name
    for name, setup in control_setups().items():
        pt = (0.7, 0.6, 0.5, -0.4) if "type3" in name else (0.2, 0.6, -0.4, 1.0)
        cls, = _classify_held(setup, [pt])
        assert cls.label == "nonstandard"
        assert cls.evidence["decided_by"] == "SD_GATE_TOL: twistorial_sd", name
    h = con.flat3()
    u = geo.ScalarField(h.chart, lambda c: 1.0 + 0.0 * c[0])
    fm = con.jones_tod_metric(h, u)
    broken = mor.SubmersionSetup(dataclasses.replace(fm, h=con.berger_s3(0.5)))
    cls = mor.classify_type(broken, mor.fibre_samples_about(fm, (0.5, 1.0, 1.2, 1.5), 4))
    assert (cls.label, cls.evidence["decided_by"]) == ("nonstandard",
                                                       "H_CONFORMAL_TOL: anisotropy")


def test_the_anisotropy_gate_records_the_first_sample_above_its_bound():
    """A fibre whose anisotropy crosses H_CONFORMAL_TOL at its second sample:
    the evidence is that sample's anisotropy, as dilation names it."""
    class Rows:
        conformality = (None, np.array([1e-9, 3e-8, 5e-8, 1e-9]), None)

    class Setup:
        def rows(self, samples):
            return Rows()

    cls = mor.classify_type(Setup(), [(t, 0.1, 0.2, 0.3) for t in (0.0, 0.1, 0.2, 0.3)])
    assert (cls.label, cls.evidence["decided_by"]) == ("nonstandard",
                                                       "H_CONFORMAL_TOL: anisotropy")
    assert cls.evidence["anisotropy"] == 3e-8


# gate -> (fibration and point, decided_by); each gate before it passes
GATE_FIBRATIONS = {
    "twistorial_basic": (_metrics.aliased_lee_form, "SPREAD_GATE_TOL: twistorial_basic"),
    "defect_spread": (_metrics.fibre_dependent_rescale,
                      "SPREAD_GATE_TOL: harmonicity_defect_spread"),
    "sign": (_metrics.turning_warp, "sign: V_lam_inv_sq"),
    "recovered_c": (_metrics.nearly_type4_warp, "C_SPREAD_TOL: recovered_c"),
    "integrability": (_metrics.slightly_twisted_warp, "SPREAD_GATE_TOL: integrability"),
}


@pytest.mark.parametrize("gate", sorted(GATE_FIBRATIONS))
def test_each_nonstandard_gate_decides_on_its_fibration(gate):
    """Each fibration passes every gate before its own, which decides
    "nonstandard"; the evidence shows the margins."""
    build, decided_by = GATE_FIBRATIONS[gate]
    fm, point = build()
    cls = mor.classify_type(mor.SubmersionSetup(fm), mor.fibre_samples_about(fm, point, 4))
    ev = cls.evidence
    assert (cls.label, ev["decided_by"], cls.recovered_c) == ("nonstandard", decided_by, None)
    assert max(ev["twistorial_sd"]) < mor.SD_GATE_TOL
    if gate == "twistorial_basic":
        assert ev["twistorial_basic"] > 1e5 * max(ev["twistorial_sd"])
        return
    assert ev["twistorial_basic"] < mor.SPREAD_GATE_TOL
    if gate == "defect_spread":
        assert ev["harmonicity_defect_spread"] > 1e-2
        return
    assert ev["harmonicity_defect_spread"] < mor.SPREAD_GATE_TOL
    v1 = np.array(ev["V_lam_inv_sq"])
    if gate == "sign":
        assert v1.min() < 0 < v1.max() and "V_log_V_lam_inv_sq" not in ev
        return
    assert np.all(v1 > 0)
    v2 = np.array(ev["V_log_V_lam_inv_sq"])
    if gate == "recovered_c":
        assert np.ptp(v2) < mor.BRANCH_TOL * (1 + abs(ev["a"]))
        c = np.array(ev["recovered_c"])
        assert np.ptp(c) > mor.C_SPREAD_TOL * (1 + abs(c.mean()))
        return
    assert np.ptp(v2) > 1e-2 and ev["integrability"] > mor.SPREAD_GATE_TOL


def test_a_fibre_along_which_V_lam_inv_sq_is_negative_flips_the_field():
    """The type-4 fibration with its fibre coordinate reversed: V(lam^-2) < 0
    at every sample, so the classifier reads -V, and it is type 4 with c = 1,
    as with the fibre the right way round."""
    fm, point = _metrics.reversed_type4()
    cls = mor.classify_type(mor.SubmersionSetup(fm), mor.fibre_samples_about(fm, point, 4))
    assert (cls.label, cls.evidence["decided_by"]) == ("type4", "C_SPREAD_TOL: recovered_c")
    assert max(cls.evidence["V_lam_inv_sq"]) < 0
    assert cls.evidence["a"] == pytest.approx(1.0, abs=1e-12)
    assert cls.recovered_c == pytest.approx(1.0, abs=1e-12)


def test_the_homothety_gate_follows_the_basic_and_twistorial_gates():
    """No fibration here reaches the homothety gate.  The projected Lee form
    of a normal form is -2 d^H log lam - *_H I on the lifts, so with I = 0 the
    basic residual is twice the homothety spread.  With I != 0, on the twisted
    warp A = tau^2, twistorial_sd is 1.73 times the homothety spread and |I| 5.0
    times, whatever the twist (all three are linear in it): an earlier gate
    decides before the homothety spread reaches its 1e-7."""
    def residuals(build, *args):
        fm, point = build(*args)
        samples = np.array(mor.fibre_samples_about(fm, point, 4))
        setup = mor.SubmersionSetup(fm)
        rows = setup.rows(samples)
        dh = rows.dH_log_lambda
        return (np.max(dh.max(axis=0) - dh.min(axis=0)),
                mor.twistorial_basic_residual(setup, samples), max(rows.twistorial_sd),
                np.max(np.abs(rows.integrability)))

    homothety, basic, _, I = residuals(_metrics.aliased_lee_form)
    assert I < 1e-15 and basic == pytest.approx(2.0 * homothety, rel=1e-12)
    for eps in (3e-7, 1e-4):
        homothety, _, sd, I = residuals(_metrics.slightly_twisted_warp, eps)
        assert sd > 1.7 * homothety and I > 5.0 * homothety


def test_twistorial_basic_type3_specific_fibre_values(type3_setup):
    base = (0.4, -0.2, 0.6)
    samples = [(rho,) + base for rho in (0.5, 1.0, 2.0)]
    assert mor.twistorial_basic_residual(type3_setup, samples) < 1e-8


# ---------------------------------------------------------------------------
# trace forms against the finite-difference oracle
# ---------------------------------------------------------------------------

def _trace_form_pairs(ctx):
    """(value, d) per trace form, d[a, e] = d_e of component a."""
    return {"bv": ctx.vertical_trace_flat, "bh": ctx.horizontal_trace_flat}


def fd_setups():
    berger = con.type4_metric(con.berger_s3(0.8), con.berger_lee(berger_ew_scale(0.8)),
                              c=1.6)
    return {"gibbons_hawking": catalog_setups()["type1"],
            "type2": catalog_setups()["type2"],
            "type4_berger": mor.SubmersionSetup(berger),
            "type3_xdy": control_setups()["type3_xdy"]}


def test_trace_form_derivatives_match_finite_differences():
    # Central differences with step h = 1e-4 err by about h^2/6 times a third
    # derivative plus eps/h (~1e-12) of roundoff; the worst case here is
    # 1.2e-9 relative to 1 + |d|.  A bound of 1e-7 leaves a factor 80 and still
    # catches any dropped product-rule term, which is O(1) wrong.
    for name, setup in fd_setups().items():
        for pt in pts(setup.fm.total_chart, 2, seed=19):
            values = {}

            def forms(p):
                key = tuple(float(x) for x in p)
                if key not in values:
                    values[key] = {k: v for k, (v, _) in
                                   _trace_form_pairs(setup.ctx(key)).items()}
                return values[key]

            for form, (_, d) in _trace_form_pairs(setup.ctx(pt)).items():
                for a in range(4):
                    fd = fd_gradient(lambda p: forms(p)[form][a], pt)
                    err = np.max(np.abs(d[a] - fd) / (1.0 + np.abs(d[a])))
                    assert err < 1e-7, (name, form, a, err)


@pytest.fixture
def counted(monkeypatch, metric_shapes):
    """(points of each PointEval built, shape of the points of each metric
    evaluation) while the test runs: ("arrays", shape) for the fibration's
    metric, ("jets", shape) for each jet evaluation of h's closure, in call
    order (``metric_shapes``)."""
    built = []

    class Counting(mor.PointEval):
        def __init__(self, setup, points):
            built.append(list(points))
            super().__init__(setup, points)

    monkeypatch.setattr(mor, "PointEval", Counting)
    return built, metric_shapes


def test_classify_reads_its_samples_as_one_batch(type4_setup, counted):
    """With nothing held, classify holds its four fibre samples as one
    PointEval.  After ``hold`` it reads that batch, builds nothing more and
    gives the same classification."""
    built, shapes = counted
    samples = mor.fibre_samples_about(type4_setup.fm, (0.2, 0.3, -0.4, 1.0), 4)
    held = [tuple(s) for s in samples.tolist()]      # the points a PointEval is given
    alone = mor.classify_type(mor.SubmersionSetup(type4_setup.fm), samples)
    assert alone.label == "type4"
    # the samples' metric, with h's closure at their base points, and nothing else
    assert built == [held] and shapes == [("arrays", (4, 4)), ("jets", (4, 3))]
    built.clear()
    shapes.clear()
    setup = mor.SubmersionSetup(type4_setup.fm)
    setup.hold(samples)
    assert mor.classify_type(setup, samples) == alone
    assert built == [held] and shapes == [("arrays", (4, 4)), ("jets", (4, 3))]


_PT, _SAME_FIBRE, _OTHER = (0.2, 0.3, -0.4, 1.0), (0.5, 0.3, -0.4, 1.0), (0.2, 0.3, -0.4, 1.1)


def test_a_read_outside_the_held_batch_holds_the_points_read(type4_setup, counted):
    built, _ = counted
    setup = mor.SubmersionSetup(type4_setup.fm)
    setup.hold([_PT, _SAME_FIBRE, _PT])
    row = setup.ctx(np.array(_PT))
    assert built == [[_PT, _SAME_FIBRE]] and setup.ctx(_SAME_FIBRE).batch is row.batch
    assert setup.rows(np.array([_SAME_FIBRE, _PT])).batch is row.batch and len(built) == 1
    # one point outside: it alone is held, in place of the batch
    assert setup.ctx(_OTHER).batch is not row.batch and built[1:] == [[_OTHER]]
    assert setup.ctx(_PT).batch is not row.batch and built[2:] == [[_PT]]
    # an array with a point outside: exactly the points read, once each, as one batch
    rows = setup.rows(np.array([[_PT, _OTHER], [_SAME_FIBRE, _PT]]))
    assert built[3:] == [[_PT, _OTHER, _SAME_FIBRE]]
    assert rows.index.tolist() == [[0, 1], [2, 0]]
    assert setup.ctx(_OTHER).batch is rows.batch and len(built) == 4


def test_a_hold_reads_h_once_per_base_point(type4_setup, monkeypatch):
    h_reads, real = [], geo.MetricField.values
    monkeypatch.setattr(geo.MetricField, "values", lambda h, p: h_reads.append(p) or real(h, p))
    setup = mor.SubmersionSetup(type4_setup.fm)
    setup.hold([_PT, _SAME_FIBRE, _OTHER, _PT])
    assert sorted(h_reads) == sorted([_PT[1:], _OTHER[1:]])
    h_reads.clear()
    setup.hold([_SAME_FIBRE, _PT])
    assert h_reads == [_PT[1:]]


def test_morphism_contracts_at_most_two_operands_per_einsum():
    """An einsum of three or more operands runs c_einsum's loop over every
    index combination, 4^6 at each point for the horizontal trace's
    derivative; geometry's curvature chain, weyl3's residuals and PointEval
    contract with matrix products or pairwise."""
    for module, least in ((mor, 6), (geo, 5), (weyl3, 5)):
        tree = ast.parse(Path(module.__file__).read_text())
        specs = [node.args[0].value for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and node.args
                 and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str)
                 and (isinstance(node.func, ast.Attribute) and node.func.attr == "einsum"
                      or isinstance(node.func, ast.Name) and node.func.id == "_d_einsum")]
        assert len(specs) >= least, module.__name__
        assert [spec for spec in specs if spec.split("->")[0].count(",") >= 2] == [], module.__name__


# geometry's jet-to-array boundary: the helpers that know a batch jet's layout
_JET_LAYOUT = {("geo", "_lead"), ("geo", "_at"), ("geo", "_jets_at"), ("geo", "_is_batch"),
               ("jets", "seed_all")}


@pytest.mark.parametrize("module", [mor, weyl3, cli], ids=lambda m: m.__name__)
def test_only_geometry_reads_the_jet_layout(module):
    """morphism, weyl3 and cli read fields through their point-first
    ``arrays`` and ``values``: they call none of geometry's jet-to-array
    helpers, seed no jets, and read no jet's value, grad or hess."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = [ast.unparse(node) for node in ast.walk(tree) if isinstance(node, ast.Attribute)
             and (node.attr in ("value", "grad", "hess")
                  or isinstance(node.value, ast.Name) and (node.value.id, node.attr) in _JET_LAYOUT)]
    assert found == []


_SDHARM_MODULES = [importlib.import_module(f"sdharm.{m.name}")
                   for m in pkgutil.iter_modules(sdharm.__path__)]


@pytest.mark.parametrize("module", [m for m in _SDHARM_MODULES if m is not jets],
                         ids=lambda m: m.__name__)
def test_only_jets_reads_the_packed_derivatives(module):
    """A jet's packed derivative array is jets' own: every other module reads
    ``grad``, ``hess`` and ``jets.arrays``, and builds jets through jets'
    functions and operators, never ``Jet(...)``."""
    tree = ast.parse(Path(module.__file__).read_text())
    found = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr == "_d"
             or isinstance(node, ast.Call) and ast.unparse(node.func) in ("Jet", "jets.Jet")]
    assert found == []


@pytest.mark.parametrize("module", [sdharm] + _SDHARM_MODULES, ids=lambda m: m.__name__)
def test_every_export_resolves(module):
    """``from <module> import *`` succeeds and defines each name of the
    module's ``__all__``, so a deletion leaves no stale export behind."""
    namespace = {}
    exec(f"from {module.__name__} import *", namespace)
    assert [name for name in getattr(module, "__all__", ()) if name not in namespace] == []


def test_the_package_exports_only_module_exports():
    """Each name ``sdharm`` exports is in the ``__all__`` of its module."""
    exported = {name for m in _SDHARM_MODULES for name in getattr(m, "__all__", ())}
    public = [name for name, value in vars(sdharm).items()
              if not name.startswith("_") and not isinstance(value, type(sdharm))]
    assert [name for name in public if name not in exported] == []
