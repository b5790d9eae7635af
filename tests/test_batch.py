"""The batched curvature path against the per-point one.

A batch of N points runs the same code as one point, with a trailing batch
axis on the jets and a leading point axis on the arrays after
``metric_point``.  The metrics are those of every scene in ``scenes/`` (total
and base) and of the five families of the ``report_grid`` benchmark, at both
orientations.
"""

import glob
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdharm import cli, constructions as con, geometry as geo, jets, morphism as mor
from sdharm.errors import DomainError, SingularEvaluationError

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")

FAMILIES = {
    "type1": {"base": {"name": "flat3_spherical"},
              "construction": {"family": "type1", "params": {
                  "u": {"name": "gh_potential", "params": {"m": 2.0}},
                  "A": {"name": "dirac_A", "params": {"m": 2.0}}}}},
    "type2": {"base": {"name": "flat3"},
              "construction": {"family": "type2", "params": {
                  "f": {"name": "fibre_exp", "params": {"rate": 3.0}}}}},
    "type3": {"base": {"name": "flat3"},
              "construction": {"family": "type3", "params": {
                  "A": {"name": "trkalian", "params": {"sign": 1}}}}},
    "type4": {"base": {"name": "berger_s3", "params": {"mu": 0.6}},
              "construction": {"family": "type4", "params": {
                  "alpha": {"name": "berger_lee", "params": {"scale": 0.96}}, "c": 1.2}}},
    "bryant": {"base": {"name": "flat3"},
               "construction": {"family": "bryant", "params": {
                   "A": {"name": "trkalian", "params": {"sign": 1}}}}},
}


def _metrics():
    scenes = {}
    for path in sorted(glob.glob(os.path.join(SCENES, "*.json"))):
        with open(path) as fh:
            scenes[os.path.basename(path)[:-5]] = json.load(fh)
    scenes.update({name: dict(schema=1, samples={"random": {"count": 1, "seed": 0}}, **spec)
                   for name, spec in FAMILIES.items()})
    out = {}
    for name, scene in scenes.items():
        for orientation in (1, -1):
            r = cli.ResolvedScene(cli.validate_scene(dict(scene, orientation=orientation)))
            out[f"{name}.base{orientation:+d}"] = r.h
            if r.fm is not None:
                out[f"{name}.total{orientation:+d}"] = r.fm.g
    return out


METRICS = _metrics()


def inside(chart, n, seed):
    """n seeded points in the chart, 5% of each side away from its boundary."""
    lo, hi = np.asarray(chart.lo), np.asarray(chart.hi)
    margin = 0.05 * (hi - lo)
    return np.random.default_rng(seed).uniform(lo + margin, hi - margin, size=(n, chart.dim))


def assert_jets_match(g, points):
    """The batch's value, grad and hess arrays equal the per-point ones
    exactly: the jet arithmetic is elementwise, and a batch calls the same
    elementary functions point by point."""
    batch = geo.metric_jets(g, points)
    d = g.chart.dim
    for i, p in enumerate(points):
        one = geo.metric_jets(g, tuple(p))
        for field, take in (("value", lambda b: b[i]), ("grad", lambda b: b[:, i]),
                            ("hess", lambda b: b[:, :, i])):
            s = np.array([[getattr(one[a][b], field) for b in range(d)] for a in range(d)])
            t = np.array([[take(getattr(batch[a][b], field)) for b in range(d)]
                          for a in range(d)])
            assert np.array_equal(t, s), (field, i)


# The arrays of a report, each with the array that sets its scale: the Weyl
# tensor is the Riemann tensor less its trace part.
ARRAY_SCALE = {"gamma": "gamma", "riemann_up": "riemann_up", "riemann_low": "riemann_low",
               "ricci": "ricci", "weyl_low": "riemann_low"}


def assert_reports_match(g, points):
    """Every scalar of the batched report is within 1e-13 (1 + |per-point|)
    of the per-point one; every array within 1e-13 (1 + its largest entry)."""
    batch = geo.curvature_report(g, points)
    for i, p in enumerate(points):
        one = geo.curvature_report(g, tuple(p))
        raw = batch.raw()
        assert raw.keys() == one.raw().keys()
        for key, value in one.raw().items():
            assert abs(raw[key][i] - value) <= 1e-13 * (1 + abs(value)), (key, i)
        for name, scale in ARRAY_SCALE.items():
            s = getattr(one, name)
            if s is None:
                continue
            bound = 1e-13 * (1 + np.max(np.abs(getattr(one, scale))))
            assert np.max(np.abs(getattr(batch, name)[i] - s)) <= bound, (name, i)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_batch_jets_match_per_point_jets(name):
    g = METRICS[name]
    assert_jets_match(g, inside(g.chart, 8, seed=3))


@pytest.mark.parametrize("name", sorted(METRICS))
def test_batch_report_matches_per_point_reports(name):
    g = METRICS[name]
    assert_reports_match(g, inside(g.chart, 8, seed=4))


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(sorted(METRICS)), st.integers(1, 16), st.integers(0, 2 ** 31 - 1))
def test_batch_of_drawn_points_matches_per_point(name, n, seed):
    g = METRICS[name]
    points = inside(g.chart, n, seed)
    assert_jets_match(g, points)
    assert_reports_match(g, points)


# ---------------------------------------------------------------------------
# the fibration layer: PointEval over a batch against one point at a time
# ---------------------------------------------------------------------------

def _setups():
    scenes = {}
    for path in sorted(glob.glob(os.path.join(SCENES, "*.json"))):
        with open(path) as fh:
            scenes[os.path.basename(path)[:-5]] = json.load(fh)
    scenes.update({name: dict(schema=1, samples={"random": {"count": 1, "seed": 0}}, **spec)
                   for name, spec in FAMILIES.items()})
    out = {}
    for name, scene in scenes.items():
        for orientation in (1, -1):
            r = cli.ResolvedScene(cli.validate_scene(dict(scene, orientation=orientation)))
            if r.fm is not None:
                out[f"{name}{orientation:+d}"] = r.fm
    return out


SETUPS = _setups()

# Every batched quantity of a PointEval; the trace forms are (value, derivative).
POINT_EVAL_FIELDS = ("vertical_trace", "vertical_trace_flat", "horizontal_trace_flat",
                     "grad_log_lambda", "integrability", "dH_log_lambda", "horizontal_frame",
                     "riemann_norm", "lifted_dtheta", "harmonicity_defect", "twistorial_sd",
                     "star_H_I", "conformality", "induced_lee", "projected_lee", "hv", "hinv",
                     "lam_inv_sq", "V0")


def assert_rows_match(fm, points):
    """Each row of one PointEval over the points, and of the fibre samples the
    classifier reads, is within 1e-13 (1 + its largest entry) of the
    evaluation of that point alone."""
    points = [tuple(p) for p in points]
    points += [s for p in points for s in mor.fibre_samples_about(fm, p, 4)]
    held = mor.SubmersionSetup(fm)
    held.hold(points)
    for p in points:
        row, one = held.ctx(p), mor.SubmersionSetup(fm).ctx(p)
        assert row.batch is held.ctx(points[0]).batch and one.batch is not row.batch
        for name in POINT_EVAL_FIELDS:
            a, b = getattr(one, name), getattr(row, name)
            for x, y in zip(*((v,) if not isinstance(v, tuple) else v for v in (a, b))):
                bound = 1e-13 * (1 + np.max(np.abs(x)))
                assert np.max(np.abs(np.asarray(x) - y)) <= bound, (name, p)


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_batch_point_eval_matches_per_point(name):
    fm = SETUPS[name]
    assert_rows_match(fm, inside(fm.total_chart, 4, seed=5))


def test_split_two_form_on_a_batch_matches_per_point():
    g = METRICS["type4_berger_ew.total+1"]
    points = inside(g.chart, 5, seed=6)
    gv = geo.metric_point(g, points).g
    F = np.random.default_rng(6).normal(size=(5, 4, 4))
    F = F - F.swapaxes(-1, -2)
    for orientation in (1, -1):
        batch = geo.split_two_form(F, gv, orientation)
        for i in range(5):
            one = geo.split_two_form(F[i], gv[i], orientation)
            for a, b in zip(one, batch):
                assert np.max(np.abs(a - b[i])) <= 1e-13 * (1 + np.max(np.abs(a)))
        assert np.allclose(batch[0] + batch[1], F, atol=1e-12)


def test_two_form_jets_on_a_batch():
    """A batch checks antisymmetry at every point: a good two-form gives each
    point's jets, a non-antisymmetric one raises for the batch."""
    A = con.trkalian(1)
    h = con.flat3()
    good = geo.TwoFormField(h.chart, lambda c: geo.ext_d(A.fn(c), 3), "dA")
    bad = geo.TwoFormField(h.chart, lambda c: [[0.0 * c[0], c[2], 0.0 * c[0]],
                                               [c[2], 0.0 * c[0], 0.0 * c[0]],
                                               [0.0 * c[0]] * 3], "z dx dy symmetric")
    points = inside(h.chart, 3, seed=7)
    batch = good.jets(points)
    for i, p in enumerate(points):
        one = good.jets(tuple(p))
        for a in range(3):
            for b in range(3):
                assert batch[a][b].value[i] == one[a][b].value
                assert np.array_equal(batch[a][b].grad[:, i], one[a][b].grad)
        with pytest.raises(SingularEvaluationError, match="not antisymmetric"):
            bad.jets(tuple(p))
    with pytest.raises(SingularEvaluationError, match="not antisymmetric"):
        bad.jets(points)


def _normalized_type4(c_fn, fibre_range):
    """type4_normalize of the Trkalian type-4 fibration with c = c_fn on flat R^3."""
    h = con.flat3()
    c = geo.ScalarField(h.chart, c_fn, "c")
    return con.type4_normalize(con.type4_metric(h, con.trkalian(-1), c=c,
                                                fibre_range=fibre_range))


@pytest.mark.parametrize("c_fn, fibre_range, points", [
    (lambda x: 1.0 + 0.5 * jets.sin(x[0]), (-1.5, 1.5),
     [(0.3, 0.2, 0.1, 0.4), (0.5, -0.3, 0.2, 0.1)]),
    # c of either sign in one batch: |c| is taken point by point
    (lambda x: x[0], (0.5, 1.5), [(0.8, 0.5, 0.1, 0.4), (1.0, -0.7, 0.2, 0.1)]),
])
def test_normalized_type4_with_variable_c_holds_a_batch(c_fn, fibre_range, points):
    """Each held row equals the point alone (type4_normalize tested c's value
    with ``==`` and ``>``, which raised a bare ValueError on a batch)."""
    fm = _normalized_type4(c_fn, fibre_range)
    assert_rows_match(fm, points)
    held = mor.SubmersionSetup(fm)
    held.hold(points)
    for p in points:
        alone = mor.twistorial_sd_residual(mor.SubmersionSetup(fm), p)
        assert abs(mor.twistorial_sd_residual(held, p) - alone) <= 1e-13 * (1 + abs(alone))


def test_normalized_type4_batch_through_a_zero_of_c_is_a_domain_error():
    fm = _normalized_type4(lambda x: x[0], fibre_range=(0.5, 1.5))
    with pytest.raises(DomainError, match="c vanishes"):
        mor.SubmersionSetup(fm).hold([(1.0, 0.5, 0.1, 0.1), (1.0, 0.0, 0.2, 0.1)])


# ---------------------------------------------------------------------------
# a fibration's metric assembled from its parts against the jets of g.fn
# ---------------------------------------------------------------------------

def _fibred():
    """Every fibration metric of METRICS (the construction scenes and the five
    report_grid families), a normalized type 4 with variable c and a basic
    conformal rescale of the type-4 family, each at both orientations."""
    out = {name: g for name, g in METRICS.items() if ".total" in name}
    made = {"normalized_variable_c": _normalized_type4(lambda x: 1.0 + 0.5 * jets.sin(x[0]),
                                                       (-1.5, 1.5)),
            "rescaled_type4": con.conformal_rescale_fibration(SETUPS["type4+1"], _W)}
    for name, fm in made.items():
        for orientation in (1, -1):
            out[f"{name}{orientation:+d}"] = fm.with_orientation(orientation).g
    return out


# a positive basic factor on the Berger base of the type-4 family
_W = geo.ScalarField(SETUPS["type4+1"].base_chart,
                     lambda c: 1.5 + 0.5 * jets.sin(c[0]) * jets.cos(c[2]), "w")
FIBRED = _fibred()


def _jet_path(g, at):
    """(g, dg, ddg) of ``geo.metric_jets`` of g.fn, as metric_point read them."""
    return geo._jet_arrays(geo.metric_jets(g, at), geo._is_batch(at))


@pytest.mark.parametrize("name", sorted(FIBRED))
def test_fibred_metric_arrays_equal_the_jets_of_its_definition(name):
    """The product-rule assembly gives the arrays of the jet products of g.fn,
    bit for bit, on a batch and at single points."""
    g = FIBRED[name]
    assert isinstance(g, con.FibredMetric)
    points = inside(g.chart, 6, seed=8)
    for at in (points, tuple(points[0]), tuple(points[4])):
        for x, y in zip(g.arrays(at), _jet_path(g, at)):
            assert x.shape == y.shape and np.array_equal(x, y), name


def test_normalized_and_rescaled_metrics_are_the_conformal_multiples():
    """type4_normalize assembles |c| g and conformal_rescale_fibration w g from
    their transformed parts: to 1e-13 of the jets of those products."""
    h = con.flat3()
    c = geo.ScalarField(h.chart, lambda x: 1.0 + 0.5 * jets.sin(x[0]), "c")    # c > 0
    type4c = con.type4_metric(h, con.trkalian(-1), c=c)
    type4 = SETUPS["type4+1"]
    lift = lambda f, fm: geo.ScalarField(fm.total_chart, lambda x: f.fn(x[1:]))
    for g, product in ((con.type4_normalize(type4c).g,
                        geo.conformal_rescale(type4c.g, lift(c, type4c))),
                       (con.conformal_rescale_fibration(type4, _W).g,
                        geo.conformal_rescale(type4.g, lift(_W, type4)))):
        points = inside(g.chart, 5, seed=9)
        for at in (points, tuple(points[2])):
            for x, y in zip(g.arrays(at), _jet_path(product, at)):
                assert np.max(np.abs(x - y)) <= 1e-13 * (1 + np.max(np.abs(y)))


def test_rescale_by_a_constant_factor_holds_a_batch():
    """A w that returns a plain number scales a batch as it scales each point
    (it was a scalar jet, which raised a ValueError against a batch)."""
    fm = con.conformal_rescale_fibration(con.type3_metric(con.flat3()),
                                         geo.ScalarField(con.flat3().chart, lambda c: 2.0))
    points = inside(fm.total_chart, 3, seed=10)
    assert_reports_match(fm.g, points)
    assert_rows_match(fm, points)
