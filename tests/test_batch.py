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
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdharm import cli, constructions as con, geometry as geo, jets, morphism as mor, weyl3
from sdharm.errors import DomainError, SingularEvaluationError

import _oracles as O
from _metrics import conformal_rescale, conformal_rescale_fibration, type4_normalize

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


def report_arrays(g, at):
    """(report, {name: array}) at ``at``: the arrays of ARRAY_SCALE, Gamma read
    from the metric point that the report is computed from, and R^a_bcd from
    its arrays by the oracle's route through dGamma."""
    rep, mp = geo.curvature_report(g, at), geo.metric_point(g, at)
    riemann_up = O.riemann_from_gamma(*O.christoffel_jets(mp.ginv, mp.dginv, mp.dg, mp.ddg))
    return rep, {"gamma": mp.G, "riemann_up": riemann_up,
                 "riemann_low": rep.riemann_low, "ricci": rep.ricci, "weyl_low": rep.weyl_low}


def assert_reports_match(g, points):
    """Every scalar of the batched report is within 1e-13 (1 + |per-point|)
    of the per-point one; every array within 1e-13 (1 + its largest entry)."""
    batch, batch_arrays = report_arrays(g, points)
    for i, p in enumerate(points):
        one, arrays = report_arrays(g, tuple(p))
        raw = batch.raw()
        assert raw.keys() == one.raw().keys()
        for key, value in one.raw().items():
            assert abs(raw[key][i] - value) <= 1e-13 * (1 + abs(value)), (key, i)
        for name, scale in ARRAY_SCALE.items():
            s = arrays[name]
            if s is None:
                continue
            bound = 1e-13 * (1 + np.max(np.abs(arrays[scale])))
            assert np.max(np.abs(batch_arrays[name][i] - s)) <= bound, (name, i)


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
                     "grad_log_lambda", "integrability", "dH_log_lambda",
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


_TOTAL4 = SETUPS["type4_berger_ew+1"]
# Scalars, one-forms and two-forms on 3- and 4-charts.
FORM_FIELDS = {
    "gh_potential": con.gh_potential(1.0),
    "lam_inv_sq": _TOTAL4.dilation_sq_inv,
    "berger_lee": con.berger_lee(0.9),
    "dirac_A": con.dirac_A(2.0),
    "theta": _TOTAL4.theta,
    "d_trkalian": geo.TwoFormField(con.flat3().chart,
                                   lambda c: geo.ext_d(con.trkalian(1).fn(c), 3), "d trkalian"),
    "bumpy4": geo.TwoFormField(_TOTAL4.total_chart, lambda c: [
        [float(b - a) * jets.sin(c[a] * c[b]) for b in range(4)] for a in range(4)], "bumpy"),
}


def _point_first(field, point):
    """What a field hands out at a point or a batch, by name: its exterior
    derivative, its values and its arrays."""
    out = {"d": geo.exterior_derivative(field, point)}
    if isinstance(field, geo.ScalarField):
        out["u"], out["du"], out["ddu"] = field.arrays(point)
    else:
        out["values"] = field.values(point)
    if isinstance(field, geo.OneFormField):
        out["alpha"], out["dalpha"] = field.arrays(point)
    return out


def _jet_layout(field, point):
    """The arrays of ``_point_first`` read from the field's jets at one point."""
    if isinstance(field, geo.ScalarField):
        j = field.jet(point)
        return {"u": j.value, "du": j.grad, "ddu": j.hess}
    if isinstance(field, geo.OneFormField):
        js = field.jets(point)
        return {"alpha": [j.value for j in js], "dalpha": [j.grad for j in js]}
    return {}


@pytest.mark.parametrize("name", sorted(FORM_FIELDS))
def test_fields_hand_out_point_first_arrays(name):
    """On a batch, and on each one-row array, every array a field hands out
    has the point axis first, and its row equals, bit for bit, the call at
    that point alone and the point's own jets."""
    field = FORM_FIELDS[name]
    points = inside(field.chart, 3, seed=11)
    batch = _point_first(field, points)
    for i, p in enumerate(points):
        one = _point_first(field, tuple(p))
        row = _point_first(field, points[i:i + 1])
        assert batch.keys() == one.keys() == row.keys()
        for key, value in one.items():
            assert np.shape(batch[key]) == (3,) + np.shape(value), key
            assert np.shape(row[key]) == (1,) + np.shape(value), key
            assert np.array_equal(batch[key][i], value) and np.array_equal(row[key][0], value), key
        for key, value in _jet_layout(field, tuple(p)).items():
            assert np.array_equal(np.asarray(value), one[key]), key


# ---------------------------------------------------------------------------
# d of a scalar or a one-form from its arrays against ext_d of its jets
# ---------------------------------------------------------------------------

def _d_fields():
    """Every scalar and one-form of the catalog (each form of a coframe), and
    the connection form theta of each construction scene, by name."""
    out = {}
    for name in con.catalog_names():
        obj = con.catalog(name)
        forms = obj if isinstance(obj, tuple) else (obj,)
        for i, f in enumerate(forms):
            if isinstance(f, (geo.ScalarField, geo.OneFormField)):
                out[name if len(forms) == 1 else f"{name}[{i}]"] = f
    for path in sorted(glob.glob(os.path.join(SCENES, "*.json"))):
        with open(path) as fh:
            r = cli.ResolvedScene(cli.validate_scene(json.load(fh)))
        if r.fm is not None:
            out[f"{os.path.basename(path)[:-5]}.theta"] = r.fm.theta
    return out


D_FIELDS = _d_fields()


def _d_by_ext_d(field, point):
    """d of the field as ``ext_d`` of its jets read by ``form_values``, a
    batch's point axis first (geometry's one-row rule included)."""
    dim = field.chart.dim
    if isinstance(field, geo.ScalarField):
        d = geo.form_values(geo.ext_d(field.jet(point), dim), dim, 1)
    else:
        d = geo.form_values(geo.ext_d(field.jets(point), dim), dim, 2)
    return geo._lead(d, point)


@pytest.mark.parametrize("name", sorted(D_FIELDS))
def test_exterior_derivative_equals_ext_d_of_the_jets(name):
    """d from the field's arrays equals d by ext_d of its jets, bit for bit, at
    single points, on a one-row array and on a batch."""
    field = D_FIELDS[name]
    points = inside(field.chart, 4, seed=11)
    for at in (points, points[:1], tuple(points[0]), tuple(points[3])):
        new, old = geo.exterior_derivative(field, at), _d_by_ext_d(field, at)
        assert new.shape == old.shape and np.array_equal(new, old), (name, np.shape(at))


def _normalized_type4(c_fn, fibre_range):
    """type4_normalize of the Trkalian type-4 fibration with c = c_fn on flat R^3."""
    h = con.flat3()
    c = geo.ScalarField(h.chart, c_fn, "c")
    return type4_normalize(con.type4_metric(h, con.trkalian(-1), c=c,
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
            "rescaled_type4": conformal_rescale_fibration(SETUPS["type4+1"], _W)}
    for name, fm in made.items():
        for orientation in (1, -1):
            out[f"{name}{orientation:+d}"] = fm.g if orientation == 1 else fm.g.flipped()
    return out


# a positive basic factor on the Berger base of the type-4 family
_W = geo.ScalarField(SETUPS["type4+1"].h.chart,
                     lambda c: 1.5 + 0.5 * jets.sin(c[0]) * jets.cos(c[2]), "w")
FIBRED = _fibred()


def _jet_path(g, at):
    """(g, dg, ddg) of ``geo.metric_jets`` of g.fn, as metric_point read them."""
    return geo._jet_arrays(geo.metric_jets(g, at), at)


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
    for g, product in ((type4_normalize(type4c).g,
                        conformal_rescale(type4c.g, lift(c, type4c))),
                       (conformal_rescale_fibration(type4, _W).g,
                        conformal_rescale(type4.g, lift(_W, type4)))):
        points = inside(g.chart, 5, seed=9)
        for at in (points, tuple(points[2])):
            for x, y in zip(g.arrays(at), _jet_path(product, at)):
                assert np.max(np.abs(x - y)) <= 1e-13 * (1 + np.max(np.abs(y)))


def test_rescale_by_a_constant_factor_holds_a_batch():
    """A w that returns a plain number scales a batch as it scales each point
    (it was a scalar jet, which raised a ValueError against a batch)."""
    fm = conformal_rescale_fibration(con.type3_metric(con.flat3()),
                                     geo.ScalarField(con.flat3().chart, lambda c: 2.0))
    points = inside(fm.total_chart, 3, seed=10)
    assert_reports_match(fm.g, points)
    assert_rows_match(fm, points)


# ---------------------------------------------------------------------------
# verify's checks over a job's points against each point alone
# ---------------------------------------------------------------------------

def _check_scenes():
    """Every scene at both orientations, and the Berger scene at the
    non-Einstein-Weyl scale 0.5 with four points."""
    out = {}
    for path in sorted(glob.glob(os.path.join(SCENES, "*.json"))):
        with open(path) as fh:
            scene = json.load(fh)
        for orientation in (1, -1):
            out[f"{os.path.basename(path)[:-5]}{orientation:+d}"] = dict(scene,
                                                                          orientation=orientation)
    out["berger_scale0.5_4pts"] = dict(out["berger_ew_sweep+1"],
                                       samples={"random": {"count": 4, "seed": 3}})
    return out


CHECK_SCENES = _check_scenes()


def _applicable(resolved):
    """The checks that apply to the scene: total-space ones and the Weyl
    scalars need a construction, pullback_sd and closure a potential."""
    return [name for name, check in cli.CHECKS.items()
            if (resolved.fm is not None or not (check.space == "total" or check.weyl))
            and (name not in ("pullback_sd", "closure") or resolved.pair_u is not None)]


@pytest.mark.parametrize("name", sorted(CHECK_SCENES))
def test_every_check_on_a_batch_equals_each_point_alone(name):
    """Each check once over the job's points gives, at every point, the raw
    residual and scale of that point read alone as a one-row job, to 1e-13
    (1 + |alone|), and the same pass flag."""
    scene = cli.validate_scene(CHECK_SCENES[name])
    held = cli.ResolvedScene(scene)
    alone = cli.ResolvedScene(scene)
    checks = _applicable(held)
    points, _ = held.sample_points()
    batch = cli._checks_at(list(points), checks, held)
    for i, p in enumerate(points):
        one = {check: (raw[0], scale[0]) for check, (raw, scale) in
               cli._checks_at([p], checks, alone).items()}
        for check in checks:
            raw, scale = batch[check][0][i], batch[check][1][i]
            for got, ref in zip((raw, scale), one[check]):
                assert abs(got - ref) <= 1e-13 * (1 + abs(ref)), (check, i, got, ref)
            flags = [cli._check_records({check: values}, lambda _: cli.DEFAULT_TOL)[0][check]
                     ["pass"] for values in ((raw, scale), one[check])]
            assert flags[0] == flags[1], (check, i)


def _public_check(check, r, p):
    """(raw, scale) of ``check`` at the point p of the resolved scene r, from
    the public functions of one point (a float each), on a setup of its own."""
    setup = mor.SubmersionSetup(r.fm) if r.fm is not None else None
    base = p[1:] if r.fm is not None else p
    total = lambda raw: (raw, geo.curvature_report(r.fm.g, p).riemann_norm)
    on_base = lambda raw: (raw, geo.curvature_report(r.h, base).riemann_norm)
    w = weyl3.WeylStructure3(r.h, r.lee_form)
    c = r.family_params.get("c")
    if cli.CHECKS[check].space == "metric":       # a curvature scalar of g, or of h alone
        rep = geo.curvature_report(r.fm.g, p) if r.fm is not None else geo.curvature_report(r.h, p)
        return rep.raw()[check], rep.riemann_norm
    return {
        "fundamental_eq": lambda: total(mor.fundamental_eq_residual(setup, p)),
        "twistorial_basic": lambda: total(mor.twistorial_basic_residual(
            setup, mor.fibre_samples_about(r.fm, p, 3))),
        "twistorial_sd": lambda: total(mor.twistorial_sd_residual(setup, p)),
        "monopole": lambda: total(mor.monopole_eq_residual(
            setup, r.family_params.get("alpha") or r.alpha, p, weyl3.HeldBase(r.h, base))),
        "pullback_sd": lambda: total(mor.pullback_sd_residual(setup, r.pair_u, r.pair_A, p)),
        "einstein_weyl": lambda: on_base(weyl3.einstein_weyl_residual(w, base)),
        "beltrami": lambda: on_base(
            weyl3.generalized_beltrami_residual(
                w, geo.ScalarField(r.h.chart, lambda x: c + 0.0 * x[0]), base)
            if c is not None else weyl3.beltrami_residual(
                weyl3.WeylStructure3(r.h, r.family_params.get("A") or r.lee_form),
                r.scene.get("beltrami_sign", -1), base)),
        "closure": lambda: on_base(abs(geo.laplacian(r.pair_u, r.h, base))),
    }[check]()


@pytest.mark.parametrize("name", sorted(CHECK_SCENES))
def test_a_one_row_job_is_the_points_own_evaluation(name):
    """Every check, and a report, as a one-row job at each point equal bit for
    bit what the public functions give at that point alone."""
    scene = cli.validate_scene(CHECK_SCENES[name])
    r = cli.ResolvedScene(scene)
    points, _ = r.sample_points()
    for check in _applicable(r):
        for p in points:
            (raw,), (scale,) = cli._checks_at([p], [check], cli.ResolvedScene(scene))[check]
            assert (raw, scale) == _public_check(check, cli.ResolvedScene(scene), p), (check, p)
    metrics = [(r.h, [q[1:] if r.fm is not None else q for q in points])]
    if r.fm is not None:
        metrics.append((r.fm.g, points))
    for g, at in metrics:
        for p in at:
            (one, ones), (row, rows) = report_arrays(g, p), report_arrays(g, np.array([p]))
            for key, value in one.raw().items():
                assert row.raw()[key].shape == (1,) and row.raw()[key][0] == value, (key, p)
            for key, value in ones.items():
                if value is not None:
                    assert np.array_equal(rows[key], value[None]), (key, p)


# ---------------------------------------------------------------------------
# the horizontal trace from the coframe against its einsum definition
# ---------------------------------------------------------------------------

def _einsum_horizontal_trace(ev, sign=-1.0):
    """(trace Bh)-flat by its definition through three- and four-operand
    einsums, from a PointEval's ``_oracles.lift_inputs``: Gamma^d_ef W_b^e
    W_c^f, contracted with h^bc and g_0d, and lowered by g_a0 / g_00.  With
    ``sign=1`` on the absolute values of its inputs, every term adds: the sum
    of the terms' absolute values."""
    u, du = ev.u
    g0, dg0 = ev.gv[:, 0], ev.dg[:, 0]
    ddw = sign * (ev.ddg[:, 0] * u[:, None, None, None]
                  + np.einsum("...be,...f->...bef", dg0, du)
                  + np.einsum("...bf,...e->...bef", dg0, du)
                  + np.einsum("...b,...ef->...bef", g0, ev.ddu))
    P = (ev.P, ev.dP)
    nab, dnab = O.d_einsum("def,eb,fc->dbc", (ev.G, ev.dG), P, P)
    lift, dlift = O.d_einsum("eb,ce->bc", P, (ev.dw, ddw))
    nab[:, 0] += lift
    dnab[:, 0] += dlift
    GH, dGH = ev.ginv.copy(), ev.dginv.copy()
    GH[:, 0, 0] += sign * u
    dGH[:, 0, 0] += sign * du
    s = O.d_einsum("bc,d,dbc->", (GH, dGH), (g0, dg0), (nab, dnab))
    return O.d_einsum("a,,->a", (g0, dg0), s, ev.u)


_TRACE_INPUTS = ("u", "gv", "dg", "ddg", "ddu", "P", "dP", "G", "dG", "dw", "ginv", "dginv")


def _inputs(lifts, convert):
    """The inputs of the trace, each array passed through ``convert``."""
    return types.SimpleNamespace(**{
        name: tuple(map(convert, value)) if isinstance(value, tuple) else convert(value)
        for name, value in ((name, getattr(lifts, name)) for name in _TRACE_INPUTS)})


def _trace_errors(fm, points):
    """The PointEval at the points, its trace forms (from the coframe), the
    einsum definition's, the definition in extended precision (64-bit
    mantissa) from the same double inputs, and the sum of the absolute values
    of its terms."""
    ev = mor.PointEval(mor.SubmersionSetup(fm), points)
    lifts = O.lift_inputs(ev)
    wide = _einsum_horizontal_trace(_inputs(lifts, lambda x: np.asarray(x, np.longdouble)))
    terms = _einsum_horizontal_trace(_inputs(lifts, np.abs), sign=1.0)
    return ev, ev.horizontal_trace_flat, _einsum_horizontal_trace(lifts), wide, terms


def _per_point(x):
    """The largest |entry| at each point."""
    return np.max(np.abs(x), axis=tuple(range(1, x.ndim)))


def assert_trace_matches_einsum(fm, points):
    """Value and derivative of the coframe trace within
    1e-14 (1 + |einsum definition|) of it at each point, |.| the largest
    entry, and within the rounding bound of the definition in extended
    precision (see the ill-conditioned case below); the conformality norm
    within 1e-12 of its four-operand einsum."""
    ev, new, old, exact, terms = _trace_errors(fm, points)
    for a, b, c, t in zip(new, old, exact, terms):
        assert np.all(_per_point(a - b) <= 1e-14 * (1 + _per_point(b))), _per_point(a - b)
        assert np.all(np.abs(a - c) <= 4 * np.finfo(float).eps * t)
    lam_sq = ev.conformality[0]
    dev = ev.ginv[:, 1:, 1:] - lam_sq[:, None, None] * ev.hinv
    dev2 = np.einsum("...ij,...kl,...ik,...jl->...", dev, dev, ev.hv, ev.hv)
    anisotropy = np.sqrt(np.maximum(0.0, dev2)) / lam_sq
    assert np.allclose(ev.conformality[1], anisotropy, rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("name", sorted(SETUPS))
def test_horizontal_trace_matches_its_einsum_definition(name):
    fm = SETUPS[name]
    assert_trace_matches_einsum(fm, [tuple(p) for p in inside(fm.total_chart, 6, seed=12)])


def test_horizontal_trace_matches_its_einsum_definition_where_ill_conditioned():
    """The type-4 Berger metric with c = -1 at rho = 0.075, where
    lam^-2 = e^rho - 1 = 0.078 and the horizontal frame is ill-conditioned."""
    with open(os.path.join(SCENES, "type4_berger_ew.json")) as fh:
        scene = json.load(fh)
    scene["construction"]["params"]["c"] = -1.0
    fm = cli.ResolvedScene(cli.validate_scene(scene)).fm
    point = (0.075, 2.2, 1.0, 5.0)
    assert fm.dilation_sq_inv.value(point) == pytest.approx(0.0779, abs=1e-4)
    # At rho = 0.075, |Gamma| reaches 3.4e3 and |g^-1| 1e2 against a trace of
    # 21, so any two summation orders differ by some 1e-12 of it (here the
    # einsums and the coframe formula by 1.9e-11 of 1 + |trace|).  On this
    # fibre each entry is held to the rounding bound of a sum, a small multiple
    # of eps times the sum of its terms' absolute values (Higham, *Accuracy and
    # Stability of Numerical Algorithms*, 2002, ch. 3), against the definition
    # in extended precision from the same double inputs.  Both routes meet it
    # with 4 eps: the einsums reach 0.52 eps, the coframe formula 0.76 eps.
    points = [point, *map(tuple, mor.fibre_samples_about(fm, (0.3, 2.2, 1.0, 5.0), 4).tolist())]
    _, new, old, exact, terms = _trace_errors(fm, points)
    eps = np.finfo(float).eps
    for trace in (new, old):
        for a, b, t in zip(trace, exact, terms):
            assert np.all(np.abs(a - b) <= 4 * eps * t)
