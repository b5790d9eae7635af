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

from sdharm import cli, constructions as con, geometry as geo, morphism as mor
from sdharm.errors import SingularEvaluationError

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
