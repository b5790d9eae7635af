"""geometry's curvature chain and its neighbours contract with matrix products;
the einsum of each formula (``_oracles``) is the reference.  The Riemann
tensor's, with its Ricci tensor and scalar, goes by way of dGamma and
R^a_bcd, which ``curvature_from_gamma`` skips.

Each function is held to its oracle within 1e-13 (1 + |ref|), entry by entry,
on seeded random metric arrays and at every sample of every scene, the oracle
fed the same inputs as the function.  ``kulkarni_nomizu`` adds the same
products in the same order as its oracle, so it must agree bit for bit, as
must ``to_frame``'s one product for a 2-tensor with its index-at-a-time loop.
A batch's row must equal the function of that row's arrays alone.
"""

import glob
import json
import os

import numpy as np
import pytest

from sdharm import cli, constructions as con, geometry as geo, jets, weyl3

import _oracles as O

SCENES = os.path.join(os.path.dirname(__file__), "..", "scenes")


def assert_close(got, ref, what):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.shape == ref.shape, what
    assert np.all(np.abs(got - ref) <= 1e-13 * (1 + np.abs(ref))), what


def random_metric(n, N, seed):
    """(g, dg, ddg) at N points: g symmetric positive definite, dg symmetric in
    its first two indices, ddg in its first two and its last two."""
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(N, n, n))
    g = A @ A.swapaxes(-1, -2) + 0.5 * np.eye(n)
    dg = rng.normal(size=(N, n, n, n))
    dg = dg + dg.swapaxes(1, 2)
    ddg = rng.normal(size=(N, n, n, n, n))
    ddg = ddg + ddg.swapaxes(1, 2)
    return g, dg, ddg + ddg.swapaxes(3, 4)


def chain(g, dg, ddg):
    """{name: (array, oracle's array)} along the chain from (g, dg, ddg), each
    oracle given the function's own inputs."""
    ginv, dginv = geo.jet_matrix_inverse(g, dg)
    G = geo.christoffel_jets(ginv, dg)
    mp = geo.MetricPoint(g, dg, ddg, ginv, dginv, G)
    curv = geo.curvature_from_gamma(mp)
    out = dict(zip(("ginv", "dginv"), zip((ginv, dginv), O.jet_matrix_inverse(g, dg))))
    out["G"] = G, O.christoffel_jets(ginv, dginv, dg, ddg)[0]
    out.update(zip(("R_low", "ric", "scal"), zip(curv, O.curvature_from_gamma(mp))))
    return out


def assert_chain_matches_oracle(g, dg, ddg):
    for name, (got, ref) in chain(g, dg, ddg).items():
        assert_close(got, ref, name)


def split(F, g, orientation):
    """``split_two_form``'s four results and its oracle's."""
    return geo.split_two_form(F, g, orientation), O.split_two_form(F, g, orientation)


def random_two_form(N, seed):
    F = np.random.default_rng(seed).normal(size=(N, 4, 4))
    return F - F.swapaxes(-1, -2)


@pytest.mark.parametrize("N", [1, 3, 64])
@pytest.mark.parametrize("n", [3, 4])
def test_chain_matches_its_einsums_on_random_metrics(n, N):
    g, dg, ddg = random_metric(n, N, seed=100 * n + N)
    assert_chain_matches_oracle(g, dg, ddg)
    assert_chain_matches_oracle(g[0], dg[0], ddg[0])          # no point axis
    A = np.random.default_rng(N).normal(size=(N, n, n))
    A = A + A.swapaxes(-1, -2)
    assert np.array_equal(geo.kulkarni_nomizu(A, g), O.kulkarni_nomizu(A, g))
    assert np.array_equal(geo.kulkarni_nomizu(A[0], g[0]), O.kulkarni_nomizu(A[0], g[0]))
    if n == 4:
        F = random_two_form(N, seed=N)
        for orientation in (1, -1):
            for i, (got, ref) in enumerate(zip(*split(F, g, orientation))):
                assert_close(got, ref, ("split_two_form", orientation, i))


@pytest.mark.parametrize("N", [3, 64])
@pytest.mark.parametrize("n", [3, 4])
def test_batch_row_equals_its_point_alone(n, N):
    g, dg, ddg = random_metric(n, N, seed=7 * n + N)
    batch = chain(g, dg, ddg)
    F = random_two_form(N, seed=N)
    A = g + np.eye(n)
    parts = geo.split_two_form(F, g) if n == 4 else None
    for i in sorted({0, 1, N // 2, N - 1}):
        for name, (one, _) in chain(g[i], dg[i], ddg[i]).items():
            assert np.array_equal(batch[name][0][i], one), (name, i)
        assert np.array_equal(geo.kulkarni_nomizu(A, g)[i], geo.kulkarni_nomizu(A[i], g[i]))
        if n == 4:
            for k, one in enumerate(geo.split_two_form(F[i], g[i])):
                assert np.array_equal(parts[k][i], one), ("split_two_form", k, i)


def _scene_metrics():
    """(name, metric, (N, d) array of the scene's sample points on its chart)
    of every scene: the total space's metric and the base's."""
    out = []
    for path in sorted(glob.glob(os.path.join(SCENES, "*.json"))):
        with open(path) as fh:
            r = cli.ResolvedScene(cli.validate_scene(json.load(fh)))
        points = np.array(r.sample_points()[0], dtype=float)
        name = os.path.basename(path)[:-5]
        if r.fm is not None:
            out.append((f"{name}.total", r.fm.g, points))
            points = points[:, 1:]
        out.append((f"{name}.base", r.h, points))
    return out


SCENE_METRICS = _scene_metrics()


@pytest.mark.parametrize("name,g,points", SCENE_METRICS, ids=[m[0] for m in SCENE_METRICS])
def test_chain_matches_its_einsums_at_every_scene_sample(name, g, points):
    gv, dg, ddg = g.arrays(points)
    assert_chain_matches_oracle(gv, dg, ddg)
    n = g.chart.dim
    _, _, ric, scal = geo._curvature(g, points)
    S = geo.schouten(gv, ric, scal, n)
    assert np.array_equal(geo.kulkarni_nomizu(S, gv), O.kulkarni_nomizu(S, gv))
    rng = np.random.default_rng(len(points))
    for p in map(tuple, points):
        X, Y = rng.normal(size=(2, n))
        assert_close(geo.sectional_curvature(g, p, X, Y), O.sectional_curvature(g, p, X, Y),
                     ("sectional_curvature", p))
    if n == 4:
        F = random_two_form(len(points), seed=len(points))
        for i, (got, ref) in enumerate(zip(*split(F, gv, g.chart.orientation))):
            assert_close(got, ref, ("split_two_form", i))


def test_monopole_residual_matches_its_einsum():
    """The Gibbons-Hawking pair against F = 0 (residual |du| = 1/(2 r^2)) and
    a Trkalian Weyl structure on the round 3-sphere, at a point and a batch."""
    h = con.flat3_spherical()
    zero_F = geo.TwoFormField(h.chart, lambda c: [[0.0 * c[0]] * 3] * 3)
    zero_alpha = geo.OneFormField(h.chart, lambda c: [0.0 * c[0]] * 3)
    s3 = con.constant_curvature3(1.0)
    u = geo.ScalarField(s3.chart, lambda c: 1.0 + 0.3 * jets.sin(c[0]) * jets.cos(c[1]))
    F = geo.TwoFormField(s3.chart, lambda c: geo.ext_d(con.trkalian(1).fn(c), 3))
    cases = [(con.gh_potential(1.0), h, zero_alpha, zero_F),
             (u, s3, con.trkalian(1), F)]
    for k, (u, h, alpha, F) in enumerate(cases):
        lo, hi = np.asarray(h.chart.lo), np.asarray(h.chart.hi)
        points = np.random.default_rng(k).uniform(lo + 0.1 * (hi - lo), hi - 0.1 * (hi - lo),
                                                  size=(5, 3))
        base = lambda p: weyl3.HeldBase(h, p)
        batch = weyl3.monopole_residual(base(points), u, alpha, F)
        assert_close(batch, O.monopole_residual(base(points), u, alpha, F), ("monopole", k))
        assert np.all(batch > 1e-3), k
        for p in map(tuple, points):
            assert_close(weyl3.monopole_residual(base(p), u, alpha, F),
                         O.monopole_residual(base(p), u, alpha, F), ("monopole", k, p))


@pytest.mark.parametrize("n", [3, 4])
def test_to_frame_of_a_2_tensor_is_the_loop_bit_for_bit(n):
    """E^T T E equals the index-at-a-time loop exactly, at one point and on a
    seeded batch, in an oriented frame and in one with a reflected axis; a
    higher rank still runs the loop."""
    g, dg, _ = random_metric(n, 64, seed=11 * n)
    T = np.random.default_rng(n).normal(size=(64, n, n))
    E = geo.orthonormal_frame(g)
    for frame in (E, E * np.r_[-1.0, np.ones(n - 1)]):         # orientation +1 and -1
        assert np.array_equal(geo.to_frame(T, frame), O.to_frame(T, frame))
        assert np.array_equal(geo.to_frame(T[0], frame[0]), O.to_frame(T[0], frame[0]))
        assert np.array_equal(geo.frame_norm(T, frame),
                              np.sqrt(np.sum(O.to_frame(T, frame) ** 2, axis=(-2, -1))))
        assert np.array_equal(geo.to_frame(dg, frame), O.to_frame(dg, frame))
