"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Criterion 7 asserts the fibre-exponential (type 4) family's true
curvature, Einstein-Weyl and self-duality values against the closed forms
derived in the README.
"""

import json
import time

import numpy as np
import pytest

from sdharm import cli, constructions as con, geometry as geo, jets, morphism as mor, weyl3

from _fieldgen import random_field, random_point
from _metrics import berger_ew_scale, conformal_rescale_fibration
from _oracles import fd_oracle


def announce(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {name}: {status}{(' - ' + detail) if detail else ''}")


def rand_pts(chart, n, seed, margin_frac=0.08):
    rng = np.random.default_rng(seed)
    lo = np.asarray(chart.lo)
    hi = np.asarray(chart.hi)
    m = margin_frac * (hi - lo)
    return [tuple(rng.uniform(lo + m, hi - m)) for _ in range(n)]


# ---------------------------------------------------------------------------

def test_criterion_1_ad_engine_vs_fd():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    worst = 0.0
    n = 0
    while n < 1000:
        dim = 3 if n % 2 else 4
        f = random_field(rng, dim)
        pt = random_point(rng, dim)
        try:
            j = f(jets.seed_all(pt))
        except Exception:
            continue
        # keep the battery inside the regime the difference oracle certifies
        if not j.is_finite() or abs(j.value) > 50 or np.max(np.abs(j.hess)) > 1e3:
            continue
        fg, fH = fd_oracle(lambda p: float(f(list(p))), pt, step=5e-4,
                           richardson=True)
        rel_g = np.max(np.abs(j.grad - fg)) / (1.0 + np.max(np.abs(j.grad)))
        rel_h = np.max(np.abs(j.hess - fH)) / (1.0 + np.max(np.abs(j.hess)))
        worst = max(worst, rel_g, rel_h)
        n += 1
    elapsed = time.perf_counter() - t0
    ok = worst < 1e-6 and elapsed < 5.0
    announce(1, "AD engine vs finite differences (1000 fields)", ok,
             f"worst rel err {worst:.2e}, {elapsed:.2f}s")
    assert worst < 1e-6
    assert elapsed < 5.0


def test_criterion_2_curvature_calibration():
    ok = True
    flat = con.flat3()
    ch4 = geo.Chart(("t", "x", "y", "z"), (-2,) * 4, (2,) * 4)
    flat4 = geo.MetricField(ch4, lambda c: [[(1.0 if a == b else 0.0) + 0 * c[0]
                                             for b in range(4)] for a in range(4)])
    rep = geo.curvature_report(flat4, (0.3, -0.2, 0.5, 0.1))
    ok &= rep.riemann_norm < 1e-12 and rep.weyl_norm < 1e-12

    ch2 = geo.Chart(("x", "y"), (-3, -3), (3, 3))
    s2 = geo.MetricField(ch2, lambda c: [[4.0 / (1 + c[0] * c[0] + c[1] * c[1]) ** 2, 0],
                                         [0, 4.0 / (1 + c[0] * c[0] + c[1] * c[1]) ** 2]])
    ok &= abs(geo.curvature_report(s2, (0.4, -0.7)).scalar - 2.0) < 1e-9

    s3 = con.constant_curvature3(1.0)
    ok &= abs(geo.curvature_report(s3, (0.2, 0.1, -0.3)).scalar - 6.0) < 1e-9

    rng = np.random.default_rng(7)
    for k in (-1.0, 0.25, 1.0):
        g = con.constant_curvature3(k)
        vals = []
        for pt in rand_pts(g.chart, 20, seed=int(13 * abs(k) + 1)):
            X, Y = rng.uniform(-1, 1, 3), rng.uniform(-1, 1, 3)
            vals.append(geo.sectional_curvature(g, pt, X, Y))
        ok &= (max(vals) - min(vals)) < 1e-9 and abs(np.mean(vals) - k) < 1e-9

    announce(2, "curvature calibration (flat, S2, S3, constant curvature)", ok)
    assert ok


CURVED_CATALOG = [
    lambda: con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                                 A=con.dirac_A(1.0)).g,
    lambda: con.type3_metric(con.flat3(), con.trkalian(1)).g,
    lambda: con.type4_metric(con.berger_s3(0.8),
                             con.berger_lee(berger_ew_scale(0.8)), c=1.6).g,
]


def test_criterion_3_tensor_identities():
    ok = True
    worst = 0.0
    rng = np.random.default_rng(31)
    for maker in CURVED_CATALOG:
        g = maker()
        for pt in rand_pts(g.chart, 20, seed=5):
            rep = geo.curvature_report(g, pt)
            R = rep.riemann_low
            scale = rep.riemann_norm + 1.0
            checks = [
                np.max(np.abs(R + np.einsum("bacd->abcd", R))),
                np.max(np.abs(R + np.einsum("abdc->abcd", R))),
                np.max(np.abs(R - np.einsum("cdab->abcd", R))),
                np.max(np.abs(R + np.einsum("acdb->abcd", R)
                              + np.einsum("adbc->abcd", R))),
            ]
            gv = g.values(pt)
            ginv = np.linalg.inv(gv)
            for axes in [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1), (2, 3)]:
                checks.append(np.max(np.abs(
                    np.tensordot(ginv, rep.weyl_low, axes=([0, 1], axes)))))
            checks.append(abs(rep.weyl_norm ** 2
                              - rep.w_plus_norm ** 2 - rep.w_minus_norm ** 2))
            worst = max(worst, max(checks) / scale)
            # star involution on a random 2-form
            F = rng.uniform(-1, 1, (4, 4))
            F = F - F.T
            FF = geo.hodge_star(geo.hodge_star(F, gv, 2), gv, 2)
            worst = max(worst, np.max(np.abs(FF - F)))
        # d^2 = 0 on a random one-form over this chart
        omega = geo.OneFormField(
            g.chart, lambda c: [jets.sin(c[1]) * c[2], jets.exp(jets.sin(c[0])),
                                c[0] * c[3], jets.cos(c[2])])
        for pt in rand_pts(g.chart, 20, seed=6):
            ddo = geo.form_values(geo.ext_d(geo.ext_d(omega.jets(pt), 4), 4), 4, 3)
            worst = max(worst, np.max(np.abs(ddo)))
    ok = worst < 1e-9
    announce(3, "tensor identities on 3 curved metrics x 20 points", ok,
             f"worst {worst:.2e}")
    assert ok


def test_criterion_4_gibbons_hawking():
    fm = con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                              A=con.dirac_A(1.0))
    directions = [(1.2, 2.5), (0.7, 1.0), (2.0, 4.0), (1.5, 5.5), (2.4, 0.5)]
    ok = True
    for r in (0.5, 1.0, 2.0):
        for th, ph in directions:
            rep = geo.curvature_report(fm.g, (0.1, r, th, ph))
            ok &= rep.ricci_norm < 1e-8
            ok &= rep.w_minus_norm < 1e-8
            ok &= rep.w_plus_norm > 1e-2
    h = con.flat3_spherical()
    u = con.gh_potential(1.0)
    A = con.dirac_A(1.0)
    zero = geo.OneFormField(h.chart, lambda c: [0.0 * c[0]] * 3)
    F = geo.TwoFormField(h.chart, lambda c: geo.ext_d(A.fn(c), 3))
    for pt in rand_pts(h.chart, 6, seed=41):
        ok &= weyl3.monopole_residual(weyl3.HeldBase(h, pt), u, zero, F) < 1e-9
    announce(4, "Gibbons-Hawking Ricci-flat self-dual + monopole hypothesis", ok)
    assert ok


def test_criterion_5_type3_beltrami():
    good = con.type3_metric(con.flat3(), con.trkalian(1))
    setup = mor.SubmersionSetup(good)
    ok = True
    for pt in rand_pts(good.total_chart, 20, seed=51):
        ok &= geo.curvature_report(good.g, pt).w_minus_norm < 1e-8
        ok &= mor.fundamental_eq_residual(setup, pt) < 1e-8
    bad = con.type3_metric(con.flat3(), con.xdy())
    for pt in [(0.7, 0.6, 0.5, -0.4), (2.0, 1.0, 0.5, -0.7)]:
        ok &= geo.curvature_report(bad.g, pt).w_minus_norm > 1e-3
    announce(5, "type 3 flat + Trkalian self-dual, harmonic, control fails", ok)
    assert ok


def test_criterion_6_type3_flatness_oracle():
    fm = con.type3_metric(con.constant_curvature3(0.25))
    ok = True

    def embed(c):
        rho, x, y, z = c
        s = 2.0 * jets.sqrt(rho)
        q = 1.0 + (x * x + y * y + z * z) / 16.0
        return [s * (x / 2.0) / q, s * (y / 2.0) / q, s * (z / 2.0) / q,
                s * (1.0 - (x * x + y * y + z * z) / 16.0) / q]

    for pt in rand_pts(fm.total_chart, 8, seed=61):
        cj = jets.seed_all(pt)
        J = np.array([t.grad for t in embed(cj)])
        ok &= np.max(np.abs(J.T @ J - fm.g.values(pt))) < 1e-12   # independent oracle
        ok &= geo.curvature_report(fm.g, pt).riemann_norm < 1e-8
    announce(6, "type 3 k=1/4 flatness (independent pull-back oracle)", ok)
    assert ok


def test_criterion_7_type4_as_specified():
    failures = []

    # (a) alpha = 0 over the constant-curvature base, k = c = 1: the warped
    # product dT^2 + w^2 h_k with w^2 = e^rho + c.  Conformally flat, but not
    # Einstein (README); every curvature is fixed by K_mix and K_hor.
    k = c = 1.0
    fm = con.type4_metric(con.constant_curvature3(k), c=c)
    rng = np.random.default_rng(71)
    E = np.eye(4)
    for pt in rand_pts(fm.total_chart, 10, seed=71):
        e = np.exp(pt[0])
        u = e + c
        k_mix = -e / 2.0
        k_hor = (k - e * e / 4.0) / u
        einstein = (np.sqrt(3.0) / 2.0) * (e * e / 2.0 + c * e + 2.0 * k) / u
        rep = geo.curvature_report(fm.g, pt)
        if not rep.weyl_norm < 1e-8:
            failures.append(f"weyl={rep.weyl_norm:.3e}")
        if not abs(rep.einstein_residual_norm - einstein) < 1e-10 * einstein:
            failures.append(f"einstein={rep.einstein_residual_norm:.3e} vs {einstein:.3e}")
        # R = S (.) g, so a plane's curvature interpolates K_hor -> K_mix
        # by tau, the squared length of unit d/drho projected onto the plane.
        X, Y = rng.uniform(-1, 1, 4), rng.uniform(-1, 1, 4)
        gv = fm.g.values(pt)
        n = E[0] / np.sqrt(gv[0, 0])
        gram = np.array([[X @ gv @ X, X @ gv @ Y], [Y @ gv @ X, Y @ gv @ Y]])
        b = np.array([n @ gv @ X, n @ gv @ Y])
        tau = b @ np.linalg.solve(gram, b)
        for name, P, Q, want in (("mixed", E[0], E[1], k_mix),
                                 ("horizontal", E[1], E[2], k_hor),
                                 ("random", X, Y, k_hor + (k_mix - k_hor) * tau)):
            got = geo.sectional_curvature(fm.g, pt, P, Q)
            if not abs(got - want) < 1e-10:
                failures.append(f"{name} sectional={got:.3e} vs {want:.3e}")

    # (b) c = 1 over flat with the sign-matched Trkalian form (d alpha = + * alpha):
    # twistorial, but the base is not Einstein-Weyl, so not self-dual.
    alpha = con.trkalian(-1)
    base = weyl3.HeldBase(con.flat3(), (0.3, -0.5, 0.8))
    assert weyl3.beltrami_residual(base, alpha, +1) < 1e-10
    fm2 = con.type4_metric(con.flat3(), alpha, c=1.0)
    setup2 = mor.SubmersionSetup(fm2)
    for pt in rand_pts(fm2.total_chart, 5, seed=72):
        tw = mor.twistorial_sd_residual(setup2, pt)
        if not tw < 1e-8:
            failures.append(f"twistorial_sd={tw:.3e}")
        ew = weyl3.einstein_weyl_residual(weyl3.HeldBase(con.flat3(), tuple(pt[1:])), alpha)
        if not abs(ew - np.sqrt(7.0 / 6.0)) < 1e-10:
            failures.append(f"einstein_weyl={ew:.3e} vs sqrt(7/6)")
        wm = geo.curvature_report(fm2.g, pt).w_minus_norm
        if not wm > 1e-2:
            failures.append(f"asd_weyl={wm:.3e} (expected O(0.1))")

    # (c) the positive instance: Einstein-Weyl Berger sphere, c = 2 mu
    mu = 0.8
    h = con.berger_s3(mu)
    lee = con.berger_lee(berger_ew_scale(mu))
    c3 = geo.ScalarField(h.chart, lambda x: 2.0 * mu + 0.0 * x[0])
    fm3 = con.type4_metric(h, lee, c=2.0 * mu)
    for pt in rand_pts(fm3.total_chart, 5, seed=73):
        bp = weyl3.HeldBase(h, tuple(pt[1:]))
        ew = weyl3.einstein_weyl_residual(bp, lee)
        if not ew < 1e-10:
            failures.append(f"berger einstein_weyl={ew:.3e}")
        gb = weyl3.generalized_beltrami_residual(bp, lee, c3)
        if not gb < 1e-10:
            failures.append(f"berger beltrami={gb:.3e}")
        rep = geo.curvature_report(fm3.g, pt)
        if not rep.w_minus_norm < 1e-8:
            failures.append(f"berger asd_weyl={rep.w_minus_norm:.3e}")
        if not rep.w_plus_norm > 1e-2:
            failures.append(f"berger sd_weyl={rep.w_plus_norm:.3e}")

    ok = not failures
    announce(7, "type 4 closed forms (not Einstein; twistorial non-EW; Berger EW self-dual)",
             ok, "; ".join(sorted(set(failures))[:3]) if failures else "")
    assert ok, ("type-4 curvature, Einstein-Weyl or self-duality value off its "
                "closed form (README, criterion 7): " + "; ".join(sorted(set(failures))))


def _catalog_setups():
    h = con.flat3()
    chart = geo.Chart(("tau",) + h.chart.names, (-1.5,) + h.chart.lo,
                      (1.5,) + h.chart.hi)
    f = geo.ScalarField(chart, lambda c: jets.exp(2.0 * c[0]))
    return {
        "type1": mor.SubmersionSetup(
            con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                                 A=con.dirac_A(1.0))),
        "type2": mor.SubmersionSetup(con.type2_warped(h, f)),
        "type3": mor.SubmersionSetup(con.type3_metric(con.flat3(), con.trkalian(1))),
        "type4": mor.SubmersionSetup(
            con.type4_metric(con.flat3(), con.trkalian(-1), c=1.0)),
    }


def test_criterion_8_twistoriality_equivalence():
    ok = True
    for name, setup in _catalog_setups().items():
        for pt in rand_pts(setup.fm.total_chart, 4, seed=81):
            samples = mor.fibre_samples_about(setup.fm, pt, 3)
            basic = mor.twistorial_basic_residual(setup, samples)
            sd = mor.twistorial_sd_residual(setup, pt)
            ok &= basic < 1e-8 and sd < 1e-7
    controls = {
        "type3_xdy": (mor.SubmersionSetup(con.type3_metric(con.flat3(), con.xdy())),
                      (0.7, 0.6, 0.5, -0.4)),
        "type4_mismatch": (mor.SubmersionSetup(
            con.type4_metric(con.flat3(), con.trkalian(1), c=1.0)),
            (0.2, 0.6, -0.4, 1.0)),
    }
    for name, (setup, pt) in controls.items():
        samples = mor.fibre_samples_about(setup.fm, pt, 3)
        ok &= mor.twistorial_basic_residual(setup, samples) > 1e-4
        ok &= mor.twistorial_sd_residual(setup, pt) > 1e-4
    announce(8, "twistoriality: basic <=> self-dual certificate", ok)
    assert ok


def test_criterion_9_monopole_criteria():
    gh = mor.SubmersionSetup(
        con.jones_tod_metric(con.flat3_spherical(), con.gh_potential(1.0),
                             A=con.dirac_A(1.0)))
    ok = True
    pts = rand_pts(gh.fm.total_chart, 5, seed=91)
    for pt in pts:
        ok &= mor.pullback_sd_residual(gh, con.gh_potential(2.0), con.dirac_A(2.0),
                                       pt) < 1e-8
    ch = con.flat3_spherical().chart
    corrupted = geo.OneFormField(
        ch, lambda c: [0.0 * c[0], 0.0 * c[0], (jets.cos(c[1]) - 1.0) + 0.3 * c[0]])
    ok &= mor.pullback_sd_residual(gh, con.gh_potential(2.0), corrupted,
                                   pts[0]) > 1e-4
    base = lambda pt: weyl3.HeldBase(gh.fm.h, tuple(pt[1:]))
    for pt in pts:
        ok &= mor.monopole_eq_residual(gh, None, pt, base(pt)) < 1e-8
    perturbed = geo.OneFormField(ch, lambda c: [1.0 + 0.0 * c[0], 0.0 * c[0],
                                                0.0 * c[0]])
    ok &= mor.monopole_eq_residual(gh, perturbed, pts[0], base(pts[0])) > 1e-3
    announce(9, "monopole pull-back and compatibility criteria", ok)
    assert ok


def test_criterion_10_classifier():
    ok = True
    expected = {"type1": "type1", "type2": "type2_conformal",
                "type3": "type3", "type4": "type4"}
    w_flat = geo.ScalarField(con.flat3().chart,
                             lambda c: 1.0 + 0.5 * jets.sin(c[0]))
    w_sph = geo.ScalarField(con.flat3_spherical().chart,
                            lambda c: 1.0 + 0.5 * jets.sin(c[0]))
    for name, setup in _catalog_setups().items():
        pt = rand_pts(setup.fm.total_chart, 1, seed=101)[0]
        samples = mor.fibre_samples_about(setup.fm, pt, 4)
        cls = mor.classify_type(setup, samples)
        ok &= cls.label == expected[name]
        if name == "type4":
            ok &= abs(cls.recovered_c - 1.0) < 1e-6
        w = w_sph if name == "type1" else w_flat
        rescaled = conformal_rescale_fibration(setup.fm, w)
        cls_r = mor.classify_type(mor.SubmersionSetup(rescaled),
                                  mor.fibre_samples_about(rescaled, pt, 4))
        ok &= cls_r.label == expected[name]
    announce(10, "classifier labels, c recovery, rescale invariance", ok)
    assert ok


def test_criterion_11_determinism(tmp_path, capsys):
    import os
    scene_dir = os.path.join(os.path.dirname(__file__), "..", "scenes")
    scenes = sorted(f for f in os.listdir(scene_dir) if f.endswith(".json"))
    hashes = []
    for _ in range(2):
        run = {}
        for name in scenes:
            path = os.path.join(scene_dir, name)
            for command in ("report", "verify"):
                cli.main([command, path])
                run[name, command] = json.loads(capsys.readouterr().out)["report_hash"]
        hashes.append(run)
    ok = hashes[0] == hashes[1] and len(hashes[0]) == 2 * len(scenes)
    announce(11, "determinism: identical report hashes across runs", ok)
    assert ok
