"""Job pools of the three benchmark workloads.

Every workload draws its jobs from a fixed pool.  The pool is defined here by
code alone (each entry is seeded from its own name), so ``reference.json`` can
hold the recorded output of every job a run may execute.  The run seed only
chooses the variants of each stratum and the order of the jobs; the strata
themselves (family x points per job, scene x command, steps x mu band) are the
same in every run, so job-time percentiles compare across seeds.

A job is a dict with

- ``id``: stable key into ``reference.json``;
- ``command``: ``report``, ``verify``, ``classify`` or ``sweep``;
- ``scene``: the scene document written to disk before the run;
- ``args``: CLI arguments after the scene path;
- ``points``: sample points times requested sweep steps;
- ``mu``: the Berger squashing, for the closed-form sweep oracle.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("report_grid", "verify_classify", "sweep_locate")

# Points per report job: log-spaced from 1 to 64, each a product of four grid
# axis counts so that both ``grid`` and ``random`` samples can realise it.
REPORT_SIZES = {1: (1, 1, 1, 1), 2: (2, 1, 1, 1), 3: (3, 1, 1, 1),
                4: (2, 2, 1, 1), 6: (3, 2, 1, 1), 8: (2, 2, 2, 1),
                12: (3, 2, 2, 1), 16: (2, 2, 2, 2), 24: (3, 2, 2, 2),
                32: (4, 2, 2, 2), 48: (4, 3, 2, 2), 64: (4, 4, 2, 2)}
REPORT_VARIANTS = 4

FAMILIES = ("type1", "type2", "type3", "type4", "bryant")

# Scalars that vanish for each family; the report gates on them.
REPORT_CHECKS = {"type1": ["ricci", "w_minus"], "type2": ["weyl", "w_minus"],
                 "type3": ["w_minus"], "type4": ["w_minus"], "bryant": ["w_minus"]}

BASE_CHECKS = ["fundamental_eq", "twistorial_basic", "twistorial_sd", "monopole",
               "einstein_weyl", "beltrami"]
# Checks that apply to each verify scene.  Beltrami does not apply to the
# Gibbons-Hawking connection; the monopole pair checks need its potential.
VERIFY_CHECKS = {"type1": ["fundamental_eq", "twistorial_basic", "twistorial_sd",
                           "monopole", "einstein_weyl", "pullback_sd", "closure"]}

# verify_classify scenes and their points per job (2-6).  The last two are
# negative controls whose non-pass is part of the reference: the x dy
# connection is not Beltrami, and the Berger Lee form at a fixed scale 0.5 is
# not Einstein-Weyl.
VERIFY_SCENES = {"type1": 3, "type2": 4, "type3": 5, "type4": 6, "bryant": 2,
                 "type3_control_xdy": 4, "type4_not_ew": 3}
VERIFY_VARIANTS = 8

SWEEP_STEPS = (6, 7, 8, 9, 10)
SWEEP_MU_BANDS = 5
SWEEP_MU_RANGE = (0.3, 0.95)
SWEEP_VARIANTS = 4
SWEEP_PARAM = "alpha.params.scale"


def berger_ew_scale(mu):
    """Closed-form Einstein-Weyl scale of the Berger sphere (the oracle)."""
    return 2.0 * mu * math.sqrt(1.0 - mu * mu)


def _family(name, rng):
    """Base and construction of one family, with drawn family parameters."""
    if name == "type1":
        m = rng.choice((0.5, 1.0, 2.0))
        return {"base": {"name": "flat3_spherical"},
                "construction": {"family": "type1", "params": {
                    "u": {"name": "gh_potential", "params": {"m": m}},
                    "A": {"name": "dirac_A", "params": {"m": m}}}}}
    if name == "type2":
        rate = rng.choice((1.0, 2.0, 3.0))
        return {"base": {"name": "flat3"},
                "construction": {"family": "type2", "params": {
                    "f": {"name": "fibre_exp", "params": {"rate": rate}}}}}
    if name in ("type3", "bryant"):
        return {"base": {"name": "flat3"},
                "construction": {"family": name, "params": {
                    "A": {"name": "trkalian", "params": {"sign": 1}}}}}
    if name == "type3_control_xdy":
        return {"base": {"name": "flat3"},
                "construction": {"family": "type3", "params": {"A": {"name": "xdy"}}}}
    mu = round(rng.uniform(*SWEEP_MU_RANGE), 6)
    scale = berger_ew_scale(mu) if name == "type4" else 0.5
    return {"base": {"name": "berger_s3", "params": {"mu": mu}},
            "construction": {"family": "type4", "params": {
                "alpha": {"name": "berger_lee", "params": {"scale": scale}},
                "c": 2.0 * mu}}}


def _samples(size, axes, variant, rng):
    """Even variants sample a grid when ``axes`` realises ``size``, odd ones
    (and sizes with no grid) a seeded random set."""
    if variant % 2 == 0 and axes is not None:
        counts = list(axes)
        rng.shuffle(counts)
        return {"grid": {"counts": counts, "margin": rng.choice((0.1, 0.15, 0.2))}}
    return {"random": {"count": size, "seed": rng.randrange(2 ** 31)}}


def _report_pool():
    pool = {}
    for fam in FAMILIES:
        for size, axes in REPORT_SIZES.items():
            stratum = []
            for v in range(REPORT_VARIANTS):
                rng = random.Random(f"report_grid/{fam}/{size}/{v}")
                scene = {"schema": 1, **_family(fam, rng),
                         "samples": _samples(size, axes, v, rng),
                         "checks": REPORT_CHECKS[fam]}
                stratum.append({"id": f"report/{fam}/{size}/{v}", "command": "report",
                                "scene": scene, "args": [], "points": size})
            pool[(fam, size)] = stratum
    return pool


_VERIFY_AXES = {2: (2, 1, 1, 1), 3: (3, 1, 1, 1), 4: (2, 2, 1, 1), 6: (3, 2, 1, 1)}


def _verify_pool():
    pool = {}
    for name, size in VERIFY_SCENES.items():
        base = name if name in FAMILIES else name.split("_")[0]
        checks = VERIFY_CHECKS.get(base, BASE_CHECKS)
        stratum = []
        for v in range(VERIFY_VARIANTS):
            rng = random.Random(f"verify_classify/{name}/{v}")
            scene = {"schema": 1, **_family(name, rng),
                     "samples": _samples(size, _VERIFY_AXES.get(size), v, rng)}
            stratum.append((
                {"id": f"verify/{name}/{v}", "command": "verify", "scene": scene,
                 "args": ["--checks", ",".join(checks)], "points": size},
                {"id": f"classify/{name}/{v}", "command": "classify", "scene": scene,
                 "args": [], "points": size}))
        pool[name] = stratum
    return pool


def _sweep_pool():
    pool = {}
    lo_mu, hi_mu = SWEEP_MU_RANGE
    band = (hi_mu - lo_mu) / SWEEP_MU_BANDS
    for steps in SWEEP_STEPS:
        for b in range(SWEEP_MU_BANDS):
            stratum = []
            for v in range(SWEEP_VARIANTS):
                rng = random.Random(f"sweep_locate/{steps}/{b}/{v}")
                mu = round(lo_mu + band * (b + rng.uniform(0.05, 0.95)), 6)
                target = berger_ew_scale(mu)
                width = rng.uniform(0.3, 0.5)
                # the target sits well inside the range, never next to an end
                lo = target - width * rng.uniform(0.3, 0.7)
                hi = lo + width
                scene = {"schema": 1, "base": {"name": "berger_s3", "params": {"mu": mu}},
                         "alpha": {"name": "berger_lee", "params": {"scale": 0.5}},
                         "samples": {"random": {"count": 1,
                                                "seed": rng.randrange(2 ** 31)}},
                         "checks": ["einstein_weyl"]}
                args = ["--param", SWEEP_PARAM, f"--range={lo!r}:{hi!r}",
                        "--steps", str(steps), "--checks", "einstein_weyl",
                        "--locate", "einstein_weyl"]
                stratum.append({"id": f"sweep/{steps}/{b}/{v}", "command": "sweep",
                                "scene": scene, "args": args, "points": steps,
                                "mu": mu})
            pool[(steps, b)] = stratum
    return pool


def pool(workload):
    """Every job the workload can run, grouped by stratum, one list per stratum
    of interchangeable variants (a verify_classify variant is a job pair)."""
    return {"report_grid": _report_pool, "verify_classify": _verify_pool,
            "sweep_locate": _sweep_pool}[workload]()


def all_jobs(workload):
    """The pool flattened to single jobs."""
    out = []
    for stratum in pool(workload).values():
        for variant in stratum:
            out.extend(variant if isinstance(variant, tuple) else (variant,))
    return out


# Variants drawn per stratum for one pass.  verify_classify takes two, so that
# its median job lies in a run of 28 jobs rather than between two of 14.
VARIANTS_PER_PASS = {"report_grid": 1, "verify_classify": 2, "sweep_locate": 1}


def cycle(workload, seed):
    """One run's job list: distinct variants from every stratum, in seeded order."""
    rng = random.Random(seed)
    jobs = []
    for stratum in pool(workload).values():
        for variant in rng.sample(stratum, VARIANTS_PER_PASS[workload]):
            jobs.extend(variant if isinstance(variant, tuple) else (variant,))
    rng.shuffle(jobs)
    return jobs
