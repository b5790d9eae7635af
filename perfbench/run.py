"""sdharm benchmark: drives ``sdharm.cli.main`` in-process on generated scenes.

Usage (from the repository root):

    python3 perfbench/run.py --workload report_grid --seed 1 --seconds 25 --trace 0

One single-threaded process, one client, closed loop: each job is one CLI
command, the next starts when the previous returns.  A run

1. writes the scenes of its job list (``workloads.cycle``: seeded variants of
   every stratum, in seeded order) under ``perfbench/out/``;
2. runs the first job once untimed (warm-up);
3. runs whole passes over the job list, at least three, until ``--seconds``
   have elapsed, timing each ``cli.main`` call and a fixed calibration
   kernel between consecutive jobs;
4. samples ``setup_s`` in a fresh child interpreter before the first pass
   and after each pass, five in all;
5. with ``--trace 1``, runs two more passes with every public function of
   each layer wrapped (``tracer.py``) and reports per-layer self time and
   counts instead of the end-to-end metrics.

Every output is checked against ``reference.json`` (recorded from the seed
commit by ``record.py``), sweep minima against the closed-form Einstein-Weyl
scale, and every repeated execution of a job against its first one byte for
byte.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

Why calibrated costs.  On a host whose cores are shared with other machines,
the same job's wall time swings by up to 2x for tens of seconds at a time;
whole runs land in slow or fast stretches, so no statistic of raw times taken
within one run repeats across runs.  The calibration kernel slows in step with
the jobs (same mix: small numpy arrays driven from a Python loop), so the cost
of an execution, its wall time divided by the mean of the kernel times just
before and after it, stays put.  ``point_cost_cal`` and ``job_cost_p50_cal`` are these
costs; the raw wall-time figures are printed beside them.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from importlib import metadata
from pathlib import Path
from time import perf_counter

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_CHILDREN = 5
MIN_PASSES = 3
P90_MIN_JOBS = 100
CHILD_TIMEOUT_S = 60
CAL_ITERATIONS = 800

# Cold cost before the first point, measured inside a fresh interpreter.
SETUP_CODE = """
import sys
from time import perf_counter
t0 = perf_counter()
sys.path.insert(0, sys.argv[1])
import sdharm.cli as cli
resolved = cli.ResolvedScene(cli.load_scene(sys.argv[2]))
resolved.sample_points()
print(repr(perf_counter() - t0))
"""


def calibrate():
    """Seconds of one run of a fixed kernel that does not touch sdharm:
    4-vector and 4x4 numpy arithmetic in a Python loop, the operation mix of
    order-2 jet products."""
    g = np.arange(4.0)
    h = np.eye(4)
    start = perf_counter()
    for _ in range(CAL_ITERATIONS):
        cross = np.outer(g, g)
        h = 0.5 * h + cross + cross.T
        g = g * 0.999 + 0.001
    return perf_counter() - start


def run_cli(cli, job, scene_path):
    """One job: (exit code, stdout text, seconds in ``cli.main``)."""
    out, err = io.StringIO(), io.StringIO()
    argv = [job["command"], str(scene_path)] + job["args"]
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = perf_counter()
        code = cli.main(argv)
        seconds = perf_counter() - start
    return code, out.getvalue(), seconds


class Runner:
    """Runs jobs, checks each output and keeps the failure record."""

    def __init__(self, cli, checks, reference, scene_paths):
        self.cli = cli
        self.checks = checks
        self.reference = reference
        self.scene_paths = scene_paths
        self.first_output = {}
        self.attempted = 0
        self.failures = []

    def run(self, job, span=None):
        """Run and check one job; returns its seconds in ``cli.main``."""
        self.attempted += 1
        path = self.scene_paths[job["id"]]
        try:
            if span is None:
                code, text, seconds = run_cli(self.cli, job, path)
            else:
                code, text, seconds = span("job", run_cli, self.cli, job, path)
        except Exception:      # a crashing job is a failed job, not a crashed run
            self.failures.append((job["id"], [traceback.format_exc(limit=3)]))
            return 0.0
        errors = self.checks.check_job(job, code, text, self.reference)
        if not errors:
            fp = self.checks.fingerprint(job["command"], text)
            first = self.first_output.setdefault(job["id"], fp)
            if fp != first:
                errors.append("output differs from the job's first execution")
        if errors:
            self.failures.append((job["id"], errors))
        return seconds


class SetupProbe:
    """``setup_s`` samples, each from a fresh interpreter: import + load +
    resolve + sample of one scene.  Samples are spread over the run so that
    one burst of load from other processes on the host cannot set the median."""

    def __init__(self, scene_path):
        self.scene_path = scene_path
        self.values = []

    def sample(self):
        if len(self.values) >= SETUP_CHILDREN:
            return
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC),
                               str(self.scene_path)], capture_output=True, text=True,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up child failed: {proc.stderr.strip()}")
        self.values.append(float(proc.stdout.strip().splitlines()[-1]))

    def median(self):
        while len(self.values) < SETUP_CHILDREN:
            self.sample()
        return statistics.median(self.values)


class Timings:
    """Per job id: wall seconds of each execution and its calibrated cost."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.seconds = {job["id"]: [] for job in jobs}
        self.costs = {job["id"]: [] for job in jobs}

    def run_pass(self, run_job):
        before = calibrate()
        for job in self.jobs:
            seconds = run_job(job)
            after = calibrate()
            self.seconds[job["id"]].append(seconds)
            self.costs[job["id"]].append(2.0 * seconds / (before + after))
            before = after

    def job_costs(self):
        """Each job's median cost over its executions."""
        return {k: statistics.median(v) for k, v in self.costs.items()}

    def execution_costs(self):
        return [c for cs in self.costs.values() for c in cs]

    def executions_ms(self):
        return sorted(1e3 * t for ts in self.seconds.values() for t in ts)


def timed_passes(runner, jobs, seconds, between):
    """Whole passes over ``jobs``, at least ``MIN_PASSES``, until ``seconds``
    have elapsed; ``between`` runs after each pass."""
    timings = Timings(jobs)
    start = perf_counter()
    passes = 0
    while passes < MIN_PASSES or perf_counter() - start < seconds:
        timings.run_pass(runner.run)
        passes += 1
        between()
    return timings, passes


def traced_pass(runner, jobs, tracer_mod):
    """One pass over ``jobs`` with every layer wrapped."""
    timings = Timings(jobs)
    with tracer_mod.Tracer() as tr:
        def run_job(job):
            tr.job = job["id"]
            return runner.run(job, span=tr.span)
        timings.run_pass(run_job)
    return tr, timings


def layer_metrics(tr, tracer_mod, jobs):
    """Per-layer counts and self times of one traced pass over ``jobs``."""
    points = sum(j["points"] for j in jobs)
    calls = {n: tr.calls[n] for n in tracer_mod.NAMES}
    self_ms = {n: 1e3 * tr.self_s[n] for n in tracer_mod.NAMES}
    m = {}
    for n in tracer_mod.NAMES:
        m[f"{n}.calls"] = (calls[n], "count")
        m[f"{n}.self_ms"] = (self_ms[n], "ms")

    def total(*names):
        return sum(self_ms[n] for n in names)

    field = ["jets.ScalarField.jet", "jets.OneFormField.jets", "jets.TwoFormField.jets",
             "geometry.metric_jets"]
    curvature = ["geometry." + f for f in ("riemann", "weyl", "curvature_report",
                                           "sd_asd_split", "split_two_form", "hodge_star")]
    mor_res = [n for n in tracer_mod.NAMES
               if n.startswith("morphism.") and n.endswith("_residual")]
    w3_res = [n for n in tracer_mod.NAMES
              if n.startswith("weyl3.") and n.endswith("_residual")]
    ctx = calls["morphism.SubmersionSetup.ctx"]
    m.update({
        "jets.field_eval_ms": (total(*field), "ms"),
        "jets.field_evals_per_point": (sum(calls[n] for n in field) / points, "count/point"),
        "jets.jet_allocs_per_point": (tr.jet_allocs / points, "count/point"),
        "geometry.inverse_ms": (total("geometry.jet_matrix_inverse"), "ms"),
        "geometry.christoffel_ms": (total("geometry.christoffel_jets"), "ms"),
        "geometry.curvature_ms": (total(*curvature), "ms"),
        "morphism.ctx_ms": (total("morphism.SubmersionSetup.ctx"), "ms"),
        "morphism.ctx_builds_per_point": (ctx / points, "count/point"),
        "morphism.ctx_reuse": (len(tr.ctx_points) / ctx if ctx else 0.0, "ratio"),
        "morphism.residual_ms": (total(*mor_res), "ms"),
        "morphism.classify_ms": (total("morphism.classify_type"), "ms"),
        "weyl3.connection_ms": (total("weyl3.weyl_connection_coeffs"), "ms"),
        "weyl3.residual_ms": (total(*w3_res), "ms"),
        "weyl3.locate_evals_per_job": (tr.locate_evals / len(jobs), "count/job"),
        "cli.scene_ms": (total("cli.validate_scene", "cli.ResolvedScene.__init__"), "ms"),
        "cli.scene_resolutions_per_job": (calls["cli.ResolvedScene.__init__"] / len(jobs),
                                          "count/job"),
        "cli.emit_ms": (total("cli.build_report", "cli.canonical_json"), "ms"),
        "constructions.catalog_ms": (total("constructions.catalog"), "ms"),
    })
    return m


def is_count(name):
    return name.endswith((".calls", "_per_point", "_per_job", "ctx_reuse"))


def host_info(seed, workload):
    try:
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10).stdout.strip()
    except OSError:
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((SRC / "sdharm").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": np.__version__, "jsonschema": metadata.version("jsonschema"),
            "git_commit": commit or "unknown", "src_sha256": digest.hexdigest(),
            "workload": workload, "seed": seed}


def end_to_end(timings, passes, setup, jobs):
    """The bounded metrics, plus the raw wall-time figures printed beside them."""
    costs = timings.job_costs()
    points = sum(job["points"] for job in jobs)
    executions = timings.executions_ms()
    n = len(executions)
    metrics = {
        "point_cost_cal": (sum(costs.values()) / points, "cal"),
        "job_cost_p50_cal": (statistics.median(timings.execution_costs()), "cal"),
        "setup_s": (setup.median(), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    raw = {
        "points_per_s": (passes * points / (sum(executions) / 1e3), "1/s"),
        "job_ms_p50": (statistics.median(executions), "ms"),
    }
    notes = {
        "point_cost_cal": f"{len(jobs)} jobs, {points} points, median of {passes} passes",
        "job_cost_p50_cal": f"median of {n} executions of {len(jobs)} jobs",
        "setup_s": f"median of {SETUP_CHILDREN} fresh interpreters",
        "peak_rss_mb": "this process",
        "points_per_s": f"raw wall time, {passes} passes x {points} points",
        "job_ms_p50": f"raw wall time, {n} executions of {len(jobs)} jobs",
    }
    for name, (value, unit) in {**metrics, **raw}.items():
        print(f"{name}: {value:.6g} {unit} ({notes[name]})")
    if n >= P90_MIN_JOBS:
        p90 = statistics.quantiles(executions, n=10)[-1]
        raw["job_ms_p90"] = (p90, "ms")
        print(f"job_ms_p90: {p90:.6g} ms (raw wall time, {n} executions, "
              f"{sum(t > p90 for t in executions)} beyond p90)")
    else:
        print(f"job_ms_p90: not reported ({n} executions < {P90_MIN_JOBS})")
    return metrics, raw


def per_layer(runner, jobs, timings, tracer_mod, spans_stem):
    """Two traced passes: counts must repeat exactly; times are the lower of
    the two.  Returns (metrics, counts repeat)."""
    traced = [traced_pass(runner, jobs, tracer_mod) for _ in range(2)]
    layers = [layer_metrics(tr, tracer_mod, jobs) for tr, _ in traced]
    for k, (tr, _) in enumerate(traced):
        tr.write_spans(OUT / f"{spans_stem}-pass{k}.jsonl")
    metrics, repeat = {}, True
    for name, (value, unit) in layers[0].items():
        other = layers[1][name][0]
        if is_count(name) and value != other:
            repeat = False
            print(f"error: count {name} differs between traced runs: {value} != {other}",
                  file=sys.stderr)
        metrics[name] = (min(value, other), unit)
    untraced = timings.job_costs()
    traced_cost = sum(min(t.costs[k][0] for _, t in traced) for k in untraced)
    overhead = traced_cost / sum(untraced.values()) - 1.0
    metrics["trace_overhead_frac"] = (overhead, "frac")
    print(f"trace_overhead_frac: {overhead:.4f} (calibrated cost of the cheaper of 2 "
          f"traced passes against untraced, {len(jobs)} jobs)")
    return metrics, repeat


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "sdharm" / "cli.py").is_file():
        print(f"error: no sdharm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("SDHARM_TOL", None)     # verdicts must not depend on the shell
    from sdharm import cli
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        p.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    reference = json.loads((HERE / "reference.json").read_text())["jobs"]

    jobs = workloads.cycle(args.workload, args.seed)
    scene_dir = OUT / f"scenes-{args.workload}-{args.seed}"
    scene_dir.mkdir(parents=True, exist_ok=True)
    scene_paths = {}
    for job in jobs:
        path = scene_dir / (job["id"].replace("/", "_") + ".json")
        path.write_text(json.dumps(job["scene"]))
        scene_paths[job["id"]] = path

    info = host_info(args.seed, args.workload)
    print("# " + " ".join(f"{k}={v}" for k, v in info.items()))
    setup = SetupProbe(scene_paths[jobs[0]["id"]])
    setup.sample()
    runner = Runner(cli, checks, reference, scene_paths)
    runner.run(jobs[0])                    # warm-up job, untimed
    timings, passes = timed_passes(runner, jobs, args.seconds, setup.sample)
    metrics, raw = end_to_end(timings, passes, setup, jobs)
    result = {"host": info, "passes": passes, "raw": raw, "end_to_end": metrics,
              "job_seconds": timings.seconds, "job_costs": timings.costs,
              "setup_children": setup.values}

    repeat = True
    if args.trace:
        import tracer
        metrics, repeat = per_layer(runner, jobs, timings, tracer,
                                    f"spans-{args.workload}-{args.seed}")
        result["per_layer"] = metrics

    failed = len(runner.failures)
    print(f"error_frac: {failed / runner.attempted:.6g} "
          f"(failed={failed}, attempted={runner.attempted})")
    for job_id, errors in runner.failures[:10]:
        print(f"error: {job_id}: {'; '.join(errors)}", file=sys.stderr)
    correct = repeat and not runner.failures
    result.update(correct=correct, attempted=runner.attempted, failed=failed,
                  failures=runner.failures[:50])
    (OUT / f"result-{args.workload}-{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1, default=str))
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
