"""Run perfbench on two checkouts in alternating pairs, and compare each metric.

    python tools/pairs.py --root <parent> --root <change> --pairs N
        [--workload W ...] [--seed 7101] [--json BENCH.json]

For each workload (``--workload``, which may repeat; by default those the
parent's ``BENCHMARK.json`` declares), pair i runs ``perfbench/run.py --workload W --seed <seed + i>
--seconds 6 --trace 0`` once on each checkout, each run in a child process.
The parent runs first in the even pairs and the change in the odd ones, so a
slow stretch of a shared host falls on both sides alike.  Both sides run from
one path: before each run the checkout (without ``.git`` and perfbench's
``out/``) is copied into one temporary directory, since ``peak_rss_mb`` moves
with the length of the path its sources are imported from.

Per workload and end-to-end metric it prints each side's median over the
pairs, the parent's interquartile range, in how many pairs the change was
lower (every end-to-end metric of perfbench is better lower), and the seeds.
Every run lasts ``SECONDS``, so that every claim is measured alike.
``--json`` writes the same numbers, per workload with each run's metrics, and
both checkouts' commits, each side's host line as perfbench prints it (its
``src_sha256`` names the sources run) without the run's seed and workload,
and numpy's BLAS, into one file.  The tool claims nothing: perfbench
keeps the bounds.  It exits 1 if a run is not ``correct`` or has failed jobs.
A pair of 6 s runs takes about 30 s on a 2-core host.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")
SECONDS = 6.0
HOST_DROPPED = ("seed=", "workload=", "git_commit=")
IGNORED = shutil.ignore_patterns(".git", "out", "__pycache__", ".pytest_cache", ".hypothesis")


def commit(root):
    """The checkout's HEAD, with ``+dirty`` if its tracked files changed; or unknown."""
    try:
        head = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        dirty = subprocess.run(["git", "-C", str(root), "status", "--porcelain",
                                "--untracked-files=no"], capture_output=True, text=True,
                               timeout=10).stdout.strip()
    except OSError:
        return "unknown"
    return head.stdout.strip() + ("+dirty" if dirty else "") if head.returncode == 0 \
        else "unknown"


def blas():
    """numpy's BLAS: its name and OpenBLAS's configuration line (its kernel last)."""
    info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return f"{info.get('name')} {info.get('openblas configuration', info.get('version'))}"


def run_once(root, work, workload, seed):
    """(host line as a dict, the result perfbench's last line holds) of one run
    of ``root``'s perfbench, copied to ``work`` first."""
    shutil.rmtree(work, ignore_errors=True)
    shutil.copytree(root, work, ignore=IGNORED)
    child = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
                            str(seed), "--seconds", str(SECONDS), "--trace", "0"],
                           cwd=work, capture_output=True, text=True)
    lines = child.stdout.splitlines()
    if child.returncode or not lines:
        raise SystemExit(f"{root}: perfbench exited {child.returncode}\n{child.stderr[-2000:]}")
    host = next((l[2:].split() for l in lines if l.startswith("# ")), [])
    # the seed and workload are the run's; the copy has no .git, so no commit
    return dict(kv.split("=", 1) for kv in host if not kv.startswith(HOST_DROPPED)), \
        json.loads(lines[-1])


def summary(runs):
    """{metric: its medians, the parent's IQR and the change's wins}, from
    ``runs``, a list of {side: result} per pair."""
    out = {}
    for name, unit in ((k, v["unit"]) for k, v in runs[0]["parent"]["metrics"].items()):
        values = {s: [pair[s]["metrics"][name]["value"] for pair in runs] for s in SIDES}
        q1, _, q3 = statistics.quantiles(values["parent"], n=4, method="inclusive") \
            if len(runs) > 1 else (0.0, 0.0, 0.0)
        out[name] = {"unit": unit, "parent_median": statistics.median(values["parent"]),
                     "change_median": statistics.median(values["change"]),
                     "parent_iqr": q3 - q1, "pairs": len(runs),
                     "change_wins": sum(c < p for p, c in zip(*values.values()))}
    return out


def declared_workloads(root):
    """The names of the workloads a checkout's BENCHMARK.json declares."""
    return [w["name"] for w in json.loads((root / "BENCHMARK.json").read_text())["workloads"]]


def run_pairs(roots, work, workload, seeds, hosts):
    """(runs, order) of ``workload``: a {side: result} per pair, and which
    side ran first in each; ``hosts`` gets each side's host line."""
    runs, order = [], []
    for i, seed in enumerate(seeds):
        sides = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in sides:
            hosts[side], pair[side] = run_once(roots[side], work, workload, seed)
        runs.append(pair)
        order.append(list(sides))
        costs = [f"{s} {pair[s]['metrics']['point_cost_cal']['value']:.4g}"
                 for s in SIDES if "point_cost_cal" in pair[s]["metrics"]]
        print(f"{workload} pair {i + 1}/{len(seeds)} (seed {seed}, {sides[0]} first): "
              + ", ".join(costs), flush=True)
    return runs, order


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", required=True,
                   help="the parent checkout, then the change's")
    p.add_argument("--workload", action="append",
                   help="a workload to run; repeat for several (default: every workload "
                        "of the parent's BENCHMARK.json)")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--seed", type=int, default=7101, help="the first pair's seed (default 7101)")
    p.add_argument("--json", help="write the numbers to this file")
    args = p.parse_args(argv)
    if len(args.root) != 2 or args.pairs < 1:
        p.error("give --root twice (the parent, then the change) and --pairs >= 1")
    roots = dict(zip(SIDES, (Path(r).resolve() for r in args.root)))
    seeds = [args.seed + i for i in range(args.pairs)]
    workloads, hosts = {}, {}
    with tempfile.TemporaryDirectory(prefix="pairs-") as tmp:
        for workload in args.workload or declared_workloads(roots["parent"]):
            runs, order = run_pairs(roots, Path(tmp) / "checkout", workload, seeds, hosts)
            workloads[workload] = {
                "order": order, "metrics": summary(runs),
                "correct": all(pair[s]["correct"] and not pair[s]["failed"]
                               for pair in runs for s in SIDES),
                "runs": [{s: {k: pair[s][k] for k in ("correct", "attempted", "failed",
                                                      "metrics")} for s in SIDES}
                         for pair in runs]}
    for workload, w in workloads.items():
        print(f"\n{workload}: {args.pairs} pairs, --seconds {SECONDS:g}, seeds "
              f"{seeds[0]}-{seeds[-1]}, correct: {w['correct']}")
        print("| metric | parent median | change median | parent IQR | change lower |")
        print("| --- | ---: | ---: | ---: | ---: |")
        for name, m in w["metrics"].items():
            print(f"| {name} ({m['unit']}) | {m['parent_median']:.6g} | "
                  f"{m['change_median']:.6g} | {m['parent_iqr']:.3g} | "
                  f"{m['change_wins']}/{m['pairs']} |")
    correct = all(w["correct"] for w in workloads.values())
    if args.json:
        record = {"pairs": args.pairs, "seconds": SECONDS, "seeds": seeds, "blas": blas(),
                  "correct": correct,
                  "sides": {s: {"commit": commit(roots[s]), "host": hosts[s]} for s in SIDES},
                  "workloads": workloads}
        Path(args.json).write_text(json.dumps(record, indent=1) + "\n")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
