"""Record ``reference.json``: the output summary of every job in every pool.

Run from the repository root at the commit whose outputs are the reference:

    python3 perfbench/record.py

It refuses to write a reference in which a job other than a negative control
fails, a control passes, a sweep misses its closed-form minimum, or a job
prints different output when run twice.
"""

from __future__ import annotations

import json
import os
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from sdharm import cli  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

CONTROLS = ("type3_control_xdy", "type4_not_ew")


def expected_exit(job):
    """Exit codes the reference may record: controls fail their residual checks."""
    if job["command"] == "verify" and job["id"].split("/")[1] in CONTROLS:
        return 1
    if job["command"] == "classify" and job["id"].split("/")[1] == "type3_control_xdy":
        return 1                        # labelled nonstandard
    return 0


def main():
    os.environ.pop("SDHARM_TOL", None)
    jobs = {}
    problems = []
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        for workload in workloads.WORKLOADS:
            for job in workloads.all_jobs(workload):
                path = Path(tmp) / "scene.json"
                path.write_text(json.dumps(job["scene"]))
                code, text, _ = run.run_cli(cli, job, path)
                again = run.run_cli(cli, job, path)[1]
                summary = checks.summarize(job["command"], code, text)
                if code != expected_exit(job):
                    problems.append(f"{job['id']}: exit {code}")
                if summary.get("domain_errors"):
                    problems.append(f"{job['id']}: domain errors")
                if checks.fingerprint(job["command"], text) != \
                        checks.fingerprint(job["command"], again):
                    problems.append(f"{job['id']}: not deterministic")
                problems += [f"{job['id']}: {e}" for e in checks.oracle(job, summary)]
                jobs[job["id"]] = {"key": checks.job_key(job), "summary": summary}
            print(f"{workload}: {len(jobs)} jobs recorded so far", file=sys.stderr)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    lines = ",\n".join(f"{json.dumps(k)}: {json.dumps(v, sort_keys=True)}"
                       for k, v in sorted(jobs.items()))
    (HERE / "reference.json").write_text('{"jobs": {\n' + lines + "\n}}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
