"""Output checks: recorded reference, closed-form sweep oracle, determinism.

``summarize`` reduces one job's output to the fields the reference keeps
(everything but the timestamp that decides a verdict or carries a residual).
``compare`` matches a summary against the recorded one: exit codes, verdicts,
pass flags and labels exactly, residuals and recovered constants within
``RESIDUAL_RTOL * (1 + |ref|)``, the residual-preservation bar of the roadmap.
"""

from __future__ import annotations

import hashlib
import json
import math

from workloads import berger_ew_scale

RESIDUAL_RTOL = 1e-13
ORACLE_TOL = 1e-6
SUMMARY_FLOATS = ("max_raw", "max_normalized", "mean_normalized")


def job_key(job):
    """Hash of what the job feeds the CLI; a changed pool cannot reuse a record."""
    text = json.dumps([job["command"], job["scene"], job["args"]], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def summarize(command, code, text):
    """The reference fields of one output.  Raises ValueError on malformed output."""
    if command == "sweep":
        rows, minima = [], []
        lines = text.splitlines()
        if not lines:
            raise ValueError("empty sweep output")
        for line in lines[1:]:
            if line.startswith("# minimum,"):
                _, _, x, fx = line.split(",")
                minima.append([float(x), float(fx)])
            else:
                rows.append([float(v) for v in line.split(",")])
        return {"exit": code, "rows": rows, "minima": minima}
    try:
        out = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"output is not JSON: {exc}") from None
    if command == "classify":
        return {"exit": code, "label": out["label"],
                "results": [[r["label"], r["recovered_c"]] for r in out["results"]]}
    summary = out["summary"]
    # Per-point entries of every reported quantity, gated or informational:
    # [points passing, sum raw, sum normalized, max |raw|].
    records = {}
    for rec in out["records"]:
        for name, e in rec.get("checks", {}).items():
            acc = records.setdefault(name, [0, 0.0, 0.0, 0.0])
            acc[0] += e["pass"]
            acc[1] += e["raw"]
            acc[2] += e["normalized"]
            acc[3] = max(acc[3], abs(e["raw"]))
    return {"exit": code, "verdict": summary["verdict"],
            "num_points": summary["num_points"],
            "domain_errors": len(out.get("domain_errors", [])),
            "checks": {name: [c["pass"]] + [c[k] for k in SUMMARY_FLOATS]
                       for name, c in summary["checks"].items()},
            "records": records}


def fingerprint(command, text):
    """What must repeat byte for byte when a job runs twice."""
    if command in ("report", "verify"):
        return json.loads(text).get("report_hash", text)
    return text


def _close(got, ref):
    if got is None or ref is None:
        return got is ref
    return abs(got - ref) <= RESIDUAL_RTOL * (1.0 + abs(ref))


def compare(got, ref):
    """List of mismatches between a summary and its recorded reference."""
    errors = []
    exact = [k for k in ref if k not in ("checks", "records", "results", "rows", "minima")]
    for k in exact:
        if got.get(k) != ref[k]:
            errors.append(f"{k}: {got.get(k)!r} != reference {ref[k]!r}")
    if "checks" in ref:
        if sorted(got["checks"]) != sorted(ref["checks"]):
            errors.append(f"checks {sorted(got['checks'])} != {sorted(ref['checks'])}")
        for name, r in ref["checks"].items():
            g = got["checks"].get(name)
            if g is None:
                continue
            if g[0] != r[0]:
                errors.append(f"{name}.pass: {g[0]} != reference {r[0]}")
            for field, gv, rv in zip(SUMMARY_FLOATS, g[1:], r[1:]):
                if not _close(gv, rv):
                    errors.append(f"{name}.{field}: {gv!r} != reference {rv!r}")
    if "records" in ref:
        if sorted(got["records"]) != sorted(ref["records"]):
            errors.append(f"record quantities {sorted(got['records'])} != "
                          f"{sorted(ref['records'])}")
        for name, r in ref["records"].items():
            g = got["records"].get(name)
            if g is None:
                continue
            if g[0] != r[0]:
                errors.append(f"records.{name}: {g[0]} points pass, reference {r[0]}")
            # sums over points: the bar scales with the number of points
            n = got["num_points"]
            for field, gv, rv in zip(("sum_raw", "sum_normalized", "max_abs_raw"),
                                     g[1:], r[1:]):
                if abs(gv - rv) > RESIDUAL_RTOL * (n + abs(rv)):
                    errors.append(f"records.{name}.{field}: {gv!r} != reference {rv!r}")
    if "results" in ref:
        if len(got["results"]) != len(ref["results"]):
            errors.append("classify result count differs from reference")
        for i, (g, r) in enumerate(zip(got["results"], ref["results"])):
            if g[0] != r[0]:
                errors.append(f"results[{i}].label: {g[0]!r} != reference {r[0]!r}")
            if not _close(g[1], r[1]):
                errors.append(f"results[{i}].recovered_c: {g[1]!r} != reference {r[1]!r}")
    for key in ("rows", "minima"):
        if key not in ref:
            continue
        if [len(x) for x in got[key]] != [len(x) for x in ref[key]]:
            errors.append(f"{key}: shape differs from reference")
            continue
        for i, (g, r) in enumerate(zip(got[key], ref[key])):
            if not all(_close(a, b) for a, b in zip(g, r)):
                errors.append(f"{key}[{i}]: {g!r} != reference {r!r}")
    return errors


def oracle(job, summary):
    """Closed-form check of a sweep job: at least one located minimum, each at
    the Einstein-Weyl scale of the job's Berger squashing."""
    if job["command"] != "sweep":
        return []
    minima = summary["minima"]
    if not minima:
        return ["sweep printed no '# minimum' line"]
    target = berger_ew_scale(job["mu"])
    return [f"minimum at {x!r} is {abs(x - target):.3g} from the Einstein-Weyl "
            f"scale {target!r}" for x, _ in minima
            if not math.isfinite(x) or abs(x - target) > ORACLE_TOL]


def check_job(job, code, text, reference):
    """All reference and oracle mismatches of one job's output."""
    ref = reference.get(job["id"])
    if ref is None:
        return [f"no reference recorded for {job['id']}"]
    if ref["key"] != job_key(job):
        return [f"reference for {job['id']} was recorded for other inputs"]
    try:
        got = summarize(job["command"], code, text)
    except (ValueError, KeyError) as exc:
        return [f"unreadable output (exit {code}): {exc}"]
    return compare(got, ref["summary"]) + oracle(job, got)
