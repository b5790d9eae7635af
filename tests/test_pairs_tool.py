"""tools/pairs.py on two fake checkouts, whose ``perfbench/run.py`` logs each
run and prints a result the way perfbench does, without timing anything."""

import json
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "pairs.py"

# A perfbench stand-in: it logs its side, its own path, its arguments and
# whether an out/ was copied beside it, and prints a host line, then the last
# line's JSON.  The change is cheaper by 0.03 and its RSS does not move.
FAKE_RUN = """
import json, sys
from pathlib import Path
here = Path(__file__).resolve()
side = (here.parents[1] / "SIDE").read_text().strip()
seed = int(sys.argv[sys.argv.index("--seed") + 1])
with open({log!r}, "a") as fh:
    fh.write(json.dumps([side, str(here), sys.argv[1:], (here.parent / "out").exists()])
             + "\\n")
print(f"# nproc=2 python=3 src_sha256={{side}} workload=w seed={{seed}}")
cost = 0.13 + 0.001 * (seed % 5) - (0.03 if side == "change" else 0.0)
print(json.dumps({{"correct": True, "attempted": 4, "failed": 0, "metrics": {{
    "point_cost_cal": {{"value": cost, "unit": "cal"}},
    "peak_rss_mb": {{"value": 50.0, "unit": "MB"}}}}}}))
"""


def load_tool():
    """Execute pairs.py into a fresh module without writing next to it."""
    module = types.ModuleType("pairs")
    module.__file__ = str(TOOL)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        exec(compile(TOOL.read_text(), str(TOOL), "exec"), module.__dict__)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.fixture
def checkouts(tmp_path):
    """(parent root, change root, log path): two fake checkouts."""
    log = tmp_path / "runs.log"
    roots = []
    for side in ("parent", "change"):
        root = tmp_path / side
        (root / "perfbench" / "out").mkdir(parents=True)
        (root / "perfbench" / "out" / "stale.json").write_text("{}")
        (root / "perfbench" / "run.py").write_text(FAKE_RUN.format(log=str(log)))
        (root / "SIDE").write_text(side)
        roots.append(root)
    return roots[0], roots[1], log


def test_pairs_alternate_the_sides_from_one_path_and_write_the_numbers(checkouts, tmp_path,
                                                                       capsys):
    parent, change, log = checkouts
    out = tmp_path / "BENCH.json"
    tool = load_tool()
    code = tool.main(["--root", str(parent), "--root", str(change), "--workload", "w",
                      "--pairs", "4", "--seed", "11", "--json", str(out)])
    assert code == 0
    runs = [json.loads(line) for line in log.read_text().splitlines()]
    assert not any(copied_out for *_, copied_out in runs)
    runs = [run[:3] for run in runs]
    # pair i runs both sides on seed 11 + i, the parent first in the even pairs
    assert [side for side, _, _ in runs] == ["parent", "change", "change", "parent"] * 2
    assert [a[a.index("--seed") + 1] for _, _, a in runs] == [
        str(s) for s in (11, 11, 12, 12, 13, 13, 14, 14)]
    assert all(a[a.index("--trace") + 1] == "0"
               and a[a.index("--seconds") + 1] == str(tool.SECONDS) for _, _, a in runs)
    # both sides from one path, outside either checkout
    (path,) = {Path(path) for _, path, _ in runs}
    assert not path.is_relative_to(parent) and not path.is_relative_to(change)
    record = json.loads(out.read_text())
    assert set(record) == {"pairs", "seconds", "seeds", "blas", "correct", "sides", "workloads"}
    assert record["seeds"] == [11, 12, 13, 14] and record["correct"] is True
    assert record["seconds"] == tool.SECONDS
    assert list(record["workloads"]) == ["w"]
    workload = record["workloads"]["w"]
    assert set(workload) == {"order", "correct", "metrics", "runs"}
    assert workload["correct"] is True
    assert workload["order"] == [["parent", "change"], ["change", "parent"]] * 2
    cost = workload["metrics"]["point_cost_cal"]
    assert set(cost) == {"unit", "parent_median", "change_median", "parent_iqr",
                         "change_wins", "pairs"}
    assert cost["change_wins"] == 4 and cost["pairs"] == 4 and cost["unit"] == "cal"
    assert cost["parent_median"] - cost["change_median"] == pytest.approx(0.03)
    assert workload["metrics"]["peak_rss_mb"]["change_wins"] == 0
    assert workload["metrics"]["peak_rss_mb"]["parent_iqr"] == 0.0
    assert {s: v["host"]["src_sha256"] for s, v in record["sides"].items()} == {
        "parent": "parent", "change": "change"}
    assert record["sides"]["parent"]["host"] == {"nproc": "2", "python": "3",
                                                 "src_sha256": "parent"}
    assert len(workload["runs"]) == 4 and set(workload["runs"][0]) == {"parent", "change"}
    assert "| point_cost_cal (cal) |" in capsys.readouterr().out


def test_every_workload_runs_by_default_into_one_record(checkouts, tmp_path, capsys):
    """Without --workload the tool runs each workload of the parent's
    BENCHMARK.json, in turn, each in alternating pairs, and writes their rows
    into one file; a repeated --workload runs the ones named."""
    parent, change, log = checkouts
    tool = load_tool()
    (parent / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in json.loads((parent / "BENCHMARK.json").read_text())["workloads"]]
    assert len(names) == 3
    out = tmp_path / "BENCH.json"
    code = tool.main(["--root", str(parent), "--root", str(change), "--pairs", "2",
                      "--seed", "5", "--json", str(out)])
    assert code == 0
    runs = [json.loads(line)[::2] for line in log.read_text().splitlines()]
    workload = [a[a.index("--workload") + 1] for _, a in runs]
    assert workload == [w for w in names for _ in range(4)]
    assert [side for side, _ in runs] == ["parent", "change", "change", "parent"] * 3
    assert all(a[a.index("--seed") + 1] == s for (_, a), s in zip(runs, "5566" * 3))
    record = json.loads(out.read_text())
    assert list(record["workloads"]) == names and record["correct"] is True
    for w in record["workloads"].values():
        assert w["order"] == [["parent", "change"], ["change", "parent"]]
        assert w["metrics"]["point_cost_cal"]["change_wins"] == 2 and len(w["runs"]) == 2
    printed = capsys.readouterr().out
    assert all(f"\n{w}: 2 pairs" in printed for w in names)
    log.write_text("")
    tool.main(["--root", str(parent), "--root", str(change), "--pairs", "1",
               "--workload", "sweep_locate", "--workload", "report_grid"])
    runs = [json.loads(line)[2] for line in log.read_text().splitlines()]
    assert [a[a.index("--workload") + 1] for a in runs] == ["sweep_locate"] * 2 + [
        "report_grid"] * 2


def test_a_run_that_is_not_correct_makes_the_tool_exit_1(checkouts, capsys):
    parent, change, _ = checkouts
    run = change / "perfbench" / "run.py"
    run.write_text(run.read_text().replace('"failed": 0', '"failed": 1'))
    code = load_tool().main(["--root", str(parent), "--root", str(change), "--workload", "w",
                             "--pairs", "1"])
    assert code == 1
    assert "correct: False" in capsys.readouterr().out
