"""Time the commands on a job with bad points, one table per checkout.

    python tools/errpath.py --root <checkout> [--root <checkout> ...] [--repeat 3]

It times ``report``, ``verify`` of six checks and ``classify`` on 1000
random points (seed 5) of ``scenes/type4_berger_ew.json``: with no bad
point, and with 1 or 10 points, spread evenly, moved off the chart in a base
coordinate (th = 3.0, beyond 2.8) or in the fibre coordinate (rho = 1.6,
beyond 1.5).  The case ``1 one-fibre`` puts the 1000 points on the first
one's fibre, rho evenly from -0.9 to 1.4, with c = -e^-1.2, so that
e^rho + c <= 0 where rho <= -1.2, and moves the middle point to rho = -1.35,
inside the chart: a job on one fibre is the one whose failing hold of fibre
samples is split to name its first failing sample.  A pass runs every case
once, in process, in a child process that imports ``sdharm`` from
``<checkout>/src``, after one warm-up run of each command on the scene as
shipped.  The passes alternate between the
checkouts, and each cell is the best of ``--repeat`` passes, in ms.  A pass
of a checkout whose bad points each cost N one-point jobs takes about 25 s on
a 2-core host; one that bisects, about 8 s.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path

COUNT, SEED = 1000, 5
CHECKS = "fundamental_eq,twistorial_basic,twistorial_sd,monopole,einstein_weyl,beltrami"
COMMANDS = {"report": [], "verify": ["--checks", CHECKS], "classify": []}
# case -> (bad points, coordinate axis, value that fails there, c of the one-fibre job or None)
CASES = {"clean": (0, 0, None, None), "1 base": (1, 1, 3.0, None), "1 fibre": (1, 0, 1.6, None),
         "10 base": (10, 1, 3.0, None), "10 fibre": (10, 0, 1.6, None),
         "1 one-fibre": (1, 0, -1.35, -math.exp(-1.2))}


def _main(cli, argv):
    """cli.main(argv) with its output dropped: the exit code and the time in ms."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        start = time.perf_counter()
        code = cli.main(argv)
        return code, 1e3 * (time.perf_counter() - start)


def one_pass(root):
    """{case: {command: ms}} of one run of every case, in this process."""
    root = Path(root).resolve()
    sys.path.insert(0, str(root / "src"))
    from sdharm import cli
    if not Path(cli.__file__).resolve().is_relative_to(root):
        raise SystemExit(f"sdharm was imported from {cli.__file__}, not from {root}")
    os.environ.pop(cli.TOL_ENV_VAR, None)
    shipped = root / "scenes" / "type4_berger_ew.json"
    scene = json.loads(shipped.read_text())
    resolved = cli.ResolvedScene(cli.validate_scene(
        dict(scene, samples={"random": {"count": COUNT, "seed": SEED}})))
    points = [list(p) for p in resolved.sample_points()[0]]
    for command, args in COMMANDS.items():
        _main(cli, [command, str(shipped), *args])
    times = {}
    with tempfile.TemporaryDirectory() as tmp:
        for case, (bad, axis, value, c) in CASES.items():
            job, edited = [list(p) for p in points], scene
            if c is not None:
                job = [[-0.9 + 2.3 * i / (COUNT - 1), *points[0][1:]] for i in range(COUNT)]
                edited = json.loads(json.dumps(scene))
                edited["construction"]["params"]["c"] = c
            for j in range(bad):
                job[(2 * j + 1) * COUNT // (2 * bad)][axis] = value
            path = os.path.join(tmp, "scene.json")
            with open(path, "w") as fh:
                json.dump(dict(edited, samples={"points": job}), fh)
            times[case] = {}
            for command, args in COMMANDS.items():
                code, ms = _main(cli, [command, path, *args])
                if code != (2 if bad else 0):
                    raise SystemExit(f"{root}: {command} of case {case!r} exited {code}")
                times[case][command] = ms
    return times


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--root", action="append", help="a checkout whose src/ and scenes/ to run; "
                   "give it once per checkout")
    p.add_argument("--repeat", type=int, default=3, help="passes per checkout (default 3)")
    p.add_argument("--pass", dest="one_pass", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one_pass:
        print(json.dumps(one_pass(args.one_pass)))
        return 0
    roots = args.root or ["."]
    best = {root: {} for root in roots}
    for _ in range(args.repeat):
        for root in roots:
            child = subprocess.run([sys.executable, __file__, "--pass", root],
                                   capture_output=True, text=True)
            if child.returncode:
                raise SystemExit(child.stderr or f"{root}: a pass exited {child.returncode}")
            for case, row in json.loads(child.stdout).items():
                for command, ms in row.items():
                    cell = best[root].setdefault(case, {})
                    cell[command] = min(ms, cell.get(command, ms))
    for root in roots:
        print(f"\n{root}: ms, best of {args.repeat}, {COUNT} points of type4_berger_ew")
        print("| command | " + " | ".join(CASES) + " |")
        print("| --- |" + " ---: |" * len(CASES))
        for command in COMMANDS:
            print(f"| {command} | " + " | ".join(f"{best[root][case][command]:.0f}"
                                                for case in CASES) + " |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
