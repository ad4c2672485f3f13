"""Seconds per grid solve, parent commit against change.

Times ``solve_hjb`` with the ``extrapolate`` boundary and the default radius
on ``models/n_model.json`` at 121² and 241² points and on the 3-class tree
``perfbench/models/tree3.json`` at 21³, 31³ and 41³.  Every measurement runs
in a fresh process with ``PYTHONPATH=<checkout>/src`` and BLAS pinned to one
thread; the two checkouts alternate, parent first.  Run from the checkout
root:

    python tools/bench_hjb.py PARENT_REV

``PARENT_REV`` is exported with ``git archive``; the change is the working
tree.  Writes ``BENCH_<short sha of PARENT_REV>.json`` with the machine and,
per case, both sides' wall times, median seconds, policy iterations, the
linear solver of every iteration, convergence, peak resident memory and the
sup-norm gap between the two sides' values relative to the parent's.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from bench_prelimit import machine

ROOT = Path(__file__).resolve().parent.parent
MODELS = {"n_model": ROOT / "models" / "n_model.json",
          "tree3": ROOT / "perfbench" / "models" / "tree3.json"}
# (model, points per dimension, timed repeats); the parent takes about 80 s
# per tree3 41³ solve on a 2-core Xeon
CASES = (("n_model", 121, 5), ("n_model", 241, 3), ("tree3", 21, 5),
         ("tree3", 31, 3), ("tree3", 41, 1))


def worker(name: str, points: int, values_path: str) -> dict:
    import resource

    import numpy as np

    import hwsched as hw

    model, cost = hw.load_model(MODELS[name])
    grid = hw.default_grid(model, points)
    t0 = time.perf_counter()
    sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    wall = time.perf_counter() - t0
    np.save(values_path, sol.value.values)
    rep = sol.report
    return {"wall_s": wall, "iterations": rep.iterations, "converged": rep.converged,
            # steps recorded before the solver field existed were all sparse LU
            "solvers": [getattr(h, "solver", "spsolve") for h in rep.history],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "numpy": np.__version__, "scipy": __import__("scipy").__version__}


def measure(src: Path, name: str, points: int, values_path: Path) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--worker", name, str(points),
                          str(values_path)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="git revision of the parent commit")
    ap.add_argument("--worker", nargs=3, metavar=("MODEL", "POINTS", "VALUES"),
                    help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker[0], int(args.worker[1]), args.worker[2])))
        return 0
    if not args.parent:
        ap.error("the parent revision is required")
    import numpy as np

    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                         capture_output=True, text=True, check=True).stdout.strip()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for name, points, repeats in CASES:
            runs = {side: [] for side in sides}
            values = {side: Path(tmp) / f"{side}.npy" for side in sides}
            for _ in range(repeats):
                for side, src in sides.items():
                    runs[side].append(measure(src, name, points, values[side]))
            row = {"model": name, "points": points}
            for side, rs in runs.items():
                walls = [r["wall_s"] for r in rs]
                row[side] = {"wall_s": walls, "median_s": statistics.median(walls),
                             "iterations": rs[0]["iterations"], "converged": rs[0]["converged"],
                             "solvers": rs[0]["solvers"],
                             "peak_rss_mb": max(r["peak_rss_mb"] for r in rs)}
            parent_values, change_values = (np.load(values[side]) for side in sides)
            row["value_rel_gap"] = float(np.abs(change_values - parent_values).max()
                                         / np.abs(parent_values).max())
            row["speedup"] = row["parent"]["median_s"] / row["change"]["median_s"]
            print(f"{name:>8} {points:>3}  parent {row['parent']['median_s']:8.3f} s  "
                  f"change {row['change']['median_s']:8.3f} s  x{row['speedup']:.1f}  "
                  f"{'/'.join(row['change']['solvers'])}  gap {row['value_rel_gap']:.1e}",
                  flush=True)
            results.append(row)
    doc = {
        "benchmark": "seconds per solve_hjb, extrapolate boundary, default radius",
        "models": {name: str(path.relative_to(ROOT)) for name, path in MODELS.items()},
        "parent": sha, "change": "working tree on top of the parent",
        "machine": machine() | {k: runs["change"][0][k] for k in ("numpy", "scipy")},
        "results": results,
    }
    path = ROOT / f"BENCH_{sha}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
