"""Path-steps per second of the Euler loop, parent commit against change.

Times ``sde._run_chunk`` on ``models/n_model.json`` with its linear cost and
dt 1e-3, from starts drawn uniformly on [-2, 2]², at B = 1, 200, 500 and
65536 paths, under ``StaticPriority(0, 1)`` and under the ``GridMarkov`` of
the ``mc_policy`` benchmark workload (the policy extracted from a 61² solve,
±4.5σ, ``extrapolate`` boundary).  Each worker also times the normal draws
of the same run alone, once as one ``(B, 2)`` draw per step and once in
blocks of at most 2¹⁵ values.  Every measurement runs in a fresh process
with ``PYTHONPATH=<checkout>/src`` and BLAS pinned to one thread, after one
short warm-up call; the two checkouts alternate, parent first.  Run from the
checkout root:

    python tools/bench_euler.py PARENT_REV

``PARENT_REV`` is exported with ``git archive``; the change is the working
tree.  Writes ``BENCH_<short sha of PARENT_REV>.json`` with the machine and,
per policy and B, both sides' wall times, path-steps/s from the median wall
time, the normal-draw times in µs per step, and whether the two sides'
discounted costs are the same bytes.
"""

from __future__ import annotations

import argparse
import hashlib
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
SEED = 1
DT = 1e-3
# paths -> (Euler steps per measurement, timed repeats)
SIZES = {1: (20000, 5), 200: (8000, 5), 500: (4000, 5), 65536: (60, 3)}
POLICIES = ("static_0_1", "grid_markov_61")
# values per block of normal draws in the gathered-column loop (its _BLOCK)
BLOCK = 2**15


def worker(policy_name: str, paths: int) -> dict:
    import numpy as np

    import hwsched as hw
    from hwsched import sde

    model, cost = hw.load_model(ROOT / "models" / "n_model.json")
    if policy_name == "static_0_1":
        policy = hw.StaticPriority.for_model(model, 0, 1)
    else:
        sol = hw.solve_hjb(model, cost, hw.default_grid(model, 61, 4.5), boundary="extrapolate")
        policy = hw.GridMarkov(hw.extract_policy(sol.value, model, cost))
    steps = SIZES[paths][0]
    x0s = np.random.default_rng(SEED).uniform(-2.0, 2.0, (paths, model.classes))
    sde._run_chunk(model, x0s, policy, 5, DT, np.random.default_rng(SEED), cost, [5])
    t0 = time.perf_counter()
    costs, _ = sde._run_chunk(model, x0s, policy, steps, DT, np.random.default_rng(SEED), cost,
                              [steps])
    wall = time.perf_counter() - t0

    shape = (paths, model.classes)
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    for _ in range(steps):
        rng.standard_normal(shape)
    per_step = time.perf_counter() - t0
    k = max(1, BLOCK // (paths * model.classes))
    t0 = time.perf_counter()
    for start in range(0, steps, k):
        rng.standard_normal((min(k, steps - start), *shape))
    blocked = time.perf_counter() - t0
    return {"wall_s": wall, "steps": steps, "costs_sha256": hashlib.sha256(costs.tobytes()).hexdigest(),
            "normals_per_step_us": per_step / steps * 1e6, "normals_blocked_us": blocked / steps * 1e6,
            "numpy": np.__version__}


def measure(src: Path, policy_name: str, paths: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--worker", policy_name, str(paths)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="git revision of the parent commit")
    ap.add_argument("--worker", nargs=2, metavar=("POLICY", "PATHS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        print(json.dumps(worker(args.worker[0], int(args.worker[1]))))
        return 0
    if not args.parent:
        ap.error("the parent revision is required")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                         capture_output=True, text=True, check=True).stdout.strip()
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        sides = {"parent": Path(tmp) / "src", "change": ROOT / "src"}
        for policy_name in POLICIES:
            for paths, (steps, repeats) in SIZES.items():
                runs = {side: [] for side in sides}
                for _ in range(repeats):
                    for side, src in sides.items():
                        runs[side].append(measure(src, policy_name, paths))
                row = {"policy": policy_name, "paths": paths, "steps": steps}
                for side, rs in runs.items():
                    walls = [r["wall_s"] for r in rs]
                    row[side] = {
                        "wall_s": walls,
                        "path_steps_per_s": paths * steps / statistics.median(walls),
                        "us_per_step": statistics.median(walls) / steps * 1e6,
                        "normals_per_step_us": statistics.median(r["normals_per_step_us"] for r in rs),
                        "normals_blocked_us": statistics.median(r["normals_blocked_us"] for r in rs),
                    }
                row["same_cost_bytes"] = len({r["costs_sha256"] for rs in runs.values() for r in rs}) == 1
                row["speedup"] = row["change"]["path_steps_per_s"] / row["parent"]["path_steps_per_s"]
                print(f"{policy_name:>14} B={paths:<6} parent {row['parent']['us_per_step']:8.1f} us/step"
                      f"  change {row['change']['us_per_step']:8.1f} us/step  x{row['speedup']:.2f}"
                      f"  normals {row['change']['normals_per_step_us']:.1f} -> "
                      f"{row['change']['normals_blocked_us']:.1f} us/step"
                      f"  same bytes {row['same_cost_bytes']}", flush=True)
                results.append(row)
    doc = {
        "benchmark": "Euler path-steps per second, sde._run_chunk, linear cost",
        "model": "models/n_model.json", "dt": DT, "seed": SEED, "normal_block": BLOCK,
        "parent": sha, "change": "working tree on top of the parent",
        "machine": machine() | {"numpy": runs["change"][0]["numpy"]},
        "results": results,
    }
    path = ROOT / f"BENCH_{sha}.json"
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
