"""Events per second of the pre-limit simulator, parent commit against change.

Times ``run_replications`` on ``models/n_model.json`` at n = 400, horizon 1,
under ``GreedyPriority(0, 1)`` and ``ImbalanceTracking`` at the uniform
point, for R = 1, 5 and 1000 replications.  Every measurement runs in a
fresh process with ``PYTHONPATH=<checkout>/src`` and BLAS pinned to one
thread; the two checkouts alternate, parent first.  Run from the checkout
root:

    python tools/bench_prelimit.py PARENT_REV

``PARENT_REV`` is exported with ``git archive``; the change is the working
tree.  Writes ``BENCH_<short sha of PARENT_REV>.json`` with the machine, the
seed and, per rule and R, the events, the wall times and events/s (from the
median wall time) of both sides.  Events are counted as assigned rows minus
replications (each replication is assigned once at its start and once after
every event), through a thin proxy around the rule.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 1
N = 400
HORIZON = 1.0
REPS = {1: 5, 5: 5, 1000: 1}  # replications -> timed repeats
RULES = ("greedy_0_1", "track_uniform")


class _Counting:
    """Forwards ``assign``/``assign_batch`` to a rule and counts the rows."""

    def __init__(self, rule):
        self.rule, self.rows = rule, 0

    def assign(self, X):
        self.rows += 1
        return self.rule.assign(X)

    def assign_batch(self, X):
        self.rows += len(X)
        return self.rule.assign_batch(X)


def worker(rule_name: str, reps: int) -> dict:
    import numpy as np

    import hwsched as hw

    model, _ = hw.load_model(ROOT / "models" / "n_model.json")
    scaling = hw.ScalingSpec.centered(model, N)
    rule = (hw.GreedyPriority(model, scaling, 0, 1) if rule_name == "greedy_0_1" else
            hw.ImbalanceTracking(model, scaling, hw.ControlPoint.uniform(2, 2)))
    counting = _Counting(rule)
    t0 = time.perf_counter()
    hw.run_replications(model, scaling, counting, [0.0, 0.0], HORIZON, reps, seed=SEED)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": counting.rows - reps, "numpy": np.__version__}


def measure(src: Path, rule_name: str, reps: int) -> dict:
    env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--worker", rule_name, str(reps)],
                         env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def machine() -> dict:
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", nargs="?", help="git revision of the parent commit")
    ap.add_argument("--worker", nargs=2, metavar=("RULE", "REPS"), help=argparse.SUPPRESS)
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
        for reps, repeats in REPS.items():
            for rule_name in RULES:
                runs = {side: [] for side in sides}
                for _ in range(repeats):
                    for side, src in sides.items():
                        runs[side].append(measure(src, rule_name, reps))
                row = {"rule": rule_name, "reps": reps}
                for side, rs in runs.items():
                    walls = [r["wall_s"] for r in rs]
                    row[side] = {"events": rs[0]["events"], "wall_s": walls,
                                 "events_per_s": rs[0]["events"] / statistics.median(walls)}
                row["speedup"] = row["change"]["events_per_s"] / row["parent"]["events_per_s"]
                print(f"{rule_name:>14} R={reps:<5} parent {row['parent']['events_per_s']:>10.0f}"
                      f"/s  change {row['change']['events_per_s']:>10.0f}/s  "
                      f"x{row['speedup']:.1f}", flush=True)
                results.append(row)
    doc = {
        "benchmark": "pre-limit events per second, run_replications",
        "model": "models/n_model.json", "n": N, "horizon": HORIZON, "seed": SEED,
        "repeats": {str(k): v for k, v in REPS.items()},
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
