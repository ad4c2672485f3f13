"""hwsched benchmark: one workload per call, checked outputs, one JSON result.

    python3 perfbench/run.py --workload mc_policy --seed 1 --seconds 22 --trace 0

Run from any directory of a checkout; the package is taken from the
checkout's ``src``.  ``--trace 0`` prints the end-to-end metrics of
BENCHMARK.json, ``--trace 1`` the per-layer ones.  Every workload runs in a
fresh single process (``--threads 1``, BLAS pinned to one thread); set-up
time is measured from process start, three times when untraced.  Untraced
times are scaled to a reference machine speed (``calibrate.py``).  The last
line of standard output is the result object; the trace, the result and the
machine description are also written to ``.perfbench_out/`` at the
checkout root.  Exits 1 when an output check fails and 2 when the checkout
cannot be benchmarked.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mc_policy", "grid_solve", "prelimit", "cli_session")
SETUP_SAMPLES = 3
# pinned to one thread in every worker, and recorded with each result
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every run ends within this many seconds, workers included
DEADLINE_S = 170.0


def worker(args, out_dir: Path, setup_only: bool, deadline: float) -> dict:
    """Runs one worker process; returns its result."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **dict.fromkeys(BLAS_VARS, "1"))
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out", str(out_dir)]
    if setup_only:
        cmd.append("--setup-only")
    start = time.monotonic()
    cmd += ["--started-at", repr(start)]
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - start))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [p for p in ("src/hwsched/__init__.py", "models/n_model.json",
                           "models/single_class.json") if not (ROOT / p).is_file()]
    if missing:
        print(f"error: not an hwsched checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)

    try:
        setups = [] if args.trace else [worker(args, out_dir, True, deadline)
                                        for _ in range(SETUP_SAMPLES - 1)]
        doc = worker(args, out_dir, False, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = doc["metrics"]
    if not args.trace:
        setups.append(doc)
        metrics["setup_s"] = {"value": statistics.median(d["setup_s"] for d in setups),
                              "unit": "s"}

    ops = doc["ops"]
    failed = [op for op in ops if not op["ok"]]
    print("machine: " + json.dumps(doc["machine"], sort_keys=True))
    for name in sorted({op["name"] for op in ops if op["unconverged"]}):
        print(f"note: {name} did not converge")
    for op in failed:
        print(f"FAIL {op['name']}: {op['detail']}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  machine=doc["machine"], ops=ops,
                  **{k: doc[k] for k in ("raw_wall_s", "pass_walls", "probes") if k in doc},
                  raw_setup_s=[d["raw_setup_s"] for d in setups],
                  setup_probes=[d["setup_probe_s"] for d in setups])
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
