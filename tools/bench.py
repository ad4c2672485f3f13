"""Parent commit against change: one harness, one case per measured layer.

Run from the checkout root:

    python tools/bench.py CASE PARENT_REV

``PARENT_REV`` is exported with ``git archive``; the change is the working
tree.  Both checkouts have their bytecode compiled once, untimed, before
the first timed run.  Every measurement runs in a fresh process, in the
checkout it measures, with ``PYTHONPATH=<checkout>/src`` and BLAS pinned to
one thread.  The two sides alternate which runs first from one repeat to the
next.  The cases:

- ``euler``: path-steps per second of ``sde._run_chunk`` on
  ``models/n_model.json`` with its linear cost and dt 1e-3, from starts drawn
  uniformly on [-2, 2]², at B = 1, 64, 100, 200, 500 and 65536 paths, after
  one short warm-up call, under three policies:

  - ``static_0_1``: ``StaticPriority(0, 1)``;
  - ``grid_markov_61``: the ``GridMarkov`` of the ``mc_policy`` benchmark
    workload, the policy extracted from a 61² solve (±4.5σ, ``extrapolate``
    boundary).  Its sided extraction makes it one row, the static priority
    (1, 0), where an older extraction gave two rows and a grid lookup every
    step; across that change its law differs, and its costs are not the same
    bytes;
  - ``grid_lookup_61``: a ``GridMarkov`` on the same 61² box whose rows are
    vertex pairs drawn from a generator seeded ``SEED``, which keeps the
    grid lookup of every step measured.

  Each worker also times the normal draws of the same run alone, once as
  one ``(B, 2)`` draw per step and once as the loop draws them: blocks of at
  most 2¹⁵ values, each drawn with ``out=`` into one reused buffer.  A row
  says whether the two sides' discounted costs are the same bytes.
- ``hjb``: seconds per ``solve_hjb`` with the ``extrapolate`` boundary and
  the default radius on ``models/n_model.json`` at 121² and 241² points and
  on ``perfbench/models/tree3.json`` at 21³, 31³ and 41³, after an untimed
  import of ``scipy.sparse.linalg`` (which ``hjb`` imports on its first
  solve), and the seconds of its linear solves alone (``solve_s``, the sum of the history's
  ``solve_s``), with policy iterations, the linear solver of every
  iteration, convergence, peak resident memory and the sup-norm gap between
  the two sides' values relative to the parent's.
- ``prelimit``: events per second of ``run_replications`` on
  ``models/n_model.json`` at n = 400, horizon 1, under ``GreedyPriority(0,
  1)`` and ``ImbalanceTracking`` at the uniform point, for R = 1, 5 and 1000
  replications.  Events are the sum of the per-replication event counts
  that ``ctmc._simulate`` returns, read through a wrapper around it; the
  rule itself goes to ``run_replications``, so the loop reads its table.
- ``detsys``: microseconds per step of ``detsys.integrate_det`` on
  ``models/n_model.json`` at n = 2000 steps of dt 1e-3, under the driver of
  ``nonidling-check`` (every class at ``1 + t``) and the controls of
  ``cli._smooth_controls`` from seed 1, after one warm-up call, with the
  sup-norm gap between the two sides' trajectories (x, y, z and psi)
  relative to the parent's.
- ``cold``: each of the ten commands of the ``cli_session`` benchmark
  workload (``CliSession.commands`` of the measured checkout's
  ``perfbench/workloads.py``, with ``--seed 1``) in a fresh interpreter
  started as the ``hwsched`` console script is, in a new temporary
  directory: its wall time from spawn to exit and its ``ru_maxrss``, read
  with ``os.wait4`` in a bare spawning interpreter.  Commands that read
  another's output (``extract-policy`` reads ``solve-hjb``'s value field)
  run after those commands, untimed, as the session chains them.
- ``perfbench``: ``perfbench/run.py --trace 0`` on every workload of
  ``BENCHMARK.json``, for its ``run_seconds``, one pair per seed in
  ``SEEDS``, with every run's ``correct`` and ``failed``.  A run whose output
  check fails (exit 1) is recorded like any other.

Writes ``BENCH_<short sha of PARENT_REV>_<CASE>.json`` with the machine, the
case's settings and one row per workload.  For each side a row holds every
run of each timed metric with its median and quartiles; ``wins`` counts the
pairs in which the change's value is lower, and ``speedup`` is the parent's
median wall time over the change's (the ratio of events per second for
``prelimit``, whose two sides may count different events).
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from contextlib import suppress
from importlib.metadata import version
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
SEED = 1
BENCH_FILE = "BENCH_{sha}_{case}.json"  # one file per parent and case


class Case(NamedTuple):
    """What one case measures; the harness does the rest."""

    head: dict  # the case's settings, written before the rows
    workloads: list  # [(row key fields, [worker arguments of each repeat])]
    worker: Callable  # (*arguments) -> one run's results, in the measured checkout
    fields: Callable  # (key, runs by side, row) -> adds the case's own fields to the row
    metrics: tuple = ("wall_s",)  # timed per run, summarized per side


def measure(case: str, tree: Path, args) -> dict:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    out = subprocess.run([sys.executable, __file__, "--worker", case, json.dumps(args)],
                         cwd=tree, env=env, capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def warm_up(tree: Path) -> None:
    """Compiles a checkout's bytecode, untimed.  Under PYTHONDONTWRITEBYTECODE
    a fresh export never caches its bytecode, so without this every timed run
    of the parent would compile its modules while the change read them from
    ``__pycache__``."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src", "tools", "perfbench"],
                   cwd=tree, capture_output=True, check=True)


def machine() -> dict:
    cpu = platform.processor()
    with suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"cpu": cpu, "nproc": os.cpu_count(), "platform": platform.platform(),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": version("scipy")}


def make_row(case: Case, key: dict, runs: dict) -> dict:
    """One workload's row from both sides' runs, paired by repeat."""
    row = dict(key)
    for side, rs in runs.items():
        values = {m: [r[m] for r in rs] for m in case.metrics}
        quartiles = {m: np.percentile(v, [25, 50, 75]).tolist() for m, v in values.items()}
        row[side] = values | {"median": {m: q[1] for m, q in quartiles.items()},
                              "quartiles": {m: [q[0], q[2]] for m, q in quartiles.items()}}
    row["wins"] = {m: sum(c[m] < p[m] for p, c in zip(runs["parent"], runs["change"]))
                   for m in case.metrics}
    row["speedup"] = row["parent"]["median"]["wall_s"] / row["change"]["median"]["wall_s"]
    case.fields(key, runs, row)
    return row


def run_case(name: str, trees: dict, measure=measure, warm_up=warm_up) -> list:
    """Every workload of a case on both trees, each warmed up once first; the
    side that runs first alternates from one repeat to the next."""
    case, rows = cases()[name], []
    for side in SIDES:
        warm_up(trees[side])
    for key, repeats in case.workloads:
        runs = {side: [] for side in SIDES}
        for i, args in enumerate(repeats):
            for side in SIDES[::-1] if i % 2 else SIDES:
                runs[side].append(measure(name, trees[side], args))
        rows.append(make_row(case, key, runs))
        medians = "  ".join(f"{side} {rows[-1][side]['median']['wall_s']:8.3f} s" for side in SIDES)
        print(*key.values(), medians, f"x{rows[-1]['speedup']:.2f}", flush=True)
    return rows


# -- euler --------------------------------------------------------------------

DT = 1e-3
# paths -> (Euler steps per measurement, timed repeats)
# 64 and 100 rows draw inline (below sde._DRAW_AHEAD_MIN values a step), 200
# and up on a producer thread
SIZES = {1: (20000, 5), 64: (8000, 5), 100: (8000, 5), 200: (8000, 5), 500: (4000, 5),
         65536: (60, 3)}
POLICIES = ("static_0_1", "grid_markov_61", "grid_lookup_61")
# values per block of normal draws in the gathered-column loop (its _BLOCK)
BLOCK = 2**15


def euler_worker(policy_name: str, paths: int, steps: int) -> dict:
    import hwsched as hw

    model, cost = hw.load_model(ROOT / "models" / "n_model.json")
    grid = hw.default_grid(model, 61, 4.5)
    if policy_name == "static_0_1":
        policy = hw.StaticPriority.for_model(model, 0, 1)
    elif policy_name == "grid_markov_61":
        sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
        policy = hw.GridMarkov(hw.extract_policy(sol.value, model, cost))
    else:
        rng = np.random.default_rng(SEED)
        u = np.eye(model.classes)[rng.integers(0, model.classes, grid.size)]
        v = np.eye(model.stations)[rng.integers(0, model.stations, grid.size)]
        policy = hw.GridMarkov(hw.PolicyField(grid=grid, u=u, v=v))
    x0s = np.random.default_rng(SEED).uniform(-2.0, 2.0, (paths, model.classes))
    hw.sde._run_chunk(model, x0s, policy, 5, DT, np.random.default_rng(SEED), cost, [5])
    t0 = time.perf_counter()
    costs, _ = hw.sde._run_chunk(model, x0s, policy, steps, DT, np.random.default_rng(SEED),
                                 cost, [steps])
    wall = time.perf_counter() - t0

    shape = (paths, model.classes)
    rng = np.random.default_rng(SEED)
    t0 = time.perf_counter()
    for _ in range(steps):
        rng.standard_normal(shape)
    per_step = time.perf_counter() - t0
    k = max(1, BLOCK // (paths * model.classes))
    raw = np.empty((k, *shape))
    t0 = time.perf_counter()
    for start in range(0, steps, k):
        rng.standard_normal(out=raw[:min(k, steps - start)])
    blocked = time.perf_counter() - t0
    return {"wall_s": wall, "costs_sha256": hashlib.sha256(costs.tobytes()).hexdigest(),
            "normals_per_step_us": per_step / steps * 1e6, "normals_blocked_us": blocked / steps * 1e6}


def euler_fields(key, runs, row):
    for side, rs in runs.items():
        median = row[side]["median"]["wall_s"]
        row[side] |= {"path_steps_per_s": key["paths"] * key["steps"] / median,
                      "us_per_step": median / key["steps"] * 1e6,
                      "normals_per_step_us": float(np.median([r["normals_per_step_us"] for r in rs])),
                      "normals_blocked_us": float(np.median([r["normals_blocked_us"] for r in rs]))}
    row["same_cost_bytes"] = len({r["costs_sha256"] for rs in runs.values() for r in rs}) == 1


# -- hjb ----------------------------------------------------------------------

MODELS = {"n_model": ROOT / "models" / "n_model.json",
          "tree3": ROOT / "perfbench" / "models" / "tree3.json"}
# (model, points per dimension, timed repeats); before BiCGSTAB the 3-D
# solves took about 80 s per tree3 41³ solve on a 2-core Xeon
GRIDS = (("n_model", 121, 5), ("n_model", 241, 3), ("tree3", 21, 5),
         ("tree3", 31, 3), ("tree3", 41, 1))


def hjb_worker(name: str, points: int) -> dict:
    import resource

    import scipy.sparse.linalg  # noqa: F401  (hjb's lazy import, kept out of the timing)

    import hwsched as hw

    model, cost = hw.load_model(MODELS[name])
    grid = hw.default_grid(model, points)
    t0 = time.perf_counter()
    sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "solve_s": sum(h.solve_s for h in sol.report.history),
            "iterations": sol.report.iterations, "converged": sol.report.converged,
            # steps recorded before the solver field existed were all sparse LU
            "solvers": [getattr(h, "solver", "spsolve") for h in sol.report.history],
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "values": sol.value.values.ravel().tolist()}


def hjb_fields(key, runs, row):
    for side, rs in runs.items():
        row[side] |= {"median_s": row[side]["median"]["wall_s"],
                      "iterations": rs[0]["iterations"], "converged": rs[0]["converged"],
                      "solvers": rs[0]["solvers"],
                      "peak_rss_mb": max(r["peak_rss_mb"] for r in rs)}
    parent_values, change_values = (np.array(runs[side][0]["values"]) for side in SIDES)
    row["value_rel_gap"] = float(np.abs(change_values - parent_values).max()
                                 / np.abs(parent_values).max())


# -- prelimit -----------------------------------------------------------------

N = 400
HORIZON = 1.0
REPS = {1: 5, 5: 5, 1000: 3}  # replications -> timed repeats
RULES = ("greedy_0_1", "track_uniform")


def prelimit_worker(rule_name: str, reps: int) -> dict:
    import hwsched as hw
    from hwsched import ctmc

    model, _ = hw.load_model(ROOT / "models" / "n_model.json")
    scaling = hw.ScalingSpec.centered(model, N)
    rule = (hw.GreedyPriority(model, scaling, 0, 1) if rule_name == "greedy_0_1" else
            hw.ImbalanceTracking(model, scaling, hw.ControlPoint.uniform(2, 2)))
    simulate, events = ctmc._simulate, []

    def counting(*args):
        """``ctmc._simulate``, noting the events of all its replications."""
        out = simulate(*args)
        events.append(int(out[2].sum()))
        return out

    ctmc._simulate = counting
    t0 = time.perf_counter()
    hw.run_replications(model, scaling, rule, [0.0, 0.0], HORIZON, reps, seed=SEED)
    wall = time.perf_counter() - t0
    return {"wall_s": wall, "events": events[0]}


def prelimit_fields(key, runs, row):
    for side, rs in runs.items():
        row[side] |= {"events": rs[0]["events"],
                      "events_per_s": rs[0]["events"] / row[side]["median"]["wall_s"]}
    row["speedup"] = row["change"]["events_per_s"] / row["parent"]["events_per_s"]


# -- detsys -------------------------------------------------------------------

DET_STEPS = 2000
DET_REPEATS = 9


def detsys_worker(steps: int) -> dict:
    import hwsched as hw
    from hwsched import cli, detsys

    model, _ = hw.load_model(ROOT / "models" / "n_model.json")
    t = DT * np.arange(steps + 1)
    w = 1.0 + np.tile(t[:, None], (1, model.classes))
    controls = cli._smooth_controls(model, steps + 1, DT, np.random.default_rng(SEED))
    detsys.integrate_det(model, w, controls)
    t0 = time.perf_counter()
    traj = detsys.integrate_det(model, w, controls)
    wall = time.perf_counter() - t0
    values = np.concatenate([a.ravel() for a in (traj.x, traj.y, traj.z, traj.psi)])
    return {"wall_s": wall, "values": values.tolist()}


def detsys_fields(key, runs, row):
    for side in SIDES:
        row[side]["us_per_step"] = row[side]["median"]["wall_s"] / key["steps"] * 1e6
    parent_values, change_values = (np.array(runs[side][0]["values"]) for side in SIDES)
    row["traj_rel_gap"] = float(np.abs(change_values - parent_values).max()
                                / np.abs(parent_values).max())


# -- cold ---------------------------------------------------------------------

# the cli_session workload's commands, in its order; the worker checks them
COLD_COMMANDS = ("validate", "solve-hjb", "extract-policy", "evaluate-policy", "simulate",
                 "det-run", "nonidling-check", "integral-residual", "counterexample", "compare")
COLD_REPEATS = 7
# what the hwsched console script runs
ENTRY_POINT = "import sys; from hwsched.cli import main; sys.exit(main())"
# runs each argument list of argv[1] (JSON) with ENTRY_POINT in a fresh
# interpreter and prints its wall seconds, peak resident MB and exit status.
# A child's ru_maxrss is at least the peak of the process that spawned it,
# so the spawner is this bare interpreter, far below any CLI call's peak
LAUNCHER = f"""
import json, os, subprocess, sys, time
for argv in json.loads(sys.argv[1]):
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-c", {ENTRY_POINT!r}, *argv],
                            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps([wall, usage.ru_maxrss / 1024, proc.returncode]))
"""


def cold_worker(command: str) -> dict:
    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    from workloads import CliSession

    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        argvs = {argv[0]: argv + ["--seed", str(SEED), "--out", str(out / argv[0])]
                 for argv in CliSession(Path.cwd(), SEED).commands(out)}
        if tuple(argvs) != COLD_COMMANDS:
            raise RuntimeError(f"cli_session runs {list(argvs)}, not {list(COLD_COMMANDS)}")

        def chain(name):
            """The commands whose outputs ``name`` reads, in order, then ``name``."""
            reads = {Path(a).relative_to(out).parts[0] for a in argvs[name]
                     if a.startswith(f"{out}{os.sep}")} - {name}
            return [c for dep in sorted(reads, key=COLD_COMMANDS.index) for c in chain(dep)] + [name]

        calls = json.dumps([argvs[name] for name in chain(command)])
        lines = subprocess.run([sys.executable, "-c", LAUNCHER, calls], capture_output=True,
                               text=True, check=True).stdout.splitlines()
    wall, rss, code = json.loads(lines[-1])
    return {"wall_s": wall, "peak_rss_mb": rss, "failed": int(code != 0)}


def cold_fields(key, runs, row):
    for side, rs in runs.items():
        row[side]["failed"] = [r["failed"] for r in rs]


# -- perfbench ----------------------------------------------------------------

SEEDS = tuple(range(1, 11))  # one pair of runs per seed


def perfbench_worker(workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                          "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                         capture_output=True, text=True)
    if out.returncode not in (0, 1):  # 1: an output check failed, which the row records
        raise RuntimeError(f"perfbench/run.py exited with status {out.returncode}: {out.stderr}")
    result = json.loads(out.stdout.splitlines()[-1])
    return {name: m["value"] for name, m in result["metrics"].items()} | {
        "correct": result["correct"], "failed": result["failed"]}


def perfbench_fields(key, runs, row):
    for side, rs in runs.items():
        row[side] |= {"correct": [r["correct"] for r in rs], "failed": [r["failed"] for r in rs]}


def cases() -> dict:
    """Every case by name; ``perfbench`` takes its workloads and run length
    from ``BENCHMARK.json``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "euler": Case({"benchmark": "Euler path-steps per second, sde._run_chunk, linear cost",
                       "model": "models/n_model.json", "dt": DT, "seed": SEED, "normal_block": BLOCK},
                      [({"policy": policy, "paths": paths, "steps": steps},
                        [(policy, paths, steps)] * repeats)
                       for policy in POLICIES for paths, (steps, repeats) in SIZES.items()],
                      euler_worker, euler_fields),
        "hjb": Case({"benchmark": "seconds per solve_hjb, extrapolate boundary, default radius",
                     "models": {name: str(path.relative_to(ROOT)) for name, path in MODELS.items()}},
                    [({"model": name, "points": points}, [(name, points)] * repeats)
                     for name, points, repeats in GRIDS], hjb_worker, hjb_fields,
                    ("wall_s", "solve_s")),
        "prelimit": Case({"benchmark": "pre-limit events per second, run_replications",
                          "model": "models/n_model.json", "n": N, "horizon": HORIZON,
                          "seed": SEED, "repeats": {str(k): v for k, v in REPS.items()}},
                         [({"rule": rule, "reps": reps}, [(rule, reps)] * repeats)
                          for reps, repeats in REPS.items() for rule in RULES],
                         prelimit_worker, prelimit_fields),
        "detsys": Case({"benchmark": "microseconds per step of detsys.integrate_det",
                        "model": "models/n_model.json", "dt": DT, "seed": SEED,
                        "driver": "nonidling-check", "controls": "cli._smooth_controls"},
                       [({"model": "n_model", "steps": DET_STEPS}, [(DET_STEPS,)] * DET_REPEATS)],
                       detsys_worker, detsys_fields),
        "cold": Case({"benchmark": "cli_session commands, each in a fresh interpreter",
                      "entry_point": ENTRY_POINT, "seed": SEED},
                     [({"command": name}, [(name,)] * COLD_REPEATS) for name in COLD_COMMANDS],
                     cold_worker, cold_fields, ("wall_s", "peak_rss_mb")),
        "perfbench": Case({"benchmark": "perfbench/run.py --trace 0, end-to-end metrics",
                           "seeds": list(SEEDS)},
                          [({"workload": w["name"], "seconds": bench["run_seconds"]},
                            [(w["name"], seed, bench["run_seconds"]) for seed in SEEDS])
                           for w in bench["workloads"]],
                          perfbench_worker, perfbench_fields, ("wall_s", "setup_s", "peak_rss_mb")),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("case", nargs="?", choices=cases())
    ap.add_argument("parent", nargs="?", help="git revision of the parent commit")
    ap.add_argument("--worker", nargs=2, metavar=("CASE", "ARGS"), help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.worker:
        name, params = args.worker
        print(json.dumps(cases()[name].worker(*json.loads(params))))
        return 0
    if not args.parent:
        ap.error("the case and the parent revision are required")
    sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", args.parent],
                         capture_output=True, text=True, check=True).stdout.strip()
    with tempfile.TemporaryDirectory() as tmp:
        archive = subprocess.run(["git", "-C", str(ROOT), "archive", sha],
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        rows = run_case(args.case, {"parent": Path(tmp), "change": ROOT})
    doc = cases()[args.case].head | {
        "parent": sha, "change": "working tree on top of the parent",
        "machine": machine(), "results": rows,
    }
    path = ROOT / BENCH_FILE.format(sha=sha, case=args.case)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {path.name}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
