"""Regenerate ``references.json``, the frozen outputs the benchmark checks.

Monte Carlo references use a seed no benchmark run uses and many more
paths or replications than a run; grid references are the solved values on
a coarse sub-lattice of each grid.  Run from the checkout root:

    PYTHONPATH=src python3 perfbench/make_references.py

It takes a few minutes on two cores.
"""

from __future__ import annotations

import itertools
import json
import sys
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from hwsched import ctmc  # noqa: E402
from workloads import MC_STARTS, PRELIMIT_N, GridSolve, McPolicy, Workload  # noqa: E402

REF_SEED = 900_001
MC_REF_PATHS = 4000
PRELIMIT_REF_REPS = 200
# every PROBE_STEP-th grid point along each axis is a probe point
PROBE_STEP = {"n_model_81": 10, "tree3_19": 3}


def mc_refs(root: Path) -> dict:
    wl = McPolicy(root, REF_SEED)
    out = {}
    for name, policy in wl.policies.items():
        mean, se, _ = wl.mc_means(policy, MC_STARTS, MC_REF_PATHS, REF_SEED)
        out[name] = {"mean": mean.tolist(), "sd": (se * np.sqrt(MC_REF_PATHS)).tolist(),
                     "n": MC_REF_PATHS, "seed": REF_SEED}
    return out


def prelimit_refs(root: Path) -> dict:
    wl = Workload(root, REF_SEED)
    scaling = ctmc.ScalingSpec.centered(wl.model, PRELIMIT_N)
    out = {}
    for name, rule in wl.rules().items():
        samples = ctmc.run_replications(wl.model, scaling, rule, [0.0, 0.0], 1.0,
                                        PRELIMIT_REF_REPS, seed=REF_SEED)
        term = samples[:, -1]
        out[name] = {"mean": term.mean(axis=0).tolist(), "sd": term.std(axis=0, ddof=1).tolist(),
                     "n": PRELIMIT_REF_REPS, "seed": REF_SEED}
    return out


def grid_refs(root: Path) -> dict:
    out = {}
    for key, (sol, _, err) in GridSolve(root, 0).run_pass().items():
        if err:
            raise RuntimeError(f"{key}: {err}")
        grid = sol.value.grid
        axes = [range(0, int(c), PROBE_STEP[key]) for c in grid.counts]
        index = [int(np.dot(c, grid.strides)) for c in itertools.product(*axes)]
        out[key] = {"index": index, "value": sol.value.values[index].tolist(),
                    "iterations": sol.report.iterations, "converged": sol.report.converged}
    return out


def main() -> None:
    root = HERE.parent
    refs = {"grid_solve": grid_refs(root), "mc_policy": mc_refs(root),
            "prelimit": prelimit_refs(root)}
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
