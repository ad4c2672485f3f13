"""The four benchmark workloads: set-up, one timed pass, and output checks.

A workload's inputs depend only on the seed.  One pass is the unit of
timed work; a run repeats passes with the same inputs for its measuring
time.  ``check`` compares a pass's outputs with the frozen references in
``references.json`` and returns one ``Op`` per operation.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from hwsched import ctmc, hjb, model, sde
from layers import run_cli

HERE = Path(__file__).resolve().parent

# z-score limit for Monte Carlo means against their references: a commit is
# measured over about a hundred runs, each with a dozen such statistics, so
# a 3-sigma limit would fail a correct program now and then
Z_MAX = 5.0
# relative tolerance of grid values at the probe points
VALUE_RTOL = 1e-6

MC_STARTS = [[0.0, 0.0], [1.5, -1.0], [-1.5, 1.0], [2.0, 2.0], [-2.0, -2.0]]
MC_PATHS = 100
MC_DT = 2e-3
PRELIMIT_N = 400
PRELIMIT_REPS = 5


@dataclass
class Op:
    """One attempted operation and its verdict."""

    name: str
    ok: bool
    detail: str = ""
    unconverged: bool = False


def attempt(fn, *args, **kwargs):
    """``(result, None)``, or ``(None, message)`` when the operation raised."""
    try:
        return fn(*args, **kwargs), None
    except Exception as exc:  # an operation that raises is a failed operation
        return None, f"{type(exc).__name__}: {exc}"


def z_check(name, mean, n, ref) -> Op:
    """Means of ``n`` samples against reference means and per-sample spreads;
    the operation passes when every z-score is within ``Z_MAX``."""
    se = np.sqrt(np.asarray(ref["sd"]) ** 2 * (1.0 / n + 1.0 / ref["n"]))
    z = np.abs(np.asarray(mean) - np.asarray(ref["mean"])) / se
    worst = float(np.max(z))
    return Op(name, bool(np.isfinite(worst) and worst <= Z_MAX), f"max z={worst:.2f}")


class Workload:
    """Base of the workloads: the shipped two-class model and its Monte Carlo
    and replication helpers."""

    # set while a pass is traced, for the spans the workload records itself
    tracer = None

    def __init__(self, root: Path, seed: int, scratch: Path | None = None):
        self.root = root
        self.seed = seed
        self.scratch = scratch
        self.model, self.cost = model.load_model(root / "models" / "n_model.json")

    @cached_property
    def refs(self) -> dict:
        return json.loads((HERE / "references.json").read_text())

    def mc_means(self, policy, starts, n_paths, seed, threads=1, horizon=None):
        return sde.mc_cost_batch(self.model, self.cost, np.asarray(starts), policy, n_paths,
                                 horizon=horizon, dt=MC_DT, seed=seed, threads=threads)

    def terminal_means(self, rule, reps, seed):
        scaling = ctmc.ScalingSpec.centered(self.model, PRELIMIT_N)
        samples = ctmc.run_replications(self.model, scaling, rule, [0.0, 0.0], 1.0, reps,
                                        seed=seed)
        return samples[:, -1].mean(axis=0)

    def rules(self) -> dict:
        scaling = ctmc.ScalingSpec.centered(self.model, PRELIMIT_N)
        uniform = model.ControlPoint.uniform(self.model.classes, self.model.stations)
        return {
            "greedy_0_1": ctmc.GreedyPriority(self.model, scaling, 0, 1),
            "track_uniform": ctmc.ImbalanceTracking(self.model, scaling, uniform),
        }


class McPolicy(Workload):
    """Monte Carlo cost of the grid-extracted policy against static priority."""

    name = "mc_policy"

    def __init__(self, root, seed, scratch=None):
        super().__init__(root, seed, scratch)
        grid = hjb.default_grid(self.model, 61, 4.5)
        sol = hjb.solve_hjb(self.model, self.cost, grid, boundary="extrapolate")
        field = hjb.extract_policy(sol.value, self.model, self.cost)
        self.policies = {
            "grid_markov": sde.GridMarkov(field),
            "static_0_1": sde.StaticPriority.for_model(self.model, 0, 1),
        }

    def run_pass(self):
        return {name: attempt(self.mc_means, pol, MC_STARTS, MC_PATHS, self.seed)
                for name, pol in self.policies.items()}

    def check(self, out) -> list[Op]:
        ops = {}
        for name, (res, err) in out.items():
            ops[name] = (Op(f"mc_cost_batch.{name}", False, err) if err else
                         z_check(f"mc_cost_batch.{name}", res[0], MC_PATHS,
                                 self.refs[self.name][name]))
        gm, st = out["grid_markov"][0], out["static_0_1"][0]
        if gm is not None and st is not None and not (gm[0] < st[0]).all():
            op = ops["grid_markov"]
            op.ok = False
            op.detail += f"; not below static priority at every start: {gm[0]} vs {st[0]}"
        return list(ops.values())

    def determinism(self) -> Op:
        """A two-chunk ensemble at one and at two worker threads must give
        byte-identical estimates."""
        rng = np.random.default_rng([self.seed, 77])
        starts = rng.uniform(-2.0, 2.0, (256, 2))
        policy = self.policies["grid_markov"]
        runs = [attempt(self.mc_means, policy, starts, 300, self.seed, threads=t, horizon=0.02)
                for t in (1, 2)]
        errs = [err for _, err in runs if err]
        if errs:
            return Op("determinism", False, errs[0])
        same = all(a.tobytes() == b.tobytes() for a, b in zip(runs[0][0], runs[1][0]))
        return Op("determinism", same, "threads=1 vs threads=2")


class GridSolve(Workload):
    """Policy iteration with the extrapolation boundary on two models."""

    name = "grid_solve"
    # (reference key, model, points per dimension, radius in sigmas)
    CASES = (("n_model_81", "n_model", 81, 6.0), ("tree3_19", "tree3", 19, 4.5))

    def __init__(self, root, seed, scratch=None):
        super().__init__(root, seed, scratch)
        tree, tree_cost = model.load_model(HERE / "models" / "tree3.json")
        report = model.validate_model(tree)
        if not report.ok:
            raise ValueError("tree3 model is invalid: " + "; ".join(report.violations))
        self.models = {"n_model": (self.model, self.cost), "tree3": (tree, tree_cost)}

    def run_pass(self):
        out = {}
        for key, name, points, radius in self.CASES:
            m, c = self.models[name]
            grid = hjb.default_grid(m, points, radius)
            sol, err = attempt(hjb.solve_hjb, m, c, grid, boundary="extrapolate")
            pol = None
            if sol is not None:
                pol, err = attempt(hjb.extract_policy, sol.value, m, c)
            out[key] = (sol, pol, err)
        return out

    def check(self, out) -> list[Op]:
        ops = []
        for key, (sol, pol, err) in out.items():
            if sol is None:
                ops.append(Op(f"solve_hjb.{key}", False, err))
                continue
            ref = self.refs[self.name][key]
            got = sol.value.values[np.asarray(ref["index"])]
            want = np.asarray(ref["value"])
            gap = float(np.abs(got - want).max() / np.abs(want).max())
            rep = sol.report
            ops.append(Op(f"solve_hjb.{key}", gap <= VALUE_RTOL,
                          f"rel gap {gap:.1e}, {rep.iterations} iterations", not rep.converged))
            if pol is None:
                ops.append(Op(f"extract_policy.{key}", False, err))
                continue
            simplex = all(np.allclose(a.sum(axis=1), 1.0) and (a >= 0).all()
                          for a in (pol.u, pol.v))
            ops.append(Op(f"extract_policy.{key}", simplex, "controls on the simplices"))
        return ops


class Prelimit(Workload):
    """Replications of the n-server system under the two assignment rules."""

    name = "prelimit"

    def __init__(self, root, seed, scratch=None):
        super().__init__(root, seed, scratch)
        self.rule_map = self.rules()

    def run_pass(self):
        return {name: attempt(self.terminal_means, rule, PRELIMIT_REPS, self.seed)
                for name, rule in self.rule_map.items()}

    def check(self, out) -> list[Op]:
        return [Op(f"run_replications.{name}", False, err) if err else
                z_check(f"run_replications.{name}", res, PRELIMIT_REPS, self.refs[self.name][name])
                for name, (res, err) in out.items()]


class CliSession(Workload):
    """The CLI in process over the shipped models; outputs under the run's
    scratch directory, which is removed afterwards."""

    name = "cli_session"

    def __init__(self, root, seed, scratch=None):
        super().__init__(root, seed, scratch)
        self.passes = 0

    def commands(self, out: Path) -> list[list[str]]:
        """The session's argument lists, without ``--seed`` and ``--out``."""
        n = str(self.root / "models" / "n_model.json")
        single = str(self.root / "models" / "single_class.json")
        return [
            ["validate", "--model", n],
            ["solve-hjb", "--model", n, "--points", "11", "--radius", "4.5",
             "--boundary", "static-mc", "--boundary-paths", "5"],
            ["extract-policy", "--model", n, "--value", str(out / "solve-hjb" / "value.field")],
            ["evaluate-policy", "--model", n,
             "--policy", str(out / "extract-policy" / "policy.field"),
             "--paths", "200", "--horizon", "6", "--dt", "2e-3"],
            ["simulate", "--model", n, "--policy", "static:0,1", "--horizon", "5",
             "--moments", "1,2,4,8", "--paths", "200"],
            ["det-run", "--model", n, "--policy", "random"],
            ["nonidling-check", "--model", n, "--runs", "4"],
            ["integral-residual", "--model", n],
            ["counterexample", "--k", "10"],
            # --z-max: see Z_MAX
            ["compare", "--model", single, "--n", "400", "--reps", "400", "--paths", "2000",
             "--z-max", str(Z_MAX)],
        ]

    def run_pass(self):
        self.passes += 1
        out = self.scratch / f"pass{self.passes}"
        codes = {}
        with contextlib.redirect_stdout(io.StringIO()):
            for argv in self.commands(out):
                argv += ["--seed", str(self.seed), "--out", str(out / argv[0])]
                codes[argv[0]] = attempt(run_cli, self.tracer, argv)
        return out, codes

    VERDICTS = {
        "validate": ("report.json", "ok"),
        "solve-hjb": ("solve.json", "converged"),
        "nonidling-check": ("nonidling.json", "pass"),
        "integral-residual": ("residual.json", "pass"),
        "counterexample": ("counterexample.json", "pass"),
        "compare": ("compare.json", "pass"),
    }

    def check(self, result) -> list[Op]:
        out, codes = result
        ops = []
        for cmd, (code, err) in codes.items():
            if cmd == "solve-hjb" and code == 1:
                # exit 1 means only that policy iteration hit its cap, the
                # known defect that grid_solve also reports
                doc = json.loads((out / cmd / "solve.json").read_text())
                ops.append(Op(f"cli.{cmd}", doc["converged"] is False,
                              f"exit 1, {doc['iterations']} iterations", unconverged=True))
                continue
            if err or code != 0:
                ops.append(Op(f"cli.{cmd}", False, err or f"exit {code}"))
                continue
            if cmd in self.VERDICTS:
                fname, key = self.VERDICTS[cmd]
                doc = json.loads((out / cmd / fname).read_text())
                ops.append(Op(f"cli.{cmd}", doc[key] is True, f"{key}={doc[key]}"))
            elif cmd == "evaluate-policy":
                doc = json.loads((out / cmd / "cost.json").read_text())
                ok = math.isfinite(doc["mean"]) and doc["mean"] > 0
                ops.append(Op(f"cli.{cmd}", ok, f"cost {doc['mean']:.4f}"))
            else:
                ops.append(Op(f"cli.{cmd}", True, "exit 0"))
        shutil.rmtree(out)
        return ops


WORKLOADS = {cls.name: cls for cls in (McPolicy, GridSolve, Prelimit, CliSession)}
