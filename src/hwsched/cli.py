"""Command-line entry point for reproducible experiments.

Every command loads a model file, writes a run manifest into the output
directory before computing, and emits CSV/JSON artifacts.  Check-style
commands exit 1 when their tolerance is violated; bad input exits 2.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import json
import sys
from functools import cache
from pathlib import Path

import numpy as np
import scipy

from . import __version__, ctmc, detsys, hjb, model as model_mod, pathops, sde


class CliError(Exception):
    """Invalid input or configuration; exits with status 2."""


def _finite(obj):
    """``obj`` with every non-finite float replaced by None: JSON has no NaN
    or infinity."""
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    if isinstance(obj, (float, np.floating)):
        return float(obj) if np.isfinite(obj) else None
    return obj


def _write_json(path, doc):
    text = json.dumps(_finite(doc), indent=2, sort_keys=True, default=float, allow_nan=False)
    Path(path).write_text(text + "\n")


def _load_model(path, validate=True):
    if path is None:
        raise CliError("--model is required")
    p = Path(path)
    if not p.exists():
        raise CliError(f"model file not found: {path}")
    try:
        model, cost = model_mod.load_model(p)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        raise CliError(f"cannot parse model file: {exc}") from exc
    bad = _violations(model, cost)[1] if validate else ()
    if bad:
        raise CliError(f"invalid model {path}: " + "; ".join(bad))
    return model, cost


def _violations(model, cost):
    """The model's validation report and every violation of the model and of
    its cost spec, if it has one."""
    report = model_mod.validate_model(model)
    bad = list(report.violations)
    if cost is not None:
        bad += [f"cost spec: {v}" for v in cost.check()]
        for name, w, n in (("queue", cost.c, model.classes), ("idle", cost.d, model.stations)):
            if w.shape != (n,):
                bad.append(f"cost spec: {name} weights need {n} entries, got {w.size}")
    return report, bad


def _require_cost(cost, flag="model file"):
    if cost is None:
        raise CliError(f"a cost spec is required; add one to the {flag}")
    return cost


def _floats(text, n=None, name="value"):
    try:
        vals = [float(tok) for tok in str(text).split(",")]
    except ValueError as exc:
        raise CliError(f"cannot parse {name}: {text!r}") from exc
    if n is not None and len(vals) != n:
        raise CliError(f"{name} needs {n} comma-separated numbers")
    if not np.isfinite(vals).all():
        raise CliError(f"{name} must be finite: {text!r}")
    return np.array(vals)


def _static_edge(spec, model):
    """Class and station indices of a ``static:i,j`` spec."""
    try:
        i, j = (int(tok) for tok in spec[7:].split(","))
    except ValueError as exc:
        raise CliError(f"bad static spec: {spec!r}") from exc
    if not (0 <= i < model.classes and 0 <= j < model.stations):
        raise CliError(f"static indices out of range: {spec!r}")
    return i, j


def _parse_policy(spec, model, horizon, seed):
    """Policy spec: ``uniform``, ``static:i,j``, ``switch:PERIOD``, or a
    policy-field file path."""
    if spec in (None, "uniform"):
        return sde.FixedControl(model_mod.ControlPoint.uniform(model.classes, model.stations))
    if spec.startswith("static:"):
        return sde.StaticPriority.for_model(model, *_static_edge(spec, model))
    if spec.startswith("switch:"):
        period = _floats(spec[7:], 1, "switch period")[0]
        if period <= 0:
            raise CliError(f"switch period must be positive: {spec!r}")
        return sde.SwitchingControl(model, period, horizon, seed=seed)
    if not Path(spec).exists():
        raise CliError(f"policy file not found: {spec}")
    return sde.GridMarkov(_load_field(spec, "policy", model))


def _load_field(path, kind, model):
    """A field file of the given kind whose grid and columns fit ``model``."""
    try:
        field, header = hjb.load_field(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise CliError(f"cannot read field file {path}: {exc!r}") from exc
    if header.get("kind") != kind:
        raise CliError(f"{path} is not a {kind} field file")
    if field.grid.dim != model.classes:
        raise CliError(f"{path} has a {field.grid.dim}-D grid; the model has {model.classes} classes")
    if kind == "policy" and (field.u.shape[1], field.v.shape[1]) != (model.classes, model.stations):
        raise CliError(f"{path} has {field.u.shape[1]} u and {field.v.shape[1]} v columns; "
                       f"the model has {model.classes} classes and {model.stations} stations")
    if header.get("model_hash") != model_mod.model_hash(model):
        print(f"warning: {path} was built for a different model", file=sys.stderr)
    return field


def _manifest(out: Path, command: str, params: dict):
    out.mkdir(parents=True, exist_ok=True)
    _write_json(out / "manifest.json", {
        "command": command,
        "parameters": params,
        "versions": {
            "hwsched": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": sys.version.split()[0],
        },
        "started": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    })


def _smooth_controls(model, n, dt, rng):
    """A random smooth control path on the ``n`` points ``0, dt, ...``: at each
    point the normalized ``exp(c0 sin(f0 t) + c1 cos(f1 t))`` per class and
    per station, with ``c`` and ``f`` drawn from ``rng``."""
    I, J = model.classes, model.stations
    cu = rng.normal(0, 1, (I, 2))
    fu = rng.uniform(0.5, 2.0, (I, 2))
    cv = rng.normal(0, 1, (J, 2))
    fv = rng.uniform(0.5, 2.0, (J, 2))
    t = (dt * np.arange(n))[:, None]

    def weights(c, f):
        e = np.exp(c[:, 0] * np.sin(f[:, 0] * t) + c[:, 1] * np.cos(f[:, 1] * t))
        return e / e.sum(axis=1, keepdims=True)

    return detsys.ControlPath(dt, weights(cu, fu), weights(cv, fv))


# -- command handlers (return True when the run's check passes) --------------


def cmd_validate(args, out):
    model, cost = _load_model(args.model, validate=False)
    report, bad = _violations(model, cost)
    doc = {"ok": not bad, "violations": bad, "diameter": report.diameter}
    if cost is not None and not bad:
        doc["cases"] = sorted(model_mod.classify_case(model, cost))
    _write_json(out / "report.json", doc)
    print(("invalid" if bad else "valid") + f", diameter={report.diameter}")
    for v in bad:
        print("  -", v)
    return not bad


def cmd_simulate(args, out):
    model, _ = _load_model(args.model)
    x0 = _floats(args.x0, model.classes, "--x0") if args.x0 else np.zeros(model.classes)
    policy = _parse_policy(args.policy, model, args.horizon, args.seed)
    path = sde.simulate_path(model, x0, policy, args.horizon, args.dt, seed=args.seed)
    path.to_csv(out / "path.csv")
    doc = {"horizon": args.horizon, "dt": args.dt, "terminal": path.x[-1].tolist()}
    if args.moments:
        times = _floats(args.moments, name="--moments")
        curve = sde.moment_curve(model, policy, x0, 2.0, times, args.paths,
                                 dt=args.dt, seed=args.seed, threads=args.threads)
        np.savetxt(out / "moments.csv",
                   np.column_stack([curve.times, curve.means, curve.stderrs]),
                   delimiter=",", header="t,moment2,stderr", comments="", fmt="%.17g")
        doc["moment_paths"] = args.paths
    _write_json(out / "summary.json", doc)
    print(f"terminal state: {path.x[-1]}")
    return True


def cmd_solve_hjb(args, out):
    model, cost = _load_model(args.model)
    cost = _require_cost(cost)
    grid = hjb.default_grid(model, points_per_dim=args.points, radius=args.radius)
    try:
        sol = hjb.solve_hjb(
            model, cost, grid, boundary=args.boundary, tol=args.tol,
            boundary_paths=args.boundary_paths, seed=args.seed,
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    hjb.save_field(sol.value, model, out / "value.field")
    _write_json(out / "solve.json", {
        "converged": sol.report.converged,
        "iterations": sol.report.iterations,
        "sup_update": sol.report.sup_update,
        "interior_residual": sol.report.interior_residual,
        "boundary": sol.report.boundary,
        "grid": grid.to_dict(),
        "history": [dataclasses.asdict(step) for step in sol.report.history],
    })
    print(f"converged={sol.report.converged} interior_residual={sol.report.interior_residual:.3e}")
    return sol.report.converged


def cmd_extract_policy(args, out):
    model, cost = _load_model(args.model)
    cost = _require_cost(cost)
    if not args.value or not Path(args.value).exists():
        raise CliError("--value must point to a value field file")
    field = _load_field(args.value, "value", model)
    policy = hjb.extract_policy(field, model, cost)
    hjb.save_field(policy, model, out / "policy.field")
    print(f"policy extracted on {field.grid.size} grid points")
    return True


def cmd_evaluate_policy(args, out):
    model, cost = _load_model(args.model)
    cost = _require_cost(cost)
    x0 = _floats(args.x0, model.classes, "--x0") if args.x0 else np.zeros(model.classes)
    policy = _parse_policy(args.policy, model, args.horizon or 12.0 / model.gamma, args.seed)
    est = sde.mc_cost(model, cost, x0, policy, args.paths, horizon=args.horizon,
                      dt=args.dt, seed=args.seed, threads=args.threads)
    _write_json(out / "cost.json", {
        "mean": est.mean, "stderr": est.stderr, "tail_bound": est.tail_bound,
        "n_paths": est.n_paths, "horizon": est.horizon, "dt": est.dt,
    })
    print(f"cost = {est.mean:.6f} +/- {est.stderr:.6f} (tail <= {est.tail_bound:.2e})")
    return True


def cmd_det_run(args, out):
    model, _ = _load_model(args.model)
    n = int(round(args.horizon / args.dt))
    w0 = _floats(args.w0, model.classes, "--w0") if args.w0 else np.ones(model.classes)
    slope = _floats(args.slope, model.classes, "--slope") if args.slope else np.ones(model.classes)
    t = args.dt * np.arange(n + 1)
    w = w0 + slope * t[:, None]
    if args.policy in (None, "uniform"):
        point = model_mod.ControlPoint.uniform(model.classes, model.stations)
        controls = detsys.ControlPath.constant(point, n + 1, args.dt)
    elif args.policy.startswith("static:"):
        i, j = _static_edge(args.policy, model)
        point = model_mod.ControlPoint.vertex(i, j, model.classes, model.stations)
        controls = detsys.ControlPath.constant(point, n + 1, args.dt)
    elif args.policy == "random":
        controls = _smooth_controls(model, n + 1, args.dt, np.random.default_rng(args.seed))
    else:
        raise CliError(f"det-run supports uniform, static:i,j or random controls, got {args.policy!r}")
    traj = detsys.integrate_det(model, w, controls)
    traj.to_csv(out / "trajectory.csv")
    _write_json(out / "det.json", {
        "max_idleness": traj.max_idleness(),
        "sup_state_norm": float(np.abs(traj.x).sum(axis=1).max()),
    })
    print(f"max idleness {traj.max_idleness():.3e}")
    return True


def cmd_nonidling_check(args, out):
    model, _ = _load_model(args.model)
    reasons = detsys.nonidling_hypothesis(model)
    n = int(round(args.horizon / args.dt))
    t = args.dt * np.arange(n + 1)
    w = 1.0 + np.tile(t[:, None], (1, model.classes))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    for _ in range(args.runs):
        controls = _smooth_controls(model, n + 1, args.dt, rng)
        worst = max(worst, detsys.check_nonidling(model, w, controls))
    ok = worst <= args.tol
    _write_json(out / "nonidling.json", {
        "max_idleness": worst, "tol": args.tol, "runs": args.runs,
        "hypothesis_gaps": reasons, "pass": ok,
    })
    print(f"max idleness over {args.runs} runs: {worst:.3e} (tol {args.tol:g})")
    if reasons:
        print("note: hypothesis not satisfied:", "; ".join(reasons))
    return ok


def cmd_counterexample(args, out):
    rep = detsys.counterexample_flow(args.k, horizon=args.horizon, dt=args.dt)
    data = np.column_stack([rep.times, rep.x, rep.psi.reshape(len(rep.times), -1)])
    np.savetxt(out / "counterexample.csv", data, delimiter=",",
               header="t,x0,x1,psi0_0,psi0_1,psi1_0,psi1_1", comments="", fmt="%.17g")
    ok = rep.max_residual <= args.tol
    _write_json(out / "counterexample.json", {
        "k": rep.k, "max_residual": rep.max_residual,
        "sup_state_norm": rep.sup_state_norm, "driver_sup": rep.driver_sup,
        "tol": args.tol, "pass": ok,
    })
    print(f"k={rep.k:g}: residual {rep.max_residual:.2e}, sup state norm {rep.sup_state_norm:.4f}")
    return ok


def cmd_integral_residual(args, out):
    model, _ = _load_model(args.model)
    n = int(round(args.horizon / args.dt))
    if n < 1:
        raise CliError(f"--horizon {args.horizon:g} spans no --dt {args.dt:g} step")
    seqs = pathops.build_sequences(model)
    seqs.save(out / "sequences.json")
    rng = np.random.default_rng(args.seed)
    t = args.dt * np.arange(n + 1)
    w0 = rng.uniform(0.05, 0.3, model.classes) * np.sign(rng.normal(size=model.classes))
    amps = rng.normal(0, 0.3, (model.classes, 2))
    freqs = rng.uniform(0.5, 2.5, (model.classes, 2))
    ph = rng.uniform(0, 2 * np.pi, (model.classes, 2))
    w = w0 + (amps[None] * np.sin(freqs[None] * t[:, None, None] + ph[None])).sum(-1)
    controls = _smooth_controls(model, n + 1, args.dt, rng)
    traj = detsys.integrate_det(model, w, controls)
    res = detsys.identity_residual(seqs, traj)
    sup = float(np.abs(res).max())
    tol = args.tol if args.tol is not None else 50.0 * args.dt
    ok = sup <= tol
    _write_json(out / "residual.json", {
        "sup_residual": sup, "tol": tol, "dt": args.dt, "horizon": args.horizon,
        "root": seqs.root, "pass": ok,
    })
    print(f"sup residual {sup:.3e} (tol {tol:g})")
    return ok


def _prelimit_samples(args, model):
    scaling = ctmc.ScalingSpec.centered(model, args.n)
    if args.rule.startswith("static:"):
        rule = ctmc.GreedyPriority(model, scaling, *_static_edge(args.rule, model))
    elif args.rule == "track":
        point = model_mod.ControlPoint.uniform(model.classes, model.stations)
        rule = ctmc.ImbalanceTracking(model, scaling, point)
    else:
        raise CliError(f"unknown rule {args.rule!r}; use static:i,j or track")
    x0 = _floats(args.x0, model.classes, "--x0") if args.x0 else np.zeros(model.classes)
    times = np.linspace(0.0, args.horizon, args.samples)
    samples = ctmc.run_replications(
        model, scaling, rule, x0, args.horizon, args.reps, seed=args.seed, sample_times=times
    )
    return scaling, x0, times, samples


def cmd_prelimit(args, out):
    model, _ = _load_model(args.model)
    scaling, _, times, samples = _prelimit_samples(args, model)
    R, S, I = samples.shape
    rows = np.column_stack([
        np.repeat(np.arange(R), S),
        np.tile(times, R),
        samples.reshape(R * S, I),
    ])
    header = "rep,t," + ",".join(f"xhat{i}" for i in range(I))
    np.savetxt(out / "prelimit.csv", rows, delimiter=",", header=header, comments="", fmt="%.17g")
    _write_json(out / "prelimit.json", {
        "n": scaling.n, "reps": R,
        "mean_terminal": samples[:, -1].mean(axis=0).tolist(),
        "var_terminal": samples[:, -1].var(axis=0, ddof=1).tolist(),
    })
    print(f"n={scaling.n}: terminal mean {samples[:, -1].mean(axis=0)}")
    return True


def cmd_compare(args, out):
    model, _ = _load_model(args.model)
    scaling, x0, times, samples = _prelimit_samples(args, model)
    x0_real = ctmc.initial_headcounts(model, scaling, x0)[1]
    spec = args.rule if args.rule.startswith("static:") else "uniform"
    policy = _parse_policy(spec, model, args.horizon, args.seed)
    idx = [int(round(t / args.dt)) for t in times]
    diff = np.concatenate(sde.ensemble(
        model, x0_real[None, :], policy, args.paths, max(idx), args.dt, args.seed,
        sde.path_snapshots, snap_idx=idx, stream=1000, threads=args.threads))
    report = ctmc.compare_samples(samples, diff, times)
    ok = report.max_mean_z <= args.z_max and report.max_var_z <= args.z_max
    doc = report.to_dict()
    doc.update({"n": scaling.n, "z_max": args.z_max, "pass": ok,
                "multiclass_note": "informational for more than one class"
                if model.classes > 1 else None})
    _write_json(out / "compare.json", doc)
    print(f"max mean z {report.max_mean_z:.2f}, max var z {report.max_var_z:.2f} (limit {args.z_max:g})")
    return ok


HANDLERS = {
    "validate": cmd_validate,
    "simulate": cmd_simulate,
    "solve-hjb": cmd_solve_hjb,
    "extract-policy": cmd_extract_policy,
    "evaluate-policy": cmd_evaluate_policy,
    "det-run": cmd_det_run,
    "nonidling-check": cmd_nonidling_check,
    "counterexample": cmd_counterexample,
    "integral-residual": cmd_integral_residual,
    "prelimit": cmd_prelimit,
    "compare": cmd_compare,
}


@cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it takes several milliseconds per call."""
    parser = argparse.ArgumentParser(prog="hwsched", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's parser by name, for reading its options' types
    parser.subcommands = sub.choices

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--config", help="JSON file of defaults for this command")
        p.add_argument("--out", help="output directory (default out-<command>)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--threads", type=int, default=1)
        return p

    p = add("validate", help="check a model file's invariants")
    p.add_argument("--model")

    p = add("simulate", help="simulate controlled diffusion paths")
    p.add_argument("--model")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--x0")
    p.add_argument("--horizon", type=float, default=10.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--paths", type=int, default=1000)
    p.add_argument("--moments", help="comma list of times for a moment-curve CSV")

    p = add("solve-hjb", help="solve the dynamic-programming equation")
    p.add_argument("--model")
    p.add_argument("--points", type=int, default=121)
    p.add_argument("--radius", type=float, default=6.0)
    p.add_argument("--boundary", default="static-mc", choices=["static-mc", "extrapolate"])
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--boundary-paths", type=int, default=2000)

    p = add("extract-policy", help="extract the minimizing control field")
    p.add_argument("--model")
    p.add_argument("--value")

    p = add("evaluate-policy", help="Monte Carlo cost of a policy")
    p.add_argument("--model")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--x0")
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--horizon", type=float)
    p.add_argument("--dt", type=float, default=1e-3)

    p = add("det-run", help="integrate the deterministic flow system")
    p.add_argument("--model")
    p.add_argument("--w0")
    p.add_argument("--slope")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--horizon", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=1e-3)

    p = add("nonidling-check", help="verify no idleness under increasing drivers")
    p.add_argument("--model")
    p.add_argument("--runs", type=int, default=20)
    p.add_argument("--horizon", type=float, default=2.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("counterexample", help="closed-form unbounded flow off the tree class")
    p.add_argument("--k", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=5.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=float, default=1e-8)

    p = add("integral-residual", help="build operator sequences and check the identity")
    p.add_argument("--model")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--tol", type=float)

    p = add("prelimit", help="simulate the n-server system, scaled")
    p.add_argument("--model")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--reps", type=int, default=200)
    p.add_argument("--x0")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--rule", default="static:0,0")
    p.add_argument("--samples", type=int, default=3)

    p = add("compare", help="pre-limit versus diffusion discrepancy check")
    p.add_argument("--model")
    p.add_argument("--n", type=int, default=400)
    p.add_argument("--reps", type=int, default=2000)
    p.add_argument("--paths", type=int, default=10000)
    p.add_argument("--x0")
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--rule", default="static:0,0")
    p.add_argument("--samples", type=int, default=3)
    p.add_argument("--dt", type=float, default=1e-3)
    p.add_argument("--z-max", dest="z_max", type=float, default=3.0)

    return parser


# exclusive lower bounds of the numeric options, wherever a command has them;
# each must also be finite, so that no run length is endless
LOWER_BOUNDS = {"dt": 0, "horizon": 0, "paths": 0, "reps": 0, "n": 0, "runs": 0, "samples": 0,
                "boundary_paths": 0, "threads": 0, "points": 2}
_POSITIVE_FINITE = (lambda v: 0 < v < float("inf"), "positive and finite")
# a sample variance needs two samples
_AT_LEAST_TWO = (lambda v: v >= 2, "at least 2")
# per command, options with a narrower range: (test, the range in words)
RANGES = {
    "solve-hjb": {"radius": _POSITIVE_FINITE, "tol": _POSITIVE_FINITE},
    "counterexample": {"k": (lambda v: 0 <= v < float("inf"), "nonnegative and finite")},
    "compare": {"reps": _AT_LEAST_TWO, "paths": _AT_LEAST_TWO, "z_max": _POSITIVE_FINITE},
}


def _check_numbers(args):
    """Reject numeric options out of range, whether from flags or a config."""
    for name, low in LOWER_BOUNDS.items():
        val = getattr(args, name, None)
        if val is not None and not (isinstance(val, (int, float)) and low < val < float("inf")):
            raise CliError(f"--{name.replace('_', '-')} must be above {low} and finite, got {val!r}")
    for name, (ok, words) in RANGES.get(args.command, {}).items():
        val = getattr(args, name)
        if not (isinstance(val, (int, float)) and ok(val)):
            raise CliError(f"--{name.replace('_', '-')} must be {words}, got {val!r}")
    if getattr(args, "moments", None) and (_floats(args.moments, name="--moments") < 0).any():
        raise CliError(f"--moments times must be nonnegative, got {args.moments!r}")


def _config_value(action, key, value):
    """A config value as its option's flag would give it: the option's
    argparse ``type`` applied to the value's text, and one of its ``choices``."""
    if value is None and action.default is None:
        return None
    text = str(value)
    try:
        value = action.type(text) if action.type else text
    except ValueError as exc:
        raise CliError(f"config key {key!r}: invalid {action.type.__name__} value {value!r}") from exc
    if action.choices is not None and value not in action.choices:
        raise CliError(f"config key {key!r} must be one of {list(action.choices)}, got {value!r}")
    return value


def _merge_config(parser, args, argv):
    if not args.config:
        return args
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file not found: {args.config}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse config: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError("config must be a JSON object")
    actions = {a.dest: a for a in parser.subcommands[args.command]._actions}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr not in actions or attr == "help":
            raise CliError(f"unknown config key {key!r}")
        # command-line flags that were given explicitly beat the config
        if f"--{key}" not in argv and f"--{attr}" not in argv:
            setattr(args, attr, _config_value(actions[attr], key, value))
    return args


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        args = _merge_config(parser, args, argv)
        _check_numbers(args)
        out = Path(args.out) if args.out else Path(f"out-{args.command}")
        params = {k: v for k, v in vars(args).items() if k not in ("command",)}
        _manifest(out, args.command, params)
        ok = HANDLERS[args.command](args, out)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
