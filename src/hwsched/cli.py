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
    policy-field file path; ``horizon`` is the longest time the command
    simulates, which a switching control covers with its slots."""
    if spec in (None, "uniform"):
        return sde.FixedControl(model_mod.ControlPoint.uniform(model.classes, model.stations))
    if spec.startswith("static:"):
        return sde.StaticPriority.for_model(model, *_static_edge(spec, model))
    try:
        if spec.startswith("switch:"):
            period = _floats(spec[7:], 1, "switch period")[0]
            return sde.SwitchingControl(model, period, horizon, seed=seed)
        if not Path(spec).exists():
            raise CliError(f"policy file not found: {spec}")
        return sde.GridMarkov(_load_field(spec, "policy", model))
    except ValueError as exc:
        raise CliError(f"{spec}: {exc}") from exc


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


def _steps(horizon, dt):
    """The number of ``dt`` steps in ``horizon``, which must be at least one
    and at most ``sde.MAX_STEPS``."""
    ratio = horizon / dt
    if ratio > sde.MAX_STEPS:
        raise CliError(f"--horizon {horizon:g} spans more than {sde.MAX_STEPS:g} --dt {dt:g} steps")
    n = round(ratio)
    if n < 1:
        raise CliError(f"--horizon {horizon:g} spans no --dt {dt:g} step")
    return n


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
    _steps(args.horizon, args.dt)
    if args.moments:
        times = _floats(args.moments, name="--moments")
        if max(times) / args.dt > sde.MAX_STEPS:
            raise CliError(f"--moments {max(times):g} spans more than {sde.MAX_STEPS:g} "
                           f"--dt {args.dt:g} steps")
    span = max(args.horizon, max(times)) if args.moments else args.horizon
    policy = _parse_policy(args.policy, model, span, args.seed)
    path = sde.simulate_path(model, x0, policy, args.horizon, args.dt, seed=args.seed)
    path.to_csv(out / "path.csv")
    doc = {"horizon": args.horizon, "dt": args.dt, "terminal": path.x[-1].tolist()}
    if args.moments:
        curve = sde.moment_curve(model, policy, x0, 2.0, times, args.paths,
                                 dt=args.dt, seed=args.seed, threads=args.threads)
        model_mod.write_csv(out / "moments.csv",
                            np.column_stack([curve.times, curve.means, curve.stderrs]),
                            "t,moment2,stderr")
        doc["moment_paths"] = args.paths
    _write_json(out / "summary.json", doc)
    print(f"terminal state: {path.x[-1]}")
    return True


def cmd_solve_hjb(args, out):
    model, cost = _load_model(args.model)
    cost = _require_cost(cost)
    try:
        grid = hjb.default_grid(model, points_per_dim=args.points, radius=args.radius)
        boundary = args.boundary if args.boundary == "extrapolate" else hjb._boundary_values_mc(
            model, cost, grid, args.boundary_paths, seed=args.seed, threads=args.threads)
        sol = hjb.solve_hjb(model, cost, grid, boundary=boundary, tol=args.tol)
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    hjb.save_field(sol.value, model, out / "value.field")
    _write_json(out / "solve.json", {
        "converged": sol.report.converged,
        "iterations": sol.report.iterations,
        "sup_update": sol.report.sup_update,
        "interior_residual": sol.report.interior_residual,
        "boundary": args.boundary,
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
    horizon = args.horizon or 12.0 / model.gamma
    _steps(horizon, args.dt)
    policy = _parse_policy(args.policy, model, horizon, args.seed)
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
    n = _steps(args.horizon, args.dt)
    w0 = _floats(args.w0, model.classes, "--w0") if args.w0 else np.ones(model.classes)
    slope = _floats(args.slope, model.classes, "--slope") if args.slope else np.ones(model.classes)
    t = args.dt * np.arange(n + 1)
    w = w0 + slope * t[:, None]
    if args.policy == "random":
        controls = _smooth_controls(model, n + 1, args.dt, np.random.default_rng(args.seed))
    elif args.policy in (None, "uniform") or args.policy.startswith("static:"):
        point = _parse_policy(args.policy, model, args.horizon, args.seed).point
        controls = detsys.ControlPath.constant(point, n + 1, args.dt)
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
    n = _steps(args.horizon, args.dt)
    t = args.dt * np.arange(n + 1)
    w = 1.0 + np.tile(t[:, None], (1, model.classes))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
    try:  # a --dt lost to rounding in 1 + t gives drivers that do not increase
        for _ in range(args.runs):
            controls = _smooth_controls(model, n + 1, args.dt, rng)
            worst = max(worst, detsys.check_nonidling(model, w, controls))
    except ValueError as exc:
        raise CliError(f"--dt {args.dt:g}: {exc}") from exc
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
    _steps(args.horizon, args.dt)
    rep = detsys.counterexample_flow(args.k, horizon=args.horizon, dt=args.dt)
    data = np.column_stack([rep.times, rep.x, rep.psi.reshape(len(rep.times), -1)])
    model_mod.write_csv(out / "counterexample.csv", data, "t,x0,x1,psi0_0,psi0_1,psi1_0,psi1_1")
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
    n = _steps(args.horizon, args.dt)
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
    try:  # the operators grow like (rate t)^depth, past the float range on a long run
        with np.errstate(over="raise", invalid="raise"):
            res = detsys.identity_residual(seqs, traj)
    except FloatingPointError as exc:
        raise CliError(f"--horizon {args.horizon:g}: the path operators overflow: {exc}") from exc
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
    # the sample times are made here, and compare stores its paths' samples
    count = max(args.reps, getattr(args, "paths", 0))  # prelimit has no --paths
    if count * args.samples > ctmc.MAX_SAMPLES:
        raise CliError(f"{count} replications or paths of {args.samples} samples store more "
                       f"than {ctmc.MAX_SAMPLES:g} samples")
    try:
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
    except ValueError as exc:
        raise CliError(str(exc)) from exc
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
    model_mod.write_csv(out / "prelimit.csv", rows, header)
    _write_json(out / "prelimit.json", {
        "n": scaling.n, "reps": R,
        "mean_terminal": samples[:, -1].mean(axis=0).tolist(),
        "var_terminal": samples[:, -1].var(axis=0, ddof=1).tolist(),
    })
    print(f"n={scaling.n}: terminal mean {samples[:, -1].mean(axis=0)}")
    return True


def cmd_compare(args, out):
    model, _ = _load_model(args.model)
    _steps(args.horizon, args.dt)
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


class _Parser(argparse.ArgumentParser):
    """An argument parser that raises ``CliError`` where argparse would print
    its usage and exit, so that a bad flag is bad input like any other."""

    def error(self, message):
        raise CliError(message)


def _ranged(kind, ok, words):
    """An argparse ``type``: the text as ``kind``, accepted when ``ok`` holds
    for it; ``words`` name the accepted values."""

    def parse(text):
        try:
            val = kind(text)
            good = ok(val)
        except ValueError:
            good = False
        if not good:
            raise argparse.ArgumentTypeError(f"must be {words}, got {text!r}")
        return val

    return parse


_INF = float("inf")
# each must be finite, so that no run length is endless
_POSITIVE_FLOAT = _ranged(float, lambda v: 0 < v < _INF, "a positive finite number")
_NONNEGATIVE_FLOAT = _ranged(float, lambda v: 0 <= v < _INF, "a nonnegative finite number")
_POSITIVE_INT = _ranged(int, lambda v: v >= 1, "a positive integer")
# numpy rejects negative seeds
_NONNEGATIVE_INT = _ranged(int, lambda v: v >= 0, "a nonnegative integer")
# a sample variance needs two samples
_SAMPLE_COUNT = _ranged(int, lambda v: v >= 2, "an integer of at least 2")
_GRID_POINTS = _ranged(int, lambda v: v >= 3, "an integer of at least 3")
# kept as text, so that the manifest records the times as given
_TIMES = _ranged(str, lambda text: all(0 <= float(t) < _INF for t in text.split(",")),
                 "comma-separated nonnegative finite times")


@cache
def _build_parser():
    """The argument parser, built once per process: parsing leaves it
    unchanged, and building it takes several milliseconds per call."""
    # no abbreviated flags: a config key names an option by its full flag
    parser = _Parser(prog="hwsched", description=__doc__, allow_abbrev=False)
    sub = parser.add_subparsers(dest="command", required=True)
    # each command's parser by name, for tests that inspect its options
    parser.subcommands = sub.choices

    def add(name, model=True, dt=False, threads=False, **kwargs):
        p = sub.add_parser(name, allow_abbrev=False, **kwargs)
        p.add_argument("--config", help="JSON file of defaults for this command")
        p.add_argument("--out", help="output directory (default out-<command>)")
        p.add_argument("--seed", type=_NONNEGATIVE_INT, default=0)
        # only the commands that run a Monte Carlo ensemble have workers to cap
        if threads:
            p.add_argument("--threads", type=_POSITIVE_INT, default=1,
                           help="chunk workers (default 1); a chunk stepped on its own draws "
                                "its next block of normals on one producer thread")
        if model:
            p.add_argument("--model")
        if dt:
            p.add_argument("--dt", type=_POSITIVE_FLOAT, default=1e-3)
        return p

    add("validate", help="check a model file's invariants")

    p = add("simulate", dt=True, threads=True, help="simulate controlled diffusion paths")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--x0")
    p.add_argument("--horizon", type=_POSITIVE_FLOAT, default=10.0)
    p.add_argument("--paths", type=_POSITIVE_INT, default=1000)
    p.add_argument("--moments", type=_TIMES, help="comma list of times for a moment-curve CSV")

    p = add("solve-hjb", threads=True, help="solve the dynamic-programming equation")
    p.add_argument("--points", type=_GRID_POINTS, default=121)
    p.add_argument("--radius", type=_POSITIVE_FLOAT, default=6.0)
    p.add_argument("--boundary", default="static-mc", choices=["static-mc", "extrapolate"])
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-8,
                   help="bound on the last step's Bellman residual, relative to max(1, |value|)")
    p.add_argument("--boundary-paths", type=_POSITIVE_INT, default=2000)

    p = add("extract-policy", help="extract the minimizing control field")
    p.add_argument("--value")

    p = add("evaluate-policy", dt=True, threads=True, help="Monte Carlo cost of a policy")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--x0")
    p.add_argument("--paths", type=_POSITIVE_INT, default=10000)
    p.add_argument("--horizon", type=_POSITIVE_FLOAT)

    p = add("det-run", dt=True, help="integrate the deterministic flow system")
    p.add_argument("--w0")
    p.add_argument("--slope")
    p.add_argument("--policy", default="uniform")
    p.add_argument("--horizon", type=_POSITIVE_FLOAT, default=2.0)

    p = add("nonidling-check", dt=True, help="verify no idleness under increasing drivers")
    p.add_argument("--runs", type=_POSITIVE_INT, default=20)
    p.add_argument("--horizon", type=_POSITIVE_FLOAT, default=2.0)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-8)

    p = add("counterexample", model=False, dt=True,
            help="closed-form unbounded flow off the tree class")
    p.add_argument("--k", type=_NONNEGATIVE_FLOAT, default=1.0)
    p.add_argument("--horizon", type=_POSITIVE_FLOAT, default=5.0)
    p.add_argument("--tol", type=_POSITIVE_FLOAT, default=1e-8)

    p = add("integral-residual", dt=True, help="build operator sequences and check the identity")
    p.add_argument("--horizon", type=_POSITIVE_FLOAT, default=1.0)
    p.add_argument("--tol", type=_POSITIVE_FLOAT)

    p = add("prelimit", help="simulate the n-server system, scaled")
    p.add_argument("--n", type=_POSITIVE_INT, default=100)
    p.add_argument("--reps", type=_POSITIVE_INT, default=200)
    p.add_argument("--x0")
    p.add_argument("--horizon", type=_POSITIVE_FLOAT, default=1.0)
    p.add_argument("--rule", default="static:0,0")
    p.add_argument("--samples", type=_POSITIVE_INT, default=3)

    p = add("compare", dt=True, threads=True, help="pre-limit versus diffusion discrepancy check")
    p.add_argument("--n", type=_POSITIVE_INT, default=400)
    p.add_argument("--reps", type=_SAMPLE_COUNT, default=2000)
    p.add_argument("--paths", type=_SAMPLE_COUNT, default=10000)
    p.add_argument("--x0")
    p.add_argument("--horizon", type=_POSITIVE_FLOAT, default=1.0)
    p.add_argument("--rule", default="static:0,0")
    p.add_argument("--samples", type=_POSITIVE_INT, default=3)
    p.add_argument("--z-max", dest="z_max", type=_POSITIVE_FLOAT, default=3.0)

    return parser


def _merge_config(parser, args, argv):
    """``argv`` parsed with each config key passed as ``--key=value`` ahead of
    it, so that the option's ``type`` reads the value and a flag wins."""
    if not args.config:
        return args
    path = Path(args.config)
    if not path.exists():
        raise CliError(f"config file not found: {args.config}")
    try:
        doc = json.loads(path.read_text())
    except json.JSONDecodeError as exc:
        raise CliError(f"cannot parse config {args.config}: {exc}") from exc
    if not isinstance(doc, dict):
        raise CliError(f"config {args.config} must be a JSON object")
    nulls = [key for key, value in doc.items() if value is None]
    if nulls:
        raise CliError(f"config {args.config}: null values for {nulls}")
    try:
        return parser.parse_args([argv[0], *(f"--{key.replace('_', '-')}={value}"
                                             for key, value in doc.items()), *argv[1:]])
    except CliError as exc:
        raise CliError(f"config {args.config}: {exc}") from exc


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    argv = [str(a) for a in argv]
    parser = _build_parser()
    try:
        args = _merge_config(parser, parser.parse_args(argv), argv)
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
