"""Layer boundaries of hwsched wrapped for the traced run, and the per-layer
metrics derived from the recorded spans.

Every wrapper replaces a module attribute or a method of a policy, cost or
rule class for the duration of a traced pass and puts the original back
afterwards; nothing under ``src/`` changes.  The wrapped names are the ones
the package looks up at call time, so calls made inside the package are
recorded too.
"""

from __future__ import annotations

import numpy as np

from hwsched import cli, ctmc, detsys, flows, hjb, model, pathops, sde
from spans import SpanIndex, Tracer

# names of the cli.<command>_s metrics, in session order
CLI_COMMANDS = (
    "validate", "solve-hjb", "extract-policy", "evaluate-policy", "simulate",
    "det-run", "nonidling-check", "integral-residual", "counterexample", "compare",
)


def _rows(args, kwargs, result):
    return {"rows": len(args[1])}


def _chunk_steps(args, kwargs, result):
    return {"steps": len(args[1]) * int(args[3])}


def _path_steps(args, kwargs, result):
    return {"steps": len(result.u)}


def _events(args, kwargs, result):
    return {"events": int(result.events)}


def _report(args, kwargs, result):
    rep = result.report
    return {"iterations": rep.iterations, "unconverged": int(not rep.converged),
            "residual": float(rep.interior_residual)}


def _grid_lookup(tracer: Tracer, fn):
    """``GridMarkov.controls`` recorded as a span, counting lookups that fall
    outside the policy box and so read a clipped boundary control."""
    traced = tracer.wrap(fn, "sde.policy")

    def controls(self, X, t):
        out = traced(self, X, t)
        rel = (np.asarray(X, dtype=float) - self._lows) / self._spacing
        clipped = ((rel < 0.0) | (rel > self._counts - 1.0)).any(axis=1)
        tracer.spans[-1][5].update(grid_rows=len(X), clipped=int(clipped.sum()))
        return out

    return controls


def _tracking(args, kwargs, result):
    return {"tracking": 1}


def boundaries(tracer: Tracer) -> list[tuple[object, str, object]]:
    """``(owner, attribute, wrapper)`` for every layer boundary."""
    w = tracer.wrap
    return [
        (sde, "mc_cost_batch", w(sde.mc_cost_batch, "sde.ensemble")),
        (sde, "moment_curve", w(sde.moment_curve, "sde.ensemble")),
        (sde, "simulate_path", w(sde.simulate_path, "sde.ensemble", _path_steps)),
        (sde, "_run_chunk", w(sde._run_chunk, "sde.chunk", _chunk_steps)),
        (sde.FixedControl, "controls", w(sde.FixedControl.controls, "sde.policy")),
        (sde.SwitchingControl, "controls", w(sde.SwitchingControl.controls, "sde.policy")),
        (sde.GridMarkov, "controls", _grid_lookup(tracer, sde.GridMarkov.controls)),
        (sde, "drift_batch", w(sde.drift_batch, "flows.drift_batch", _rows)),
        (hjb, "drift_batch", w(hjb.drift_batch, "flows.drift_batch", _rows)),
        (model.RunningCostSpec, "evaluate", w(model.RunningCostSpec.evaluate, "model.cost")),
        (model, "load_model", w(model.load_model, "model.load")),
        (hjb, "solve_hjb", w(hjb.solve_hjb, "hjb.solve", _report)),
        (hjb, "extract_policy", w(hjb.extract_policy, "hjb.extract")),
        (hjb, "spsolve", w(hjb.spsolve, "hjb.linear_solve")),
        (hjb, "hamiltonian_field", w(hjb.hamiltonian_field, "hjb.hamiltonian")),
        (hjb, "pde_residual", w(hjb.pde_residual, "hjb.residual")),
        (hjb, "_boundary_values_mc", w(hjb._boundary_values_mc, "hjb.boundary_mc")),
        (hjb, "save_field", w(hjb.save_field, "cli.io")),
        (hjb, "load_field", w(hjb.load_field, "cli.io")),
        (ctmc, "simulate_ctmc", w(ctmc.simulate_ctmc, "ctmc.sim", _events)),
        (ctmc.GreedyPriority, "assign", w(ctmc.GreedyPriority.assign, "ctmc.assign")),
        (ctmc.ImbalanceTracking, "assign",
         w(ctmc.ImbalanceTracking.assign, "ctmc.assign", _tracking)),
        (flows, "solve_psi", w(flows.solve_psi, "flows.solve_psi")),
        (detsys, "integrate_det", w(detsys.integrate_det, "detsys.integrate")),
        (detsys.ControlPath, "from_function", classmethod(
            w(detsys.ControlPath.__dict__["from_function"].__func__, "detsys.control_path"))),
        (pathops, "integral_residual", w(pathops.integral_residual, "pathops.residual")),
        (pathops, "build_sequences", w(pathops.build_sequences, "pathops.build_sequences")),
    ]


class Patched:
    """Installs the wrappers on enter and restores the originals on exit."""

    def __init__(self, tracer: Tracer):
        self._wrappers = boundaries(tracer)
        self._saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in self._wrappers]

    def __enter__(self):
        for owner, attr, wrapper in self._wrappers:
            setattr(owner, attr, wrapper)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in self._saved:
            setattr(owner, attr, original)
        return False


def run_cli(tracer: Tracer | None, argv: list[str]) -> int:
    """``hwsched.cli.main`` in process, as a ``cli.<command>`` span when traced."""
    if tracer is None:
        return cli.main(argv)
    span = tracer.begin("cli." + argv[0])
    try:
        code = cli.main(argv)
    finally:
        tracer.end(span)
    span[5]["exit"] = code
    return code


# -- per-layer metrics -----------------------------------------------------------

# spans that form one layer; a layer's inclusive time counts only spans whose
# parent lies outside it, so nested calls within a layer are not counted twice
LAYER_OF = {"sde.ensemble": "sde", "sde.chunk": "sde"}

PER_LAYER = [
    ("path_steps_per_s", "1/s"), ("events_per_s", "1/s"),
    ("sde.ensemble_s", "s"), ("sde.path_steps", "count"), ("sde.policy_s", "s"),
    ("sde.policy_calls", "count"), ("sde.box_exit_frac", "frac"), ("sde.self_s", "s"),
    ("model.cost_s", "s"), ("flows.drift_batch_s", "s"), ("flows.drift_batch_rows", "count"),
    ("hjb.solve_s", "s"), ("hjb.pi_iterations", "count"), ("hjb.unconverged_solves", "count"),
    ("hjb.linear_solve_s", "s"), ("hjb.linear_solve_calls", "count"),
    ("hjb.hamiltonian_s", "s"), ("hjb.residual_s", "s"), ("hjb.self_s", "s"),
    ("hjb.interior_residual", "1"), ("hjb.boundary_mc_s", "s"),
    ("ctmc.sim_s", "s"), ("ctmc.events", "count"), ("ctmc.assign_s", "s"),
    ("ctmc.assign_calls", "count"), ("ctmc.fallback_frac", "frac"), ("ctmc.self_s", "s"),
    ("flows.solve_psi_s", "s"), ("flows.solve_psi_calls", "count"),
    ("detsys.integrate_s", "s"), ("detsys.integrate_calls", "count"), ("detsys.control_path_s", "s"),
    ("pathops.residual_s", "s"), ("pathops.build_sequences_s", "s"),
    *((f"cli.{c.replace('-', '_')}_s", "s") for c in CLI_COMMANDS),
    ("cli.io_s", "s"), ("cli.self_s", "s"), ("cli.nonzero_exits", "count"),
    ("model.load_s", "s"), ("trace.overhead_frac", "frac"), ("failed_ops_frac", "frac"),
]


def layer_metrics(spans: list[list], passes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass, from the spans under ``pass`` roots.

    Times and counts are totals divided by the number of traced passes.
    ``model.load_s`` is the mean time of one model-file load over the whole
    run, set-up included.  ``trace.overhead_frac`` and ``failed_ops_frac``
    are not derived from spans; the caller adds them.
    """
    index = SpanIndex(spans)
    incl: dict[str, float] = {}
    selft: dict[str, float] = {}
    calls: dict[str, int] = {}
    attr: dict[str, float] = {}
    loads = []
    residual = 0.0
    fallbacks = tracking = 0
    for s in spans:
        name = s[2]
        if name == "model.load":
            loads.append(s[4] - s[3])
        if index.root(s)[2] != "pass":
            continue
        parent = index.parent(s)
        layer = LAYER_OF.get(name, name)
        if parent is None or LAYER_OF.get(parent[2], parent[2]) != layer:
            incl[layer] = incl.get(layer, 0.0) + s[4] - s[3]
            calls[layer] = calls.get(layer, 0) + 1
        selft[layer] = selft.get(layer, 0.0) + index.self_time(s)
        for key, val in s[5].items():
            attr[key] = attr.get(key, 0.0) + (val != 0 if key == "exit" else val)
        if name == "hjb.solve":
            residual = max(residual, s[5]["residual"])
        elif name == "ctmc.assign":
            tracking += s[5].get("tracking", 0)
            fallbacks += parent is not None and parent[2] == "ctmc.assign"

    totals = {
        "sde.ensemble_s": incl.get("sde", 0.0),
        "sde.path_steps": attr.get("steps", 0.0),
        "sde.policy_s": incl.get("sde.policy", 0.0),
        "sde.policy_calls": calls.get("sde.policy", 0),
        "sde.self_s": selft.get("sde", 0.0),
        "model.cost_s": incl.get("model.cost", 0.0),
        "flows.drift_batch_s": incl.get("flows.drift_batch", 0.0),
        "flows.drift_batch_rows": attr.get("rows", 0.0),
        "hjb.solve_s": incl.get("hjb.solve", 0.0),
        "hjb.pi_iterations": attr.get("iterations", 0.0),
        "hjb.unconverged_solves": attr.get("unconverged", 0.0),
        "hjb.linear_solve_s": incl.get("hjb.linear_solve", 0.0),
        "hjb.linear_solve_calls": calls.get("hjb.linear_solve", 0),
        "hjb.hamiltonian_s": incl.get("hjb.hamiltonian", 0.0),
        "hjb.residual_s": incl.get("hjb.residual", 0.0),
        "hjb.self_s": selft.get("hjb.solve", 0.0) + selft.get("hjb.extract", 0.0),
        "hjb.boundary_mc_s": incl.get("hjb.boundary_mc", 0.0),
        "ctmc.sim_s": incl.get("ctmc.sim", 0.0),
        "ctmc.events": attr.get("events", 0.0),
        "ctmc.assign_s": incl.get("ctmc.assign", 0.0),
        "ctmc.assign_calls": calls.get("ctmc.assign", 0),
        "ctmc.self_s": selft.get("ctmc.sim", 0.0),
        "flows.solve_psi_s": incl.get("flows.solve_psi", 0.0),
        "flows.solve_psi_calls": calls.get("flows.solve_psi", 0),
        "detsys.integrate_s": incl.get("detsys.integrate", 0.0),
        "detsys.integrate_calls": calls.get("detsys.integrate", 0),
        "detsys.control_path_s": incl.get("detsys.control_path", 0.0),
        "pathops.residual_s": incl.get("pathops.residual", 0.0),
        "pathops.build_sequences_s": incl.get("pathops.build_sequences", 0.0),
        "cli.io_s": incl.get("cli.io", 0.0),
        "cli.self_s": sum(selft.get("cli." + c, 0.0) for c in CLI_COMMANDS),
        "cli.nonzero_exits": attr.get("exit", 0.0),
    }
    for c in CLI_COMMANDS:
        totals[f"cli.{c.replace('-', '_')}_s"] = incl.get("cli." + c, 0.0)
    out = {k: v / passes for k, v in totals.items()}
    # layer throughputs: work over the time spent inside the layer
    ens, sim = totals["sde.ensemble_s"], totals["ctmc.sim_s"]
    out["path_steps_per_s"] = totals["sde.path_steps"] / ens if ens else 0.0
    out["events_per_s"] = totals["ctmc.events"] / sim if sim else 0.0
    grid_rows = attr.get("grid_rows", 0.0)
    out["sde.box_exit_frac"] = attr.get("clipped", 0.0) / grid_rows if grid_rows else 0.0
    out["hjb.interior_residual"] = residual
    out["ctmc.fallback_frac"] = fallbacks / tracking if tracking else 0.0
    out["model.load_s"] = sum(loads) / len(loads) if loads else 0.0
    return out
