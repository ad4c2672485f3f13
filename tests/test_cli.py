import contextlib
import io
import json
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hwsched as hw
from hwsched import cli, hjb, sde
from hwsched.cli import main
from conftest import n_model, nmodel_cost, single_class_fixture, smooth_control_path, tree3_model

MODELS = Path(__file__).resolve().parents[1] / "models"
NM_DOC = json.loads((MODELS / "n_model.json").read_text())
# n_model with its last edge's class out of range, and with an overflowing cost exponent
NM_EDGE_7 = {**NM_DOC, "edges": [*NM_DOC["edges"][:-1], {**NM_DOC["edges"][-1], "class": 7}]}
NM_P_1E308 = {**NM_DOC, "cost": {**NM_DOC["cost"], "p": 1e308}}


@pytest.fixture
def n_model_file(tmp_path):
    path = tmp_path / "nmodel.json"
    hw.save_model(path, n_model(), nmodel_cost())
    return path


@pytest.fixture
def single_file(tmp_path):
    model, cost = single_class_fixture()
    path = tmp_path / "single.json"
    hw.save_model(path, model, cost)
    return path


def run(*argv):
    return main([str(a) for a in argv])


def test_validate_ok(n_model_file, tmp_path):
    out = tmp_path / "out"
    assert run("validate", "--model", n_model_file, "--out", out) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] and report["diameter"] == 3
    assert report["cases"] == ["ii"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "validate"
    assert "numpy" in manifest["versions"]


def test_validate_invalid_model_exits_one(tmp_path):
    mu = np.array([[1.0, 2.0], [1.0, 2.0]])
    psi = np.full((2, 2), 0.25)
    lam, nu, xs = hw.fluid_from_flows(mu, psi)
    bad = hw.TreeModel(classes=2, stations=2, edges=((0, 0), (0, 1), (1, 0), (1, 1)),
                       mu=mu, theta=[0, 0], ell=[0, 0], r=[1, 1], gamma=1.0,
                       lam=lam, nu=nu, x_star=xs, psi_star=psi)
    path = tmp_path / "bad.json"
    hw.save_model(path, bad)
    assert run("validate", "--model", path, "--out", tmp_path / "o") == 1


def test_missing_model_exits_two(tmp_path):
    assert run("validate", "--model", tmp_path / "nope.json", "--out", tmp_path / "o") == 2


def test_garbage_model_exits_two(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run("validate", "--model", bad, "--out", tmp_path / "o") == 2


def test_simulate_deterministic_csv(n_model_file, tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    args = ("simulate", "--model", n_model_file, "--policy", "static:0,0",
            "--horizon", "0.5", "--dt", "0.005", "--seed", "9")
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert (a / "path.csv").read_bytes() == (b / "path.csv").read_bytes()


def test_simulate_moment_csv(single_file, tmp_path):
    out = tmp_path / "m"
    assert run("simulate", "--model", single_file, "--horizon", "2", "--dt", "0.01",
               "--paths", "200", "--moments", "0.5,1,2", "--out", out) == 0
    rows = (out / "moments.csv").read_text().strip().splitlines()
    assert rows[0] == "t,moment2,stderr"
    assert len(rows) == 4


def test_one_path_reports_no_stderr(tmp_path, capsys):
    # one path gives no estimate of the error: NaN, written as null
    out = tmp_path / "ev"
    assert run("evaluate-policy", "--model", MODELS / "n_model.json", "--paths", "1",
               "--horizon", "0.1", "--out", out) == 0
    cost = json.loads((out / "cost.json").read_text())
    assert cost["mean"] > 0 and cost["stderr"] is None
    assert "+/- nan" in capsys.readouterr().out
    assert run("simulate", "--model", MODELS / "n_model.json", "--horizon", "0.1",
               "--paths", "1", "--moments", "0.05,0.1", "--out", out) == 0
    rows = (out / "moments.csv").read_text().strip().splitlines()[1:]
    assert [row.split(",")[2] for row in rows] == ["nan", "nan"]


def test_hjb_pipeline(single_file, tmp_path):
    solve_out = tmp_path / "solve"
    assert run("solve-hjb", "--model", single_file, "--points", "81",
               "--boundary", "extrapolate", "--out", solve_out) == 0
    report = json.loads((solve_out / "solve.json").read_text())
    assert report["converged"]

    pol_out = tmp_path / "pol"
    assert run("extract-policy", "--model", single_file,
               "--value", solve_out / "value.field", "--out", pol_out) == 0

    ev_out = tmp_path / "ev"
    assert run("evaluate-policy", "--model", single_file,
               "--policy", pol_out / "policy.field", "--x0", "0",
               "--paths", "500", "--dt", "0.005", "--out", ev_out) == 0
    cost = json.loads((ev_out / "cost.json").read_text())
    assert cost["mean"] > 0 and cost["stderr"] > 0


def test_solve_hjb_converges_at_cli_defaults(tmp_path):
    out = tmp_path / "solve"
    assert run("solve-hjb", "--model", MODELS / "n_model.json",
               "--boundary", "extrapolate", "--out", out) == 0
    report = json.loads((out / "solve.json").read_text())
    assert report["converged"] is True
    assert len(report["history"]) == report["iterations"]
    assert report["history"][-1]["policy_changes"] == 0
    assert report["history"][-1]["sup_update"] <= 1e-8


def test_static_mc_boundary_is_data_the_cli_simulates(tmp_path):
    out = tmp_path / "solve"
    assert run("solve-hjb", "--model", MODELS / "n_model.json", "--points", "11",
               "--radius", "4.5", "--boundary", "static-mc", "--boundary-paths", "5",
               "--seed", "2", "--out", out) == 0
    model, cost = hw.load_model(MODELS / "n_model.json")
    grid = hw.default_grid(model, 11, 4.5)
    boundary = hjb._boundary_values_mc(model, cost, grid, 5, seed=2)
    hw.save_field(hw.solve_hjb(model, cost, grid, boundary=boundary).value, model,
                  tmp_path / "value.field")
    assert (out / "value.field").read_bytes() == (tmp_path / "value.field").read_bytes()
    assert json.loads((out / "solve.json").read_text())["boundary"] == "static-mc"


def test_solve_hjb_checks_the_point_cap_before_simulating(tmp_path, capsys, monkeypatch):
    """Four classes solve; a grid of more than ``hjb.MAX_GRID_POINTS`` points
    (32^4 = 1 048 576) exits 2 before any boundary data is simulated."""
    mu = np.array([[1.0, 0.0, 0.0], [2.0, 3.0, 0.0], [0.0, 1.5, 1.0], [0.0, 0.0, 2.0]])
    psi_star = np.where(mu > 0, 0.5, 0.0)
    lam, nu, x_star = hw.fluid_from_flows(mu, psi_star)
    model = hw.TreeModel(
        classes=4, stations=3, edges=((0, 0), (1, 0), (1, 1), (2, 1), (2, 2), (3, 2)), mu=mu,
        theta=[0.5] * 4, ell=[0.0] * 4, r=[1.0] * 4, gamma=1.0,
        lam=lam, nu=nu, x_star=x_star, psi_star=psi_star)
    path = tmp_path / "four.json"
    hw.save_model(path, model, hw.RunningCostSpec(c=[1.0] * 4, d=[1.0] * 3))

    def no_simulation(*args, **kwargs):
        raise AssertionError("the boundary data was simulated before the point count was checked")

    monkeypatch.setattr(hjb, "_boundary_values_mc", no_simulation)
    assert run("solve-hjb", "--model", path, "--points", "32", "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "more than 1e+06 points" in err
    out = tmp_path / "solve"
    assert run("solve-hjb", "--model", path, "--points", "5", "--boundary", "extrapolate",
               "--out", out) == 0
    assert json.loads((out / "solve.json").read_text())["converged"] is True


def test_static_mc_grid_is_checked_before_simulating(tmp_path, capsys):
    """A spacing the solver refuses is refused before the static-mc boundary
    is simulated from points where the paths overflow: exit 2 naming the
    spacing, and no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("solve-hjb", "--model", MODELS / "n_model.json", "--points", "5",
                   "--radius", "1e300", "--boundary-paths", "2", "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: grid spacing") and err.count("\n") == 1


def test_solve_tolerance_is_relative_to_the_value(tmp_path):
    """On a box of radius 1e150 the value is of that order, so the last
    Bellman residual, about 1e134, is rounding: the solve converges."""
    out = tmp_path / "o"
    assert run("solve-hjb", "--model", MODELS / "n_model.json", "--points", "5",
               "--boundary", "extrapolate", "--radius", "1e150", "--out", out) == 0
    doc = json.loads((out / "solve.json").read_text())
    assert doc["converged"] is True and doc["sup_update"] > 1e100


def test_solve_json_is_strict_json_on_small_grids(tmp_path):
    # on 4 points the interior residual is not measured (NaN), which must
    # be written as null
    out = tmp_path / "solve"
    run("solve-hjb", "--model", MODELS / "n_model.json", "--points", "4",
        "--boundary", "extrapolate", "--out", out)

    def reject(token):
        raise ValueError(f"not JSON: {token}")

    report = json.loads((out / "solve.json").read_text(), parse_constant=reject)
    assert report["interior_residual"] is None


def test_extract_policy_wrong_kind(single_file, tmp_path):
    solve_out = tmp_path / "s"
    run("solve-hjb", "--model", single_file, "--points", "41",
        "--boundary", "extrapolate", "--out", solve_out)
    pol_out = tmp_path / "p"
    run("extract-policy", "--model", single_file, "--value", solve_out / "value.field",
        "--out", pol_out)
    assert run("extract-policy", "--model", single_file,
               "--value", pol_out / "policy.field", "--out", tmp_path / "q") == 2


def test_det_run_and_nonidling(n_model_file, tmp_path):
    out = tmp_path / "det"
    assert run("det-run", "--model", n_model_file, "--policy", "random",
               "--horizon", "1", "--out", out) == 0
    assert (out / "trajectory.csv").exists()

    nid = tmp_path / "nid"
    assert run("nonidling-check", "--model", n_model_file, "--runs", "3",
               "--horizon", "1", "--out", nid) == 0
    doc = json.loads((nid / "nonidling.json").read_text())
    assert doc["pass"] and doc["max_idleness"] <= 1e-8


@pytest.mark.parametrize("spec, point", [
    ("uniform", hw.ControlPoint.uniform(2, 2)),
    ("static:1,0", hw.ControlPoint.vertex(1, 0, 2, 2)),
])
def test_det_run_constant_controls(n_model_file, tmp_path, spec, point):
    """``det-run`` under a constant control writes the trajectory that
    ``integrate_det`` gives on the default driver ``1 + t``."""
    out = tmp_path / "det"
    assert run("det-run", "--model", n_model_file, "--policy", spec, "--horizon", "0.5",
               "--dt", "0.01", "--out", out) == 0
    t = 0.01 * np.arange(51)
    want = hw.integrate_det(n_model(), 1.0 + t[:, None] * np.ones(2),
                            hw.ControlPath.constant(point, 51, 0.01))
    want.to_csv(tmp_path / "want.csv")
    assert (out / "trajectory.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_switch_policy_runs_match_the_api(n_model_file, tmp_path):
    """``switch:0.25`` in ``simulate`` and ``evaluate-policy`` is the
    ``SwitchingControl`` of the run's horizon and seed."""
    model, cost = n_model(), nmodel_cost()
    sim, ev = tmp_path / "sim", tmp_path / "ev"
    assert run("simulate", "--model", n_model_file, "--policy", "switch:0.25", "--horizon", "1",
               "--dt", "0.01", "--seed", "3", "--out", sim) == 0
    path = hw.simulate_path(model, np.zeros(2), hw.SwitchingControl(model, 0.25, 1.0, seed=3),
                            1.0, 0.01, seed=3)
    path.to_csv(tmp_path / "want.csv")
    assert (sim / "path.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()
    assert run("evaluate-policy", "--model", n_model_file, "--policy", "switch:0.25",
               "--horizon", "2", "--dt", "0.01", "--paths", "50", "--seed", "3",
               "--out", ev) == 0
    est = hw.mc_cost(model, cost, np.zeros(2), hw.SwitchingControl(model, 0.25, 2.0, seed=3), 50,
                     horizon=2.0, dt=0.01, seed=3)
    doc = json.loads((ev / "cost.json").read_text())
    assert (doc["mean"], doc["stderr"]) == (est.mean, est.stderr)


def test_simulate_sizes_a_switch_policy_by_its_last_moment_time(n_model_file, tmp_path,
                                                                monkeypatch):
    """Moment times past ``--horizon`` run under the slots of their own
    times, not under the last slot of the horizon."""
    seen = []
    curve = sde.moment_curve

    def spy(model, policy, *args, **kwargs):
        seen.append(policy)
        return curve(model, policy, *args, **kwargs)

    monkeypatch.setattr(sde, "moment_curve", spy)
    assert run("simulate", "--model", n_model_file, "--policy", "switch:0.5", "--horizon", "1",
               "--dt", "0.01", "--moments", "1.6,3,8", "--paths", "10",
               "--out", tmp_path / "m") == 0
    (policy,) = seen
    assert [policy.index(None, t) for t in (1.6, 3.0, 8.0)] == [3, 6, 16]
    want = hw.SwitchingControl(n_model(), 0.5, 8.0, seed=0).table
    assert all(a.tobytes() == b.tobytes() for a, b in zip(policy.table, want))


def test_counterexample_exit_codes(tmp_path):
    out = tmp_path / "ce"
    assert run("counterexample", "--k", "10", "--horizon", "2", "--out", out) == 0
    doc = json.loads((out / "counterexample.json").read_text())
    assert doc["max_residual"] <= 1e-8
    assert doc["sup_state_norm"] > 9.0
    # an absurd tolerance flips the check result
    assert run("counterexample", "--k", "10", "--horizon", "2", "--tol", "1e-30",
               "--out", tmp_path / "ce2") == 1


def test_integral_residual_artifacts(n_model_file, tmp_path):
    out = tmp_path / "ir"
    assert run("integral-residual", "--model", n_model_file, "--horizon", "0.5",
               "--out", out) == 0
    seqs = json.loads((out / "sequences.json").read_text())
    assert seqs["root"] == 0
    doc = json.loads((out / "residual.json").read_text())
    assert doc["pass"]


FIELD_FILES = ("NM_VALUE", "NM_POLICY", "NO_GRID", "SHORT", "BAD_COLUMNS")


def _field_files(model_file, tmp_path):
    """n_model value and policy fields on a 5 x 5 grid, and broken copies:
    no grid in the header, a missing row, and 3 u columns with 1 v column."""
    model, cost = hw.load_model(model_file)
    sol = hw.solve_hjb(model, cost, hw.default_grid(model, 5), boundary="extrapolate")
    files = {name: tmp_path / f"{name}.field" for name in FIELD_FILES}
    hw.save_field(sol.value, model, files["NM_VALUE"])
    hw.save_field(hw.extract_policy(sol.value, model, cost), model, files["NM_POLICY"])
    header, *rows = files["NM_POLICY"].read_text().splitlines()
    doc = json.loads(header)
    for name, head, body in (
        ("NO_GRID", {k: v for k, v in doc.items() if k != "grid"}, rows),
        ("SHORT", doc, rows[:-1]),
        ("BAD_COLUMNS", {**doc, "columns": ["u0", "u1", "u2", "v0"]}, rows),
    ):
        files[name].write_text("\n".join([json.dumps(head), *body]) + "\n")
    return files


@pytest.mark.parametrize("argv", [
    ("det-run", "--policy", "static:a,b"),
    ("det-run", "--policy", "static:0,7"),
    ("simulate", "--policy", "switch:a", "--horizon", "0.1"),
    ("simulate", "--policy", "switch:0", "--horizon", "0.1"),
    ("prelimit", "--rule", "static:zz", "--reps", "2"),
    ("compare", "--rule", "static:zz", "--reps", "2", "--paths", "2"),
    ("solve-hjb", "--points", "2"),
    ("simulate", "--dt", "0"),
    ("prelimit", "--n", "0"),
    ("det-run", "--dt", "0"),
    ("simulate", "--config", "DT0_CONFIG"),
    ("nonidling-check", "--dt", "0"),
    ("integral-residual", "--dt", "0"),
    ("counterexample", "--dt", "0"),
    ("evaluate-policy", "--dt", "0"),
    ("evaluate-policy", "--paths", "0"),
    ("simulate", "--moments", "-1"),
    ("compare", "--threads", "0"),
    ("evaluate-policy", "--config", {"paths": 2.5}),
    ("evaluate-policy", "--config", {"dt": "x"}),
    ("evaluate-policy", "--config", {"threads": True}),
    ("solve-hjb", "--points", "3", "--boundary", "extrapolate"),
    ("evaluate-policy", "--policy", "NM_POLICY", "--model", MODELS / "single_class.json"),
    ("extract-policy", "--value", "NM_VALUE", "--model", MODELS / "single_class.json"),
    ("extract-policy", "--value", "NO_GRID"),
    ("evaluate-policy", "--policy", "SHORT", "--paths", "2"),
    ("evaluate-policy", "--policy", "BAD_COLUMNS", "--paths", "2"),
    ("solve-hjb", "--radius", "0"),
    ("solve-hjb", "--radius", "-2"),
    ("solve-hjb", "--radius", "nan"),
    ("solve-hjb", "--radius", "inf"),
    ("solve-hjb", "--tol", "0"),
    ("solve-hjb", "--tol", "-1"),
    ("solve-hjb", "--tol", "nan"),
    ("solve-hjb", "--tol", "inf"),
    ("solve-hjb", "--config", {"radius": 0}),
    ("compare", "--reps", "1", "--paths", "2"),
    ("compare", "--reps", "2", "--paths", "1"),
    ("compare", "--config", {"reps": 1}),
    ("counterexample", "--k", "-1"),
    ("counterexample", "--k", "nan"),
    ("counterexample", "--k", "inf"),
    ("integral-residual", "--horizon", "1e-4"),
    ("simulate", "--moments", "nan", "--horizon", "0.1"),
    ("simulate", "--x0", "nan,0", "--horizon", "0.1"),
    ("compare", "--x0", "nan", "--reps", "2", "--paths", "2", "--model", MODELS / "single_class.json"),
    ("det-run", "--w0", "inf,1"),
    ("prelimit", "--horizon", "inf", "--reps", "2"),
    ("simulate", "--dt", "inf"),
    ("simulate", "--config", {"horizon": float("inf")}),
    ("compare", "--z-max", "nan", "--reps", "2", "--paths", "2"),
    ("compare", "--z-max", "inf", "--reps", "2", "--paths", "2"),
    ("simulate", "--seed", "-1"),
    ("simulate", "--config", {"seed": -1}),
    ("nonidling-check", "--tol", "nan"),
    ("counterexample", "--tol", "-1"),
    ("integral-residual", "--tol", "0"),
    ("simulate", "--dt", "x"),
    ("simulate", "--dt", "5", "--horizon", "1"),
    ("evaluate-policy", "--dt", "5", "--horizon", "1", "--paths", "2"),
    ("compare", "--dt", "5", "--reps", "2", "--paths", "2"),
    ("det-run", "--horizon", "1e300", "--dt", "1e-300"),
    ("det-run", "--horizon", "1e12"),
    ("validate", "--threads", "2"),
    ("extract-policy", "--threads", "2", "--value", "NM_VALUE"),
    ("det-run", "--threads", "2"),
    ("nonidling-check", "--threads", "2"),
    ("counterexample", "--threads", "2"),
    ("integral-residual", "--threads", "2"),
    ("prelimit", "--threads", "2"),
    ("validate", "--config", {"threads": 2}),
    ("extract-policy", "--config", {"threads": 2}, "--value", "NM_VALUE"),
    ("det-run", "--config", {"threads": 2}),
    ("nonidling-check", "--config", {"threads": 2}),
    ("counterexample", "--config", {"threads": 2}),
    ("integral-residual", "--config", {"threads": 2}),
    ("prelimit", "--config", {"threads": 2}),
    ("simulate", "--moments", "1e5", "--horizon", "0.1"),
    ("solve-hjb", "--points", "1001"),
    ("solve-hjb", "--points", "3000000", "--boundary", "extrapolate"),
    ("simulate", "--policy", "switch:1e-9", "--horizon", "1"),
    ("simulate", "--policy", "switch:1e-300", "--horizon", "1"),
    ("evaluate-policy", "--policy", "switch:1e-9", "--horizon", "1", "--paths", "2"),
    ("prelimit", "--rule", "greedy", "--reps", "2"),
    ("compare", "--rule", "greedy", "--reps", "2", "--paths", "2"),
    ("det-run", "--policy", "switch:0.5"),
    ("counterexample", "--horizon", "1e-4"),
    ("counterexample", "--horizon", "1e12"),
    ("prelimit", "--samples", "100000000000000000000"),
    ("prelimit", "--reps", "100000000000000000000"),
    ("prelimit", "--reps", "100001"),
    ("compare", "--reps", "100000000000000000000"),
    ("compare", "--paths", "100000000000000000000"),
    ("compare", "--paths", "3400000"),
    ("solve-hjb", "--points", "5", "--boundary", "extrapolate", "--radius", "1e-300"),
    ("solve-hjb", "--points", "5", "--boundary", "extrapolate", "--radius", "1e300"),
    ("solve-hjb", "--points", "5", "--boundary", "extrapolate", "--radius", "1e-8"),
    ("solve-hjb", "--points", "5", "--boundary", "extrapolate", "--model", NM_P_1E308),
    ("solve-hjb", "--points", "2097153", "--boundary", "extrapolate",
     "--model", MODELS / "tree4.json"),
    ("solve-hjb", "--points", "100000000000000000000", "--boundary", "extrapolate"),
    ("prelimit", "--n", "10000000000", "--reps", "2"),
    ("compare", "--n", "10000000000", "--reps", "2", "--paths", "2"),
])
def test_bad_spec_exits_two(n_model_file, tmp_path, capsys, argv):
    config = tmp_path / "dt0.json"
    config.write_text(json.dumps({"dt": 0}))
    argv = [config if a == "DT0_CONFIG" else a for a in argv]
    for k, a in enumerate(argv):
        if isinstance(a, dict):
            argv[k] = tmp_path / "config.json"
            argv[k].write_text(json.dumps(a))
    if any(a in FIELD_FILES for a in argv):
        files = _field_files(n_model_file, tmp_path)
        argv = [files.get(a, a) for a in argv]
    model = [] if argv[0] == "counterexample" or "--model" in argv else ["--model", n_model_file]
    assert run(*argv, *model, "--out", tmp_path / "o") == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("u_row", [(2.0, -1.0), (np.nan, 1.0)])
@pytest.mark.parametrize("command", ["evaluate-policy", "simulate"])
def test_policy_file_off_the_simplex_exits_two(n_model_file, tmp_path, capsys, command, u_row):
    """A policy file whose rows are not probability vectors (off the simplex,
    or NaN) is rejected when it is read, naming the file."""
    model, _ = hw.load_model(n_model_file)
    grid = hw.default_grid(model, 5)
    path = tmp_path / "bad.field"
    hw.save_field(hjb.PolicyField(grid, np.tile(u_row, (grid.size, 1)),
                                  np.full((grid.size, 2), 0.5)), model, path)
    assert run(command, "--model", n_model_file, "--policy", path, "--paths", "50",
               "--horizon", "1", "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(path) in err


@pytest.mark.parametrize("command, text", [
    ("solve-hjb", None),
    ("solve-hjb", '{"tol": 1e-6'),
    ("solve-hjb", "[1, 2]"),
    ("solve-hjb", '{"boundary": "foo"}'),
    ("solve-hjb", '{"no_such_option": 1}'),
    ("validate", '{"threads": 2}'),
    ("simulate", '{"x0": null}'),
    ("integral-residual", '{"tol": null}'),
])
def test_config_errors_name_the_file(tmp_path, capsys, command, text):
    """A missing or malformed config, a null value, a value its option
    rejects and a key no option of the command has all exit 2 naming the file."""
    cfg = tmp_path / "cfg.json"
    if text is not None:
        cfg.write_text(text)
    assert run(command, "--config", cfg, "--out", tmp_path / "o") == 2
    assert str(cfg) in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (("validate",), "--model is required"),
    (("simulate", "--x0", "1,2,3", "--model", "NM"), "--x0 needs 2 comma-separated numbers"),
    (("evaluate-policy", "--policy", "NOPE", "--model", "NM"), "policy file not found"),
    (("extract-policy", "--model", "NM"), "--value must point to a value field file"),
    (("solve-hjb", "--model", "NO_COST"), "a cost spec is required"),
    (("evaluate-policy", "--model", "LONG_COST"), "queue weights need 2 entries, got 3"),
])
def test_bad_input_says_what_is_wrong(n_model_file, tmp_path, capsys, argv, message):
    files = {"NM": n_model_file, "NOPE": tmp_path / "nope.field",
             "NO_COST": tmp_path / "no_cost.json", "LONG_COST": tmp_path / "long_cost.json"}
    hw.save_model(files["NO_COST"], n_model())
    hw.save_model(files["LONG_COST"], n_model(), hw.RunningCostSpec(c=[3.0, 1.0, 1.0], d=[1.0, 2.0]))
    argv = [files.get(a, a) for a in argv]
    assert run(*argv, "--out", tmp_path / "o") == 2
    assert message in capsys.readouterr().err


def test_field_of_another_model_warns(n_model_file, tmp_path, capsys):
    files = _field_files(n_model_file, tmp_path)
    other = tmp_path / "other.json"
    hw.save_model(other, n_model(mu=(1.0, 2.0, 4.0)), nmodel_cost())
    assert run("evaluate-policy", "--model", other, "--policy", files["NM_POLICY"],
               "--paths", "2", "--horizon", "0.1", "--out", tmp_path / "o") == 0
    assert "was built for a different model" in capsys.readouterr().err
    assert run("evaluate-policy", "--model", n_model_file, "--policy", files["NM_POLICY"],
               "--paths", "2", "--horizon", "0.1", "--out", tmp_path / "o") == 0
    assert "different model" not in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("lambda", [5.0, 5.0]), ("gamma", -1.0),
                                        ("gamma", float("nan")), ("theta", [float("nan"), 0.0]),
                                        ("r", [float("inf"), 1.0])])
def test_invalid_model_exits_two_outside_validate(tmp_path, capsys, key, value):
    doc = json.loads((MODELS / "n_model.json").read_text())
    doc[key] = value
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    # small sizes keep a regression short; each command should stop at load
    for argv in (("simulate", "--horizon", "0.1"), ("evaluate-policy", "--paths", "2"),
                 ("solve-hjb", "--points", "5", "--boundary", "extrapolate")):
        assert run(*argv, "--model", path, "--out", tmp_path / argv[0]) == 2
        assert "invalid model" in capsys.readouterr().err
    assert run("validate", "--model", path, "--out", tmp_path / "v") == 1


@pytest.mark.parametrize("doc", [[NM_DOC], NM_EDGE_7,
                                 {**NM_DOC, "edges": [{"class": 0, "station": -1, "mu": 1.0}]}],
                         ids=["array", "class_7", "station_-1"])
@pytest.mark.parametrize("argv", [("validate",), ("evaluate-policy", "--paths", "2"),
                                  ("solve-hjb", "--points", "5", "--boundary", "extrapolate"),
                                  ("prelimit", "--reps", "2"), ("det-run",),
                                  ("integral-residual",)])
def test_malformed_model_file_exits_two(tmp_path, capsys, doc, argv):
    """A model document that is not a JSON object, or whose edge indices are
    out of range, cannot be read: every command exits 2, validate too."""
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert run(*argv, "--model", path, "--out", tmp_path / "o") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot parse model file") and err.count("\n") == 1


def test_invalid_cost_spec_exits_two_outside_validate(tmp_path, capsys):
    finite = "weights, exponents and offset must be finite"
    for key, value, violation in (("c", [-1.0, 1.0], "queue weights must be nonnegative"),
                                  ("c", [float("nan"), 1.0], finite),
                                  ("p", float("nan"), finite),
                                  ("d", [float("inf"), 1.0], finite)):
        doc = json.loads((MODELS / "n_model.json").read_text())
        doc["cost"][key] = value
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        for argv in (("evaluate-policy", "--paths", "2"),
                     ("solve-hjb", "--points", "5", "--boundary", "extrapolate")):
            assert run(*argv, "--model", path, "--out", tmp_path / argv[0]) == 2
            assert violation in capsys.readouterr().err
        assert run("validate", "--model", path, "--out", tmp_path / "v") == 1
        report = json.loads((tmp_path / "v" / "report.json").read_text())
        assert not report["ok"]
        assert report["violations"] == [f"cost spec: {violation}"]


def test_prelimit_and_compare(single_file, tmp_path):
    pre = tmp_path / "pre"
    assert run("prelimit", "--model", single_file, "--n", "25", "--reps", "40",
               "--horizon", "0.5", "--out", pre) == 0
    rows = (pre / "prelimit.csv").read_text().strip().splitlines()
    assert rows[0].startswith("rep,t,xhat0")
    assert len(rows) == 1 + 40 * 3

    cmp_out = tmp_path / "cmp"
    assert run("compare", "--model", single_file, "--n", "64", "--reps", "300",
               "--paths", "2000", "--dt", "0.005", "--horizon", "0.5",
               "--out", cmp_out) == 0
    doc = json.loads((cmp_out / "compare.json").read_text())
    assert doc["pass"]


def test_prelimit_and_compare_track_rule(single_file, tmp_path):
    pre = tmp_path / "pre"
    assert run("prelimit", "--model", single_file, "--rule", "track", "--n", "25", "--reps", "40",
               "--horizon", "0.5", "--out", pre) == 0
    rows = (pre / "prelimit.csv").read_text().strip().splitlines()
    assert len(rows) == 1 + 40 * 3

    cmp_out = tmp_path / "cmp"
    assert run("compare", "--model", single_file, "--rule", "track", "--n", "64", "--reps", "300",
               "--paths", "2000", "--dt", "0.005", "--horizon", "0.5", "--out", cmp_out) == 0
    assert json.loads((cmp_out / "compare.json").read_text())["pass"]


def test_config_file_defaults(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 7.0, "horizon": 2.0}))
    out = tmp_path / "out"
    assert run("counterexample", "--config", cfg, "--out", out) == 0
    doc = json.loads((out / "counterexample.json").read_text())
    assert doc["k"] == 7.0
    # explicit flags beat the config
    out2 = tmp_path / "out2"
    assert run("counterexample", "--config", cfg, "--k", "2", "--out", out2) == 0
    assert json.loads((out2 / "counterexample.json").read_text())["k"] == 2.0


def test_flag_with_equals_beats_the_config(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 2.0}))
    out = tmp_path / "out"
    assert run("counterexample", "--config", cfg, "--horizon=3", "--out", out) == 0
    assert json.loads((out / "manifest.json").read_text())["parameters"]["horizon"] == 3.0
    # a config key spelled with an underscore names the option of a dashed flag
    cfg.write_text(json.dumps({"z_max": 2.0}))
    parser = cli._build_parser()
    argv = ["compare", "--config", str(cfg), "--z-max", "5"]
    assert cli._merge_config(parser, parser.parse_args(argv), argv).z_max == 5.0


def test_abbreviated_flag_exits_two(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"horizon": 2.0}))
    assert run("counterexample", "--config", cfg, "--hor", "3", "--out", tmp_path / "o") == 2
    assert "--hor" in capsys.readouterr().err


def test_every_numeric_option_has_a_range():
    # a bare int or float type, or a numeric default with no type, would let
    # any number through
    for name, sub in cli._build_parser().subcommands.items():
        for action in sub._actions:
            assert action.type not in (int, float), (name, action.dest)
            assert action.type or not isinstance(action.default, (int, float)), (name, action.dest)


def test_unknown_config_key_exits_two(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_option": 1}))
    assert run("counterexample", "--config", cfg, "--out", tmp_path / "o") == 2


def test_parser_is_built_once_and_parses_like_a_fresh_one(tmp_path, monkeypatch):
    """``main`` reuses one parser per process; options given to one call,
    or read from a config, never leak into the next call's options."""
    seen = []
    monkeypatch.setattr(cli, "HANDLERS", {name: lambda args, out: seen.append(vars(args)) or True
                                          for name in cli.HANDLERS})
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"k": 7.0}))
    calls = [["simulate", "--dt", "0.01", "--paths", "5", "--policy", "static:1,0"],
             ["counterexample", "--config", cfg, "--horizon", "2"],
             ["simulate"], ["counterexample"]]
    for k, argv in enumerate(calls):
        assert run(*argv, "--out", tmp_path / f"o{k}") == 0
    assert cli._build_parser() is cli._build_parser()
    for argv, got in zip(calls, seen):
        argv = [str(a) for a in argv] + ["--out", str(got["out"])]
        fresh = cli._build_parser.__wrapped__()
        want = vars(cli._merge_config(fresh, fresh.parse_args(argv), argv))
        assert got == want
    assert seen[2]["dt"] == 1e-3 and seen[2]["paths"] == 1000 and seen[2]["policy"] == "uniform"
    assert seen[1]["k"] == 7.0 and seen[3]["k"] == 1.0 and seen[3]["horizon"] == 5.0


@pytest.mark.parametrize("model", [n_model(), single_class_fixture()[0], tree3_model()[0]],
                         ids=["n_model", "single_class", "tree3"])
def test_smooth_controls_match_pointwise_sampling(model):
    for seed in (0, 1, 17):
        for n, dt in ((1, 1e-3), (9, 0.25), (2001, 1e-3)):
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = cli._smooth_controls(model, n, dt, rng_got)
            want = smooth_control_path(rng_want, model, n, dt)
            assert got.dt == want.dt
            assert got.u.tobytes() == want.u.tobytes() and got.v.tobytes() == want.v.tobytes()
            # nonidling-check draws its runs' controls from one generator
            assert rng_got.random() == rng_want.random()


# values that no option may let through unchecked
HOSTILE = ["nan", "inf", "-inf", "0", "-1", "1e-300", "1e300", "", "x", "1,2,3"]
# policy and rule specs of the right shape with bad parts
HOSTILE_SPECS = ["switch:0", "switch:1e-300", "switch:nan", "switch:1e300", "static:9,9",
                 "static:x", "track"]
# small work, so that an accepted run ends at once
SMALL = {"--paths": "4", "--horizon": "0.05", "--dt": "0.01", "--reps": "2", "--points": "5",
         "--boundary": "extrapolate", "--boundary-paths": "4"}
# the work sizes; only those whose limit is checked before anything is
# allocated take sizes far past it.  prelimit's and compare's --horizon and
# --dt take none: together they bound the pre-limit event loop's time, which
# no limit checks
SIZES = {"--paths", "--reps", "--samples", "--n", "--points", "--horizon", "--dt", "--runs",
         "--boundary-paths", "--threads"}
CHECKED_SIZES = {"--n", "--reps", "--samples", "--points", "--horizon", "--dt"}
HUGE = ["1e300", "100000000000000000000"]


def _options(command):
    parser = cli._build_parser().subcommands[command]
    return sorted(a.option_strings[0] for a in parser._actions if a.option_strings)


def _values(command, flag):
    if flag in ("--policy", "--rule"):
        return HOSTILE + HOSTILE_SPECS
    if flag not in SIZES:
        return HOSTILE
    small = [v for v in HOSTILE if v not in HUGE]
    if flag in CHECKED_SIZES and not (flag in ("--horizon", "--dt")
                                      and command in ("prelimit", "compare")):
        return small + HUGE
    return small


@st.composite
def _hostile_call(draw):
    command = draw(st.sampled_from(sorted(cli.HANDLERS)))
    options = _options(command)
    free = [o for o in options if o not in ("-h", "--config", "--out", "--model")]
    flags = draw(st.lists(st.sampled_from(free), min_size=1, max_size=3, unique=True))
    argv = [command]
    for flag in free:
        if flag in flags:
            argv += [flag, draw(st.sampled_from(_values(command, flag)))]
        elif flag in SMALL:
            argv += [flag, SMALL[flag]]
    if "--model" in options:
        argv += ["--model", str(MODELS / "n_model.json")]
    return argv


@settings(max_examples=1000, derandomize=True, deadline=None, database=None)
@given(argv=_hostile_call())
# the escapes this test found, kept whatever it draws
@example(argv=["nonidling-check", "--dt", "1e-300", "--horizon", "1e-300",
               "--model", str(MODELS / "n_model.json")])
@example(argv=["integral-residual", "--dt", "1e300", "--horizon", "1e300",
               "--model", str(MODELS / "n_model.json")])
def test_generated_bad_input_never_escapes(argv):
    """Calls built from the parser's own options, each with up to three
    values from a hostile pool and every other work size small: nothing
    raises out of ``cli.main``, no numpy ``RuntimeWarning`` is emitted, and
    an exit of 2 prints one ``error:`` line."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stderr(err):
        warnings.simplefilter("error", RuntimeWarning)
        code = main([*argv, "--out", str(Path(tmp) / "o")])
    assert code in (0, 1, 2), argv
    if code == 2:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
