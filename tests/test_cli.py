import json
from pathlib import Path

import numpy as np
import pytest

import hwsched as hw
from hwsched import cli
from hwsched.cli import main
from conftest import n_model, nmodel_cost, single_class_fixture, tree3_model

MODELS = Path(__file__).resolve().parents[1] / "models"


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


def reference_smooth_controls(model, n, dt, rng):
    """``cli._smooth_controls`` sampled one time point at a time."""
    I, J = model.classes, model.stations
    cu = rng.normal(0, 1, (I, 2))
    fu = rng.uniform(0.5, 2.0, (I, 2))
    cv = rng.normal(0, 1, (J, 2))
    fv = rng.uniform(0.5, 2.0, (J, 2))

    def fn(t):
        eu = np.exp(cu[:, 0] * np.sin(fu[:, 0] * t) + cu[:, 1] * np.cos(fu[:, 1] * t))
        ev = np.exp(cv[:, 0] * np.sin(fv[:, 0] * t) + cv[:, 1] * np.cos(fv[:, 1] * t))
        return eu / eu.sum(), ev / ev.sum()

    return hw.ControlPath.from_function(fn, n, dt)


@pytest.mark.parametrize("model", [n_model(), single_class_fixture()[0], tree3_model()[0]],
                         ids=["n_model", "single_class", "tree3"])
def test_smooth_controls_match_pointwise_sampling(model):
    for seed in (0, 1, 17):
        for n, dt in ((1, 1e-3), (9, 0.25), (2001, 1e-3)):
            rng_got, rng_want = np.random.default_rng(seed), np.random.default_rng(seed)
            got = cli._smooth_controls(model, n, dt, rng_got)
            want = reference_smooth_controls(model, n, dt, rng_want)
            assert got.dt == want.dt
            assert got.u.tobytes() == want.u.tobytes() and got.v.tobytes() == want.v.tobytes()
            # nonidling-check draws its runs' controls from one generator
            assert rng_got.random() == rng_want.random()
