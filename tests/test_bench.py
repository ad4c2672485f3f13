"""The parent-versus-change harness of tools/bench.py, on synthetic runs:
no subprocess, no git."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def runs_of(walls, **fields):
    """One side's runs: the given wall times, every other field the same."""
    return [dict(fields, wall_s=w) for w in walls]


def euler_run(sha):
    return {"costs_sha256": sha, "normals_per_step_us": 2.0, "normals_blocked_us": 0.5}


def test_euler_row(bench):
    case = bench.cases()["euler"]
    key = {"policy": "static_0_1", "paths": 200, "steps": 8000}
    runs = {"parent": runs_of([4.0, 1.0, 3.0, 2.0, 5.0], **euler_run("a")),
            "change": runs_of([2.5, 0.5, 1.5, 1.0, 2.0], **euler_run("a"))}
    row = bench.make_row(case, key, runs)
    assert row["policy"] == "static_0_1" and row["paths"] == 200 and row["steps"] == 8000
    assert row["parent"]["wall_s"] == [4.0, 1.0, 3.0, 2.0, 5.0]
    assert row["parent"]["median"] == {"wall_s": 3.0}
    assert row["parent"]["quartiles"] == {"wall_s": [2.0, 4.0]}
    assert row["change"]["median"] == {"wall_s": 1.5}
    assert row["change"]["quartiles"] == {"wall_s": [1.0, 2.0]}
    assert row["speedup"] == pytest.approx(2.0)
    assert row["wins"] == {"wall_s": 5}
    assert row["parent"]["path_steps_per_s"] == pytest.approx(200 * 8000 / 3.0)
    assert row["change"]["us_per_step"] == pytest.approx(1.5 / 8000 * 1e6)
    assert row["change"]["normals_blocked_us"] == 0.5
    assert row["same_cost_bytes"] is True
    runs["change"][3] = dict(runs["change"][3], costs_sha256="b")
    assert bench.make_row(case, key, runs)["same_cost_bytes"] is False


def test_hjb_row(bench):
    case = bench.cases()["hjb"]
    fields = {"iterations": 2, "converged": True, "solvers": ["spsolve", "spsolve"]}
    runs = {"parent": [dict(r, peak_rss_mb=m, solve_s=s, values=[1.0, 2.0, -4.0]) for r, m, s in
                       zip(runs_of([1.0, 3.0, 2.0], **fields), (80.0, 90.0, 85.0),
                           (0.5, 2.0, 1.0))],
            "change": [dict(r, peak_rss_mb=70.0, solve_s=s, values=[1.0, 2.5, -4.0])
                       for r, s in zip(runs_of([0.5, 1.0, 1.5], **fields), (0.25, 0.5, 1.5))]}
    row = bench.make_row(case, {"model": "n_model", "points": 121}, runs)
    assert row["parent"]["median_s"] == 2.0 and row["change"]["median_s"] == 1.0
    assert row["parent"]["quartiles"] == {"wall_s": [1.5, 2.5], "solve_s": [0.75, 1.5]}
    assert row["parent"]["solve_s"] == [0.5, 2.0, 1.0]
    assert row["change"]["median"] == {"wall_s": 1.0, "solve_s": 0.5}
    assert row["wins"] == {"wall_s": 3, "solve_s": 2}
    assert row["speedup"] == pytest.approx(2.0)
    assert row["parent"]["peak_rss_mb"] == 90.0
    assert row["change"]["solvers"] == ["spsolve", "spsolve"]
    assert row["value_rel_gap"] == pytest.approx(0.5 / 4.0)
    assert row["same_value_bytes"] is False
    for r in runs["change"]:
        r["values"] = [1.0, 2.0, -4.0]
    row = bench.make_row(case, {"model": "n_model", "points": 121}, runs)
    assert row["value_rel_gap"] == 0.0 and row["same_value_bytes"] is True
    # every run counts, where the gap reads the first run of each side only
    runs["change"][1]["values"] = [1.0, 2.0, -4.0 * (1 + 2**-52)]
    row = bench.make_row(case, {"model": "n_model", "points": 121}, runs)
    assert row["value_rel_gap"] == 0.0 and row["same_value_bytes"] is False


def test_prelimit_row(bench):
    case = bench.cases()["prelimit"]
    runs = {"parent": runs_of([2.0, 1.0, 3.0], events=100),
            "change": runs_of([1.0, 2.0, 0.5], events=120)}
    row = bench.make_row(case, {"rule": "greedy_0_1", "reps": 5}, runs)
    assert row["parent"]["events"] == 100 and row["change"]["events"] == 120
    assert row["parent"]["events_per_s"] == pytest.approx(50.0)
    assert row["change"]["events_per_s"] == pytest.approx(120.0)
    # events per second, not wall time: the two sides count different events
    assert row["speedup"] == pytest.approx(2.4)
    assert row["wins"] == {"wall_s": 2}


def test_detsys_row(bench):
    case = bench.cases()["detsys"]
    key, repeats = case.workloads[0]
    assert key == {"model": "n_model", "steps": 2000} and len(repeats) == 9
    runs = {"parent": runs_of([0.04, 0.03, 0.05], values=[1.0, -2.0, 0.0]),
            "change": runs_of([0.01, 0.012, 0.008], values=[1.0, -2.5, 0.0])}
    row = bench.make_row(case, key, runs)
    assert row["parent"]["us_per_step"] == pytest.approx(0.04 / 2000 * 1e6)
    assert row["change"]["us_per_step"] == pytest.approx(0.01 / 2000 * 1e6)
    assert row["speedup"] == pytest.approx(4.0)
    assert row["wins"] == {"wall_s": 3}
    assert row["traj_rel_gap"] == 0.25


def test_cold_row(bench):
    case = bench.cases()["cold"]
    assert [key["command"] for key, _ in case.workloads] == list(bench.COLD_COMMANDS)
    assert len(bench.COLD_COMMANDS) == 10 and bench.COLD_REPEATS >= 5
    assert all(repeats == [(key["command"],)] * bench.COLD_REPEATS
               for key, repeats in case.workloads)
    runs = {"parent": [dict(r, peak_rss_mb=m, failed=0) for r, m in
                       zip(runs_of([0.7, 0.6, 0.8]), (84.0, 83.0, 85.0))],
            "change": [dict(r, peak_rss_mb=40.0, failed=int(k == 1)) for k, r in
                       enumerate(runs_of([0.3, 0.25, 0.35]))]}
    row = bench.make_row(case, {"command": "evaluate-policy"}, runs)
    assert row["command"] == "evaluate-policy"
    assert row["parent"]["median"] == {"wall_s": 0.7, "peak_rss_mb": 84.0}
    assert row["change"]["median"] == {"wall_s": 0.3, "peak_rss_mb": 40.0}
    assert row["speedup"] == pytest.approx(0.7 / 0.3)
    assert row["wins"] == {"wall_s": 3, "peak_rss_mb": 3}
    assert row["parent"]["failed"] == [0, 0, 0] and row["change"]["failed"] == [0, 1, 0]


def test_perfbench_row(bench):
    case = bench.cases()["perfbench"]
    key, repeats = case.workloads[0]
    assert [args[1] for args in repeats] == list(bench.SEEDS)
    parent = [{"wall_s": 1.0 + k, "setup_s": 0.5, "peak_rss_mb": 100.0, "correct": True,
               "failed": 0} for k in range(4)]
    change = [{"wall_s": 0.5 + k, "setup_s": 0.5 + k % 2, "peak_rss_mb": 99.0,
               "correct": k != 2, "failed": int(k == 2)} for k in range(4)]
    row = bench.make_row(case, key, {"parent": parent, "change": change})
    assert row["wins"] == {"wall_s": 4, "setup_s": 0, "peak_rss_mb": 4}
    assert row["parent"]["median"] == {"wall_s": 2.5, "setup_s": 0.5, "peak_rss_mb": 100.0}
    assert row["change"]["quartiles"]["wall_s"] == [1.25, 2.75]
    assert row["change"]["correct"] == [True, True, False, True]
    assert row["change"]["failed"] == [0, 0, 1, 0]


@pytest.mark.parametrize("name", ["euler", "hjb", "prelimit", "detsys", "perfbench", "cold"])
def test_sides_alternate_across_repeats(bench, name, capsys):
    calls = []

    def fake_measure(case, tree, args):
        calls.append((tree, tuple(args)))
        return {"wall_s": 1.0, "solve_s": 1.0, "setup_s": 1.0, "peak_rss_mb": 1.0, "correct": True,
                "failed": 0, "costs_sha256": "a", "normals_per_step_us": 1.0,
                "normals_blocked_us": 1.0, "iterations": 1, "converged": True,
                "solvers": ["spsolve"], "values": [1.0], "events": 1}

    def fake_warm_up(tree):
        calls.append((tree, "warm-up"))

    rows = bench.run_case(name, {"parent": "P", "change": "C"}, fake_measure, fake_warm_up)
    workloads = bench.cases()[name].workloads
    assert len(rows) == len(workloads)
    # each side is warmed up once, before any timed run
    assert calls[:2] == [("P", "warm-up"), ("C", "warm-up")]
    calls = calls[2:]
    assert ("P", "warm-up") not in calls and ("C", "warm-up") not in calls
    pairs = iter(zip(calls[::2], calls[1::2]))
    for key, repeats in workloads:
        for i, args in enumerate(repeats):
            first, second = next(pairs)
            assert (first[0], second[0]) == (("P", "C") if i % 2 == 0 else ("C", "P"))
            assert first[1] == second[1] == tuple(args)
    assert next(pairs, None) is None


def test_output_file_names_the_case(bench):
    assert bench.BENCH_FILE.format(sha="321cda7", case="hjb") == "BENCH_321cda7_hjb.json"
    names = {bench.BENCH_FILE.format(sha="321cda7", case=name) for name in bench.cases()}
    assert len(names) == len(bench.cases())


def test_traced_run_wraps_every_layer_boundary(monkeypatch):
    """``perfbench/layers.Patched`` resolves every name it wraps, installs its
    wrappers on enter and puts the originals back on exit; a refactor that
    drops a traced name fails here, not in ``perfbench/run.py --trace 1``."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    layers = importlib.import_module("layers")
    patched = layers.Patched(importlib.import_module("spans").Tracer())
    assert len(patched._wrappers) == 27
    with patched:
        for owner, attr, wrapper in patched._wrappers:
            assert owner.__dict__[attr] is wrapper
    for owner, attr, original in patched._saved:
        assert owner.__dict__[attr] is original
