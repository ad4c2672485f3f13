"""Acceptance suite: one test per criterion, each printing a verdict line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
summary.  Tolerances are fixed here, not tuned at run time; random content
is seeded so every run checks the same frozen instances.
"""

import time

import numpy as np
import pytest

import hwsched as hw
from hwsched import sde
from hwsched.detsys import identity_residual
from conftest import (
    balanced_totals,
    dense_psi,
    n_model,
    nmodel_cost,
    random_tree_model,
    single_class_fixture,
    smooth_control_path,
    smooth_driver,
)

SEED = 20240817


def report(num, ok, detail):
    print(f"\n[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def slow_n_model(theta):
    """N-model variant with slow service rates; moments take visibly long to
    settle, which gives the growth fits their curvature."""
    mu = (0.3, 0.3, 0.5) if theta == (0.0, 0.0) else (0.3, 0.4, 0.5)
    return n_model(mu=mu, theta=theta)


# -- shared expensive artifacts ----------------------------------------------


@pytest.fixture(scope="module")
def single_class_solution():
    model, cost = single_class_fixture()
    grid = hw.Grid([-6.0], [6.0], [1201])
    sol = hw.solve_hjb(model, cost, grid, boundary="static-mc",
                       boundary_paths=20_000, boundary_dt=1e-3, seed=SEED)
    return model, cost, sol


@pytest.fixture(scope="module")
def nmodel_solution():
    model = n_model()
    cost = nmodel_cost()
    grid = hw.default_grid(model, points_per_dim=61, radius=4.5)
    sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    policy = hw.extract_policy(sol.value, model, cost)
    return model, cost, sol, policy


def test_criterion_01_lifting_oracle():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(200):
        model = random_tree_model(rng, max_nodes=12)
        alpha, beta = balanced_totals(rng, model)
        gap = np.abs(hw.solve_psi(model, alpha, beta) - dense_psi(model, alpha, beta)).max()
        worst = max(worst, gap)
    ok = worst <= 1e-9
    report(1, ok, f"peeled flows match dense solve on 200 trees, max err "
                  f"{worst:.2e} <= 1e-9 ({time.time() - t0:.1f}s)")


def test_criterion_02_integral_equation_first_order():
    t0 = time.time()
    rng = np.random.default_rng(SEED)
    envelope = 25.0
    worst_sup = {2e-3: 0.0, 1e-3: 0.0}
    ratios = []
    for _ in range(20):
        model = random_tree_model(rng, max_nodes=9, max_classes=4)
        seqs = hw.build_sequences(model)
        state = rng.bit_generator.state
        sup = {}
        for dt in (2e-3, 1e-3):
            rng.bit_generator.state = state
            n = int(round(1.0 / dt))
            w = smooth_driver(rng, model.classes, n, dt, base=(0.1, 0.4), amp=0.3)
            controls = smooth_control_path(rng, model, n + 1, dt)
            traj = hw.integrate_det(model, w, controls)
            sup[dt] = float(np.abs(identity_residual(seqs, traj)).max())
            worst_sup[dt] = max(worst_sup[dt], sup[dt])
        ratios.append(sup[2e-3] / sup[1e-3])
    bound_ok = all(worst_sup[dt] <= envelope * dt for dt in worst_sup)
    ratio_ok = all(1.7 <= r <= 2.3 for r in ratios)
    report(2, bound_ok and ratio_ok,
           f"20 trees: sup residual {worst_sup[1e-3]:.2e} <= {envelope}*dt, halving "
           f"ratios in [{min(ratios):.3f}, {max(ratios):.3f}] within [1.7, 2.3] "
           f"({time.time() - t0:.1f}s)")


def test_criterion_03_special_cases_and_series_form():
    t0 = time.time()
    dt = 1e-3
    n = 1000
    station_uniform = n_model(mu=(0.8, 0.8, 1.2), theta=(0.0, 0.0))
    class_uniform = n_model(mu=(0.7, 1.0, 1.0), theta=(0.0, 0.0))
    cases = (
        ("station", station_uniform, hw.station_uniform_sequences(station_uniform)),
        ("class", class_uniform, hw.class_uniform_sequences(class_uniform)),
    )
    rng = np.random.default_rng(SEED)
    worst_resid = 0.0
    worst_series = 0.0
    for _, model, seqs in cases:
        for _ in range(5):
            w = smooth_driver(rng, 2, n, dt, base=(0.02, 0.05), amp=0.04)
            controls = smooth_control_path(rng, model, n + 1, dt)
            traj = hw.integrate_det(model, w, controls)
            resid = identity_residual(seqs, traj)
            worst_resid = max(worst_resid, float(np.abs(resid).max()))
            series = hw.series_residual(seqs, traj.w.T, traj.y.T, traj.z.T, dt)
            worst_series = max(worst_series, float(np.abs(resid - series).max()))
            general = hw.build_sequences(model)
            series_g = hw.series_residual(general, traj.w.T, traj.y.T, traj.z.T, dt)
            composed_g = identity_residual(general, traj)
            worst_series = max(worst_series, float(np.abs(series_g - composed_g).max()))
    ok = worst_resid <= 1e-4 and worst_series <= 1e-8
    report(3, ok, f"reduced-form residuals {worst_resid:.2e} <= 1e-4 at dt=1e-3; "
                  f"series vs composed gap {worst_series:.2e} <= 1e-8 "
                  f"({time.time() - t0:.1f}s)")


def test_criterion_04_nonidling():
    t0 = time.time()
    model = n_model()  # abandonment 0.5 below every service rate
    assert hw.nonidling_hypothesis(model) == []
    dt = 1e-3
    n = 1000
    tgrid = dt * np.arange(n + 1)
    w = np.tile((1.0 + tgrid)[:, None], (1, 2))
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for _ in range(50):
        controls = smooth_control_path(rng, model, n + 1, dt)
        worst = max(worst, hw.check_nonidling(model, w, controls))
    ok = worst <= 1e-8
    report(4, ok, f"50 random control paths on increasing drivers: max idleness "
                  f"{worst:.2e} <= 1e-8 ({time.time() - t0:.1f}s)")


def test_criterion_05_counterexample_reproduction():
    t0 = time.time()
    ok = True
    details = []
    for k in (1.0, 10.0, 100.0):
        rep = hw.counterexample_flow(k, horizon=5.0, dt=1e-3)
        in_band = 0.99 * k <= rep.sup_state_norm <= 1.01 * k
        ok = ok and rep.max_residual <= 1e-8 and in_band and rep.driver_sup == 0.0
        details.append(f"k={k:g}: resid {rep.max_residual:.1e}, sup {rep.sup_state_norm:.2f}")
    report(5, ok, "; ".join(details) + f" with zero drivers ({time.time() - t0:.1f}s)")


def test_criterion_06_hjb_versus_monte_carlo(single_class_solution):
    t0 = time.time()
    model, cost, sol = single_class_solution
    policy = hw.StaticPriority.for_model(model, 0, 0)  # the only control
    x0s = np.array([[-1.0], [0.0], [1.0]])
    means, ses, _ = hw.mc_cost_batch(model, cost, x0s, policy,
                                     n_paths=100_000, dt=2e-3, seed=SEED)
    h = 0.01
    ok = True
    rows = []
    for (x,), mc, se in zip(x0s, means, ses):
        k = int(round((x + 6.0) / h))
        f = sol.value.values[k]
        tol = 3 * se + 5 * h
        ok = ok and abs(f - mc) <= tol
        rows.append(f"x={x:+.0f}: |{f:.4f}-{mc:.4f}|={abs(f - mc):.4f}<={tol:.4f}")
    report(6, ok, "grid solution vs 1e5-path estimates: " + ", ".join(rows)
                  + f" ({time.time() - t0:.0f}s)")


def test_criterion_07_policy_optimality_evidence(nmodel_solution):
    t0 = time.time()
    model, cost, _, policy = nmodel_solution
    x0s = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
    gm = hw.GridMarkov(policy)
    mean_h, se_h, _ = hw.mc_cost_batch(model, cost, x0s, gm,
                                       n_paths=10_000, dt=2e-3, seed=SEED)
    ok = True
    margins = []
    for b, (i, j) in enumerate(((0, 0), (0, 1), (1, 0), (1, 1))):
        base = hw.StaticPriority.for_model(model, i, j)
        mean_s, se_s, _ = hw.mc_cost_batch(model, cost, x0s, base,
                                           n_paths=10_000, dt=2e-3, seed=SEED + 1 + b)
        slack = mean_s + 2 * np.sqrt(se_h**2 + se_s**2) - mean_h
        ok = ok and (slack >= 0).all()
        margins.append(float(slack.min()))
    report(7, ok, f"extracted policy beats all four static baselines at five "
                  f"starting states; worst margin {min(margins):+.4f} "
                  f"({time.time() - t0:.0f}s)")


def test_criterion_08_moment_growth():
    t0 = time.time()
    times = np.array([1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0])
    cost = nmodel_cost()
    ok = True
    rows = []
    for name, theta in (("i", (0.0, 0.0)), ("ii", (0.15, 0.15))):
        model = slow_n_model(theta)
        cases = hw.classify_case(model, cost)
        assert name in cases
        grid = hw.default_grid(model, points_per_dim=41, radius=4.5)
        sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
        extracted = hw.GridMarkov(hw.extract_policy(sol.value, model, cost))
        battery = [
            ("sp00", hw.StaticPriority.for_model(model, 0, 0)),
            ("sp10", hw.StaticPriority.for_model(model, 1, 0)),
            ("sp11", hw.StaticPriority.for_model(model, 1, 1)),
            ("switch", hw.SwitchingControl(model, period=0.25, horizon=64.0, seed=SEED)),
            ("hjb", extracted),
        ]
        for pname, pol in battery:
            curve = hw.moment_curve(model, pol, [0.0, 0.0], 2.0, times,
                                    n_paths=2000, dt=2e-3, seed=SEED)
            fit = hw.growth_report(curve.times, curve.means)
            ok = ok and fit.polynomial_preferred
            rows.append(f"{name}/{pname}: {fit.exp_ssr / fit.poly_ssr:.2f}x")
    report(8, ok, "polynomial fit beats exponential in every run "
                  f"(ssr margins {', '.join(rows)}) ({time.time() - t0:.0f}s)")


def test_criterion_09_prelimit_convergence():
    t0 = time.time()
    model, _ = single_class_fixture()  # critical load, no abandonment
    scaling = hw.ScalingSpec.centered(model, 400)
    rule = hw.GreedyPriority(model, scaling)
    reps = 10_000
    samples = hw.run_replications(model, scaling, rule, [0.0], 1.0, reps,
                                  seed=SEED, sample_times=[1.0])
    policy = hw.StaticPriority.for_model(model, 0, 0)
    diff = np.concatenate(hw.ensemble(model, np.zeros((1, 1)), policy, 10_000, 1000, 1e-3, SEED,
                                      sde.path_snapshots, snap_idx=[1000], stream=5000))
    rep = hw.compare_samples(samples, diff, [1.0])
    ok = rep.max_mean_z <= 3.0 and rep.max_var_z <= 3.0
    report(9, ok, f"n=400 terminal law vs diffusion: mean z {rep.max_mean_z:.2f}, "
                  f"variance z {rep.max_var_z:.2f}, both <= 3 ({time.time() - t0:.0f}s)")


def test_criterion_10_structural_invariants(nmodel_solution):
    t0 = time.time()
    model1, _ = single_class_fixture()
    flat_cost = hw.RunningCostSpec(c=[0.0], d=[0.0], constant=1.0)
    sol_flat = hw.solve_hjb(model1, flat_cost, hw.Grid([-6.0], [6.0], [241]),
                            boundary="extrapolate")
    const_err = float(np.abs(sol_flat.value.values - 1.0 / model1.gamma).max())

    nmodel, cost, _, policy = nmodel_solution
    grid = hw.default_grid(nmodel, points_per_dim=41, radius=4.5)
    base = hw.solve_hjb(nmodel, cost, grid, boundary="extrapolate")
    scaled_cost = hw.RunningCostSpec(c=4.0 * cost.c, d=4.0 * cost.d)
    scaled = hw.solve_hjb(nmodel, scaled_cost, grid, boundary="extrapolate")
    value_scale_err = float(
        np.abs(scaled.value.values - 4.0 * base.value.values).max()
        / np.abs(scaled.value.values).max()
    )
    pa = hw.extract_policy(base.value, nmodel, cost)
    pb = hw.extract_policy(scaled.value, nmodel, scaled_cost)
    agree = float(((pa.u == pb.u).all(axis=1) & (pa.v == pb.v).all(axis=1)).mean())

    vertex_ok = bool(
        np.isin(policy.u, (0.0, 1.0)).all() and np.isin(policy.v, (0.0, 1.0)).all()
        and (policy.u.sum(axis=1) == 1.0).all() and (policy.v.sum(axis=1) == 1.0).all()
    )
    ok = const_err <= 1e-10 and value_scale_err <= 1e-9 and agree >= 0.99 and vertex_ok
    report(10, ok, f"constant-cost error {const_err:.1e} <= 1e-10; cost scaling "
                   f"preserves controls at {100 * agree:.1f}% of points "
                   f"(value scale err {value_scale_err:.1e}); vertex controls at "
                   f"100% of points: {vertex_ok} ({time.time() - t0:.0f}s)")
