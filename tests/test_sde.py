import os
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import hwsched as hw
from hwsched import sde
from conftest import (n_model, nmodel_cost, random_tree_model, single_class_fixture,
                      single_edge_model, tree3_model)


def test_zero_noise_zero_drift_stays_at_origin():
    # diffusion coefficient zero is not a valid model, but the simulator
    # honors it; with no drift at the origin the path never moves
    model = single_edge_model(mu=1.0, theta=0.0, r=0.0)
    path = hw.simulate_path(model, [0.0], hw.StaticPriority.for_model(model, 0, 0), 1.0, 1e-2, seed=4)
    assert np.abs(path.x).max() == 0.0


def test_same_seed_bitwise_identical():
    model, _ = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    a = hw.simulate_path(model, [0.3], policy, 1.0, 1e-3, seed=11)
    b = hw.simulate_path(model, [0.3], policy, 1.0, 1e-3, seed=11)
    assert (a.x == b.x).all() and (a.noise == b.noise).all()
    c = hw.simulate_path(model, [0.3], policy, 1.0, 1e-3, seed=12)
    assert (a.x != c.x).any()


def test_sign_conditional_mean_reversion():
    # below zero the drift pulls up at the service rate; above, only noise
    model, _ = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    paths = [hw.simulate_path(model, [-3.0], policy, 1.0, 1e-3, seed=s) for s in range(8)]
    terminal = np.array([p.x[-1, 0] for p in paths])
    assert terminal.mean() > -3.0 + 1.0  # strong pull toward zero
    deep = hw.drift(model, [-3.0], ([1.0], [1.0]))[0]
    high = hw.drift(model, [3.0], ([1.0], [1.0]))[0]
    assert deep == pytest.approx(3.0) and high == pytest.approx(0.0)


def test_emitted_controls_live_on_the_simplices():
    model = n_model()
    sol_policy = hw.SwitchingControl(model, period=0.2, horizon=2.0, seed=3)
    path = hw.simulate_path(model, [0.5, -0.5], sol_policy, 2.0, 1e-2, seed=0)
    np.testing.assert_allclose(path.u.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(path.v.sum(axis=1), 1.0, atol=1e-12)
    assert (path.u >= 0).all() and (path.v >= 0).all()


def test_mc_cost_state_independent_cost_is_exact():
    model, _ = single_class_fixture()
    cost = hw.RunningCostSpec(c=[0.0], d=[0.0], constant=1.0)
    policy = hw.StaticPriority.for_model(model, 0, 0)
    est = hw.mc_cost(model, cost, [0.0], policy, n_paths=64, dt=1e-3, seed=1)
    n = int(round(est.horizon / est.dt))
    left_rule = est.dt * (1 - np.exp(-n * est.dt)) / (1 - np.exp(-est.dt))
    assert est.mean == pytest.approx(left_rule, abs=1e-12)
    assert est.stderr == pytest.approx(0.0, abs=1e-12)
    assert est.mean + est.tail_bound == pytest.approx(1.0, abs=2e-3)


def test_tail_bound_fits_a_power_law_in_time():
    """Moments that follow ``2 t^1.5`` give the discounted integral of that
    envelope, at a short horizon too; snapshots all at ``t = 0`` (no steps)
    give a constant envelope."""
    from scipy.integrate import quad

    cost = nmodel_cost()
    times = np.geomspace(8e-3, 0.1, 6)
    exact = quad(lambda t: np.exp(-t) * (1.0 + 2.0 * t**1.5), 0.1, np.inf)[0]
    got = sde._tail_bound(cost, 1.0, 0.1, times, 2.0 * times**1.5)
    assert got == pytest.approx(cost.growth_scale * exact, rel=1e-6)
    still = sde._tail_bound(cost, 1.0, 0.0, np.zeros(6), np.full(6, 3.0))
    assert still == pytest.approx(cost.growth_scale * 4.0, rel=1e-6)


def test_tail_bound_stays_moderate_at_short_horizons():
    """From the origin the moments grow like a power of t; fitted against
    ``log(1 + t)`` they read as a steep exponent and a bound near 3e10 at
    horizon 0.1.  The bound must fall with the horizon and stay of the order
    of the whole discounted cost (about 1.7 here)."""
    model, cost = hw.load_model(Path(__file__).resolve().parents[1] / "models" / "n_model.json")
    policy = sde.FixedControl(hw.ControlPoint.uniform(model.classes, model.stations))
    tails = [hw.mc_cost(model, cost, [0.0, 0.0], policy, 200, horizon=h, seed=0).tail_bound
             for h in (0.1, 1.0)]
    assert 1.0 < tails[1] < tails[0] < 50.0


@pytest.mark.parametrize("a", [-2.5, -1.0, -0.7, 0.0, 0.5, 1.0, 1.5, 3.3, 13.0, 50.0, 50.5, 80.0])
def test_tail_bound_closed_form_matches_quadrature(a):
    """Moments that follow ``2 (t / T)^a`` exactly give the discounted
    integral of ``1 + e^c0 t^min(a, 50)``, with ``e^c0 = 2 T^-a``, to 1e-10
    relative, across discounts and horizons; a = -1 is the E1 case."""
    from scipy.integrate import quad

    cost = nmodel_cost()
    for gamma in (0.1, 0.5, 1.0, 3.0):
        for T in (0.02, 0.1, 1.0, 6.0, 12.0, 120.0):
            times = np.geomspace(T / 16.0, T, 6)
            # e^-gamma t (1 + 2 (t / T)^-a t^min(a, 50)), by exponents: the
            # product overflows at large t
            log_scale = np.log(2.0) - a * np.log(T)
            exact = quad(lambda t: np.exp(-gamma * t)
                         + np.exp(log_scale + min(a, 50.0) * np.log(t) - gamma * t),
                         T, np.inf, epsabs=0, epsrel=1e-12, limit=200)[0]
            got = sde._tail_bound(cost, gamma, T, times, 2.0 * (times / T) ** a)
            assert got == pytest.approx(cost.growth_scale * exact, rel=1e-10), (gamma, T)


def test_tail_bound_without_a_finite_value_is_nan_or_inf():
    cost = nmodel_cost()
    times = np.geomspace(0.1, 1.0, 6)
    for bad in (np.inf, np.nan):
        for gamma, T in ((1.0, 1.0), (1e-3, 1.0), (1.0, 0.01)):
            moments = np.append(times[:5], bad)
            assert np.isnan(sde._tail_bound(cost, gamma, T, times, moments))
    # e^c0 = 1e300 and a = 3 at gamma = 1e-3: e^c0 Γ(4, 1e-3) / gamma^4 is past 1e308
    assert sde._tail_bound(cost, 1e-3, 1.0, times, 1e300 * times**3) == np.inf
    assert np.isfinite(sde._tail_bound(cost, 1.0, 1.0, times, 1e300 * times**3))


def test_mc_cost_reproducible_across_seeds():
    model, cost = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    a = hw.mc_cost(model, cost, [0.0], policy, n_paths=4000, horizon=6.0, dt=5e-3, seed=100)
    b = hw.mc_cost(model, cost, [0.0], policy, n_paths=4000, horizon=6.0, dt=5e-3, seed=200)
    assert abs(a.mean - b.mean) <= 3 * np.hypot(a.stderr, b.stderr)
    c = hw.mc_cost(model, cost, [0.0], policy, n_paths=4000, horizon=6.0, dt=5e-3, seed=100)
    assert c.mean == a.mean and c.stderr == a.stderr


def test_mc_cost_threaded_matches_sequential():
    model, cost = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    cases = [
        (np.array([[0.5]]), dict(n_paths=3000, horizon=4.0)),
        (np.linspace(-1.0, 1.0, 8)[:, None], dict(n_paths=8292, horizon=0.05)),
    ]
    chunks = hw.ensemble(model, cases[1][0], policy, 8292, 0, 5e-3, 7, lambda *_: None)
    assert len(chunks) == 2
    for x0s, kw in cases:
        seq = hw.mc_cost_batch(model, cost, x0s, policy, dt=5e-3, seed=7, threads=1, **kw)
        par = hw.mc_cost_batch(model, cost, x0s, policy, dt=5e-3, seed=7, threads=3, **kw)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(seq, par))


def test_simulate_path_is_one_ensemble_path():
    model = n_model()
    policy = hw.SwitchingControl(model, period=0.1, horizon=0.5, seed=2)
    path = hw.simulate_path(model, [0.4, -0.3], policy, 0.5, 1e-2, seed=5)
    (snaps,) = hw.ensemble(model, [[0.4, -0.3]], policy, 1, 50, 1e-2, 5, sde.path_snapshots,
                           snap_idx=range(51))
    assert path.x.tobytes() == snaps[0].tobytes()


def test_ensemble_streams_differ():
    model, _ = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)

    def run(stream):
        return np.concatenate(hw.ensemble(model, [[0.0]], policy, 100, 10, 1e-2, 3,
                                          sde.path_snapshots, snap_idx=[10], stream=stream))

    assert (run(0) == run(0)).all()
    assert (run(0) != run(1)).all()


@pytest.mark.parametrize("n_paths, dt, snap_idx", [(0, 1e-2, ()), (10, 0.0, ()),
                                                   (10, 1e-2, (-1,)), (10, 1e-2, (11,)),
                                                   (10, np.nan, ()), (10, np.inf, ())])
def test_ensemble_rejects_bad_sizes(n_paths, dt, snap_idx):
    model, _ = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    with pytest.raises(ValueError):
        hw.ensemble(model, [[0.0]], policy, n_paths, 10, dt, 0, sde.path_snapshots,
                    snap_idx=snap_idx)


@pytest.mark.parametrize("snap_idx", [(0, 7, 5), (-1,)])
def test_run_chunk_rejects_snapshot_steps_out_of_range(snap_idx):
    # a step past n_steps would leave its slot unwritten
    model, _ = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    with pytest.raises(ValueError, match="snapshot steps"):
        sde._run_chunk(model, [[0.0]], policy, 5, 1e-2, np.random.default_rng(0),
                       snap_idx=snap_idx)


def test_mc_cost_batch_matches_single_runs():
    model, cost = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    means, ses, tails = hw.mc_cost_batch(
        model, cost, np.array([[0.0], [1.0]]), policy, n_paths=500, horizon=4.0, dt=5e-3, seed=3
    )
    assert means[1] > means[0] > 0
    assert (ses > 0).all() and (tails > 0).all()


def test_mc_cost_rejects_bad_inputs():
    model, cost = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    with pytest.raises(ValueError):
        hw.mc_cost(model, hw.RunningCostSpec(c=[-1.0], d=[0.0]), [0.0], policy, 10)


@pytest.mark.parametrize("call, kwargs, name", [
    ("mc_cost", dict(dt=0.0), "dt"),
    ("mc_cost", dict(dt=-1e-3), "dt"),
    ("mc_cost", dict(dt=np.nan), "dt"),
    ("mc_cost", dict(dt=np.inf), "dt"),
    ("mc_cost", dict(horizon=0.0), "horizon"),
    ("mc_cost", dict(horizon=-1.0), "horizon"),
    ("mc_cost", dict(horizon=np.inf), "horizon"),
    ("mc_cost", dict(horizon=np.nan), "horizon"),
    ("mc_cost_batch", dict(dt=0.0), "dt"),
    ("mc_cost_batch", dict(horizon=-1.0), "horizon"),
    ("moment_curve", dict(dt=0.0), "dt"),
    ("moment_curve", dict(dt=np.inf), "dt"),
    ("moment_curve", dict(times=[]), "times"),
    ("moment_curve", dict(times=[1.0, -0.5]), "times"),
    ("moment_curve", dict(times=[np.inf]), "times"),
    ("moment_curve", dict(times=[np.nan]), "times"),
    ("moment_curve", dict(times=[[1.0]]), "times"),
    # a horizon below dt / 2 rounds to no Euler step
    ("mc_cost", dict(horizon=4e-4, dt=1e-3), "horizon"),
    ("mc_cost_batch", dict(horizon=4e-4, dt=1e-3), "horizon"),
    ("mc_cost", dict(dt=1e6), "horizon"),
    ("simulate_path", dict(dt=0.0), "dt"),
    ("simulate_path", dict(dt=np.inf), "dt"),
    ("simulate_path", dict(dt=np.nan), "dt"),
    ("simulate_path", dict(horizon=-1.0), "horizon"),
    ("simulate_path", dict(horizon=np.inf), "horizon"),
    ("simulate_path", dict(horizon=np.nan), "horizon"),
    ("simulate_path", dict(horizon=4e-4, dt=1e-3), "horizon"),
])
def test_monte_carlo_estimators_reject_bad_steps_and_times(monkeypatch, call, kwargs, name):
    """A step, horizon or time list that spans no run raises ``ValueError``
    naming it, before any path is simulated."""
    model, cost = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)

    def no_run(*args, **kw):
        raise AssertionError("an ensemble ran before the inputs were checked")

    monkeypatch.setattr(sde, "ensemble", no_run)
    monkeypatch.setattr(sde, "_run_chunk", no_run)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        if call == "mc_cost":
            hw.mc_cost(model, cost, [0.0], policy, 10, **kwargs)
        elif call == "mc_cost_batch":
            hw.mc_cost_batch(model, cost, np.zeros((2, 1)), policy, 10, **kwargs)
        elif call == "simulate_path":
            hw.simulate_path(model, [0.0], policy, **{"horizon": 1.0, **kwargs})
        else:
            hw.moment_curve(model, policy, [0.0], 2.0, **{"times": [0.5], **kwargs}, n_paths=10)


def test_moment_curve_zero_noise():
    model = single_edge_model(mu=1.0, theta=0.0, r=0.0)
    policy = hw.StaticPriority.for_model(model, 0, 0)
    curve = hw.moment_curve(model, policy, [0.0], 2.0, [0.5, 1.0], 50, dt=1e-2, seed=0)
    np.testing.assert_array_equal(curve.means, 0.0)


def test_moment_curve_brownian_slope():
    # vanishing service rate: the state is near-driftless Brownian motion,
    # so the second moment grows linearly
    model = single_edge_model(mu=1e-6, theta=0.0, r=1.0)
    policy = hw.StaticPriority.for_model(model, 0, 0)
    times = [1.0, 2.0, 4.0, 8.0]
    curve = hw.moment_curve(model, policy, [0.0], 2.0, times, 4000, dt=5e-3, seed=2)
    slope = np.polyfit(np.log(curve.times), np.log(curve.means), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.15)
    np.testing.assert_allclose(curve.means, times, rtol=0.15)


def test_strong_order_under_increment_aggregation():
    # one fixed Brownian path, two step sizes: terminal states differ O(dt)
    model, _ = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    rng = np.random.default_rng(9)
    n = 2000
    dt = 5e-4
    xi = rng.standard_normal((n, 1))

    def euler(x0, step, incr):
        X = np.array([[x0]])
        for k in range(len(incr)):
            U, V = policy.controls(X, k * step)
            b = hw.drift_batch(model, X, U, V)
            X = X + b * step + model.r * np.sqrt(step) * incr[k]
        return X[0, 0]

    fine = euler(0.4, dt, xi)
    coarse = euler(0.4, 2 * dt, (xi[0::2] + xi[1::2]) / np.sqrt(2))
    assert abs(fine - coarse) < 30 * dt


def test_grid_markov_nearest():
    grid = hw.Grid([-1.0], [1.0], [3])
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    v = np.array([[1.0], [1.0], [1.0]])
    field = hw.PolicyField(grid=grid, u=u, v=v)
    nearest = hw.GridMarkov(field)
    U, V = nearest.controls(np.array([[-0.9], [0.2], [5.0]]), 0.0)
    np.testing.assert_allclose(U, [[1, 0], [0, 1], [0, 1]])


@pytest.mark.parametrize("u_row", [(2.0, -1.0), (np.nan, 1.0), (0.5, 0.4)])
def test_grid_markov_rejects_rows_off_the_simplex(u_row):
    grid = hw.default_grid(n_model(), 5)
    with pytest.raises(ValueError, match="sum to one"):
        hw.GridMarkov(hw.PolicyField(grid, np.tile(u_row, (grid.size, 1)),
                                     np.full((grid.size, 2), 0.5)))


def test_switching_control_deterministic():
    model = n_model()
    a = hw.SwitchingControl(model, 0.5, 4.0, seed=7)
    b = hw.SwitchingControl(model, 0.5, 4.0, seed=7)
    X = np.zeros((2, 2))
    for t in (0.0, 0.7, 2.3):
        np.testing.assert_array_equal(a.controls(X, t)[0], b.controls(X, t)[0])


def test_switching_slots_do_not_depend_on_the_horizon():
    """A shorter horizon's table is the first rows of a longer one's."""
    for model in (n_model(), tree3_model()[0]):
        for seed in range(6):
            short = hw.SwitchingControl(model, 0.5, 1.0, seed=seed).table
            long = hw.SwitchingControl(model, 0.5, 8.0, seed=seed).table
            for a, b in zip(short, long):
                np.testing.assert_array_equal(a, b[:len(a)])


def test_stored_runs_past_max_steps_are_refused(monkeypatch):
    """``simulate_path`` stores every step and ``SwitchingControl`` every
    slot: past ``MAX_STEPS`` of them each raises a ``ValueError`` naming the
    limit, which is lowered here.  A run that reduces its paths as it goes
    stores no step and keeps no such limit."""
    model = n_model()
    monkeypatch.setattr(sde, "MAX_STEPS", 10)
    policy = hw.StaticPriority.for_model(model, 0, 1)
    assert len(hw.simulate_path(model, [0.0, 0.0], policy, 0.1, 0.01).u) == 10
    with pytest.raises(ValueError, match="MAX_STEPS"):
        hw.simulate_path(model, [0.0, 0.0], policy, 0.11, 0.01)
    assert len(hw.SwitchingControl(model, 0.125, 1.0).table[0]) == 10
    with pytest.raises(ValueError, match="MAX_STEPS"):
        hw.SwitchingControl(model, 0.125, 1.01)
    est = hw.mc_cost(model, nmodel_cost(), [0.0, 0.0], policy, 2, horizon=0.2, dt=0.01)
    assert np.isfinite(est.mean)


def test_default_priority_edge_prefers_dominating_rate():
    model = n_model(theta=(1.5, 0.5))  # class 0 abandonment beats its only rate
    assert sde.default_priority_edge(model) == (1, 0)
    assert sde.default_priority_edge(n_model()) == (0, 0)
    # every class abandons faster than any of its edges serves it
    assert sde.default_priority_edge(n_model(theta=(5.0, 5.0))) == (0, 0)


def test_path_csv(tmp_path):
    model, _ = single_class_fixture()
    path = hw.simulate_path(model, [0.0], hw.StaticPriority.for_model(model, 0, 0), 0.1, 1e-2, seed=0)
    f = tmp_path / "path.csv"
    path.to_csv(f)
    lines = f.read_text().strip().splitlines()
    assert lines[0].split(",") == ["t", "x0", "u0", "v0", "W0"]
    assert len(lines) == 12


def reference_chunk(model, x0s, policy, n_steps, dt, rng, cost):
    """The Euler loop written out plainly from ``controls``, ``drift_batch``
    and ``RunningCostSpec.evaluate``, one normal draw per step."""
    X = np.array(x0s, dtype=float)
    costs = np.zeros(len(X))
    disc, decay = 1.0, np.exp(-model.gamma * dt)
    for k in range(n_steps):
        U, V = policy.controls(X, k * dt)
        step_cost = cost.evaluate(X, U, V)
        step_cost *= disc * dt
        costs += step_cost
        disc *= decay
        b = hw.drift_batch(model, X, U, V)
        b *= dt
        X += b
        X += rng.standard_normal(X.shape) * (model.r * np.sqrt(dt))
    return costs, X


class SignPriority:
    """A policy with only ``controls``: queue on the class with the largest
    state, idle at the station matching the sign of the first coordinate."""

    def __init__(self, model):
        self.I, self.J = model.classes, model.stations

    def controls(self, X, t):
        U = np.eye(self.I)[np.argmax(X, axis=1)]
        V = np.eye(self.J)[(X[:, 0] > 0).astype(int) * (self.J - 1)]
        return U, V


class DenseRows:
    """A policy with only ``controls`` that returns dense rows: the vertex
    rows of a policy field blended multilinearly between grid points."""

    def __init__(self, field):
        self.grid, self.I = field.grid, field.u.shape[1]
        self.rows = np.column_stack([field.u, field.v])

    def controls(self, X, t):
        return np.hsplit(self.grid.interpolate(self.rows, X), [self.I])


def _big_tree():
    """A random tree of at least 8 classes, where numpy sums the coordinates
    pairwise, with a random linear cost."""
    rng = np.random.default_rng(8)
    while True:
        model = random_tree_model(rng, max_nodes=20, min_nodes=16)
        if model.classes >= 8:
            return model, hw.RunningCostSpec(c=rng.uniform(0.5, 3.0, model.classes),
                                             d=rng.uniform(0.0, 2.0, model.stations))


def _models():
    single, single_cost = single_class_fixture()
    tree, tree_cost = tree3_model()
    return {"n_model": (n_model(), nmodel_cost()), "tree3": (tree, tree_cost),
            "single": (single, single_cost), "big": _big_tree()}


def _policy(kind, model, rng):
    """``(policy, emits_vertices)`` of the given kind for ``model``."""
    I, J = model.classes, model.stations
    if kind == "uniform":
        return hw.FixedControl(hw.ControlPoint.uniform(I, J)), False
    if kind == "static":
        i, j = model.edges[rng.integers(len(model.edges))]
        return hw.StaticPriority.for_model(model, i, j), True
    if kind == "switch":
        return hw.SwitchingControl(model, 0.01, 1.0, seed=int(rng.integers(100))), True
    if kind == "duck":
        return SignPriority(model), True
    # 3 points a side keep the grids of 8 or more classes small (3^I points)
    counts = rng.integers(3, 6, I) if I < 8 else np.full(I, 3)
    grid = hw.Grid([-2.0] * I, [2.0] * I, counts)
    u = np.eye(I)[rng.integers(0, I, grid.size)]
    v = np.eye(J)[rng.integers(0, J, grid.size)]
    field = hw.PolicyField(grid=grid, u=u, v=v)
    if kind == "dense":
        return DenseRows(field), False
    return hw.GridMarkov(field), True


@settings(max_examples=120, deadline=None)
@given(model_name=st.sampled_from(["n_model", "tree3", "single", "big"]),
       kind=st.sampled_from(["uniform", "static", "switch", "grid", "dense", "duck"]),
       convex=st.booleans(), rows=st.integers(1, 40), n_steps=st.integers(0, 25),
       seed=st.integers(0, 2**16))
def test_run_chunk_matches_reference_euler(model_name, kind, convex, rows, n_steps, seed):
    model, cost = _models()[model_name]
    if convex:
        cost = hw.RunningCostSpec(c=cost.c, d=cost.d, p=2.0, q=2.0, kappa=0.4, m=1.5,
                                  constant=0.1)
    rng = np.random.default_rng(seed)
    policy, vertices = _policy(kind, model, rng)
    x0s = rng.uniform(-3.0, 3.0, (rows, model.classes))
    dt = 1e-2
    costs, snaps = sde._run_chunk(model, x0s, policy, n_steps, dt, np.random.default_rng(seed),
                                  cost, [n_steps])
    ref_costs, ref_x = reference_chunk(model, x0s, policy, n_steps, dt,
                                       np.random.default_rng(seed), cost)
    # the same floats below 8 classes; from 8 on the reference sums pairwise
    if vertices and model.classes < 8:
        assert costs.tobytes() == ref_costs.tobytes()
        assert snaps[0].tobytes() == ref_x.tobytes()
    else:
        np.testing.assert_allclose(costs, ref_costs, rtol=1e-12, atol=0)
        np.testing.assert_allclose(snaps[0], ref_x, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("kind", ["static", "switch", "grid"])
@pytest.mark.parametrize("B", [500, 2048])
@pytest.mark.parametrize("block", [None, 5000])
def test_run_chunk_matches_reference_euler_at_large_batches(monkeypatch, kind, B, block):
    """Byte for byte at batch sizes past the hypothesis test's, over several
    normal blocks with a partial last one: by default 32 steps a block at
    500 rows and 8 at 2048; with 5000 values a block, 5 and 1."""
    model, cost = n_model(), nmodel_cost()
    convex = hw.RunningCostSpec(c=cost.c, d=cost.d, p=2.0, q=1.5, kappa=0.4, m=1.5, constant=0.1)
    if block is not None:
        monkeypatch.setattr(sde, "_BLOCK", block)
    K = max(1, sde._BLOCK // (2 * B))
    n = 2 * K + 3 if K > 1 else 7
    rng = np.random.default_rng(B)
    policy = _policy(kind, model, rng)[0]
    x0s = rng.uniform(-3.0, 3.0, (B, 2))
    for c in (cost, convex):
        costs, snaps = sde._run_chunk(model, x0s, policy, n, 1e-2, np.random.default_rng(9), c,
                                      [n])
        ref_costs, ref_x = reference_chunk(model, x0s, policy, n, 1e-2, np.random.default_rng(9),
                                           c)
        assert costs.tobytes() == ref_costs.tobytes()
        assert snaps[0].tobytes() == ref_x.tobytes()


@pytest.mark.parametrize("kind", ["static", "grid"])
def test_run_chunk_record_matches_the_default_run(kind):
    """``record`` changes nothing in the run and holds every step's controls
    at its left state and the raw draws of the documented stream."""
    model, cost = n_model(), nmodel_cost()
    B, n, dt = 500, 70, 1e-2  # 32 steps a block: two whole blocks and a partial one
    rng = np.random.default_rng(1)
    policy = _policy(kind, model, rng)[0]
    x0s = rng.uniform(-3.0, 3.0, (B, 2))
    rec = (np.empty((n, B, 2)), np.empty((n, B, 2)), np.empty((n, B, 2)))
    got = sde._run_chunk(model, x0s, policy, n, dt, np.random.default_rng(2), cost,
                         range(n + 1), rec)
    want = sde._run_chunk(model, x0s, policy, n, dt, np.random.default_rng(2), cost,
                          range(n + 1))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(got, want))
    assert rec[2].tobytes() == np.random.default_rng(2).standard_normal((n, B, 2)).tobytes()
    for k in range(n):
        U, V = policy.controls(got[1][k], k * dt)
        assert rec[0][k].tobytes() == U.tobytes() and rec[1][k].tobytes() == V.tobytes()


def test_table_controls_are_table_rows():
    model = n_model()
    for policy in (hw.StaticPriority.for_model(model, 1, 0),
                   hw.SwitchingControl(model, 0.5, 2.0, seed=4)):
        U, V = policy.controls(np.zeros((3, 2)), 0.7)
        k = policy.index(np.zeros((3, 2)), 0.7)
        assert U.shape == (3, 2) and V.shape == (3, 2)
        assert (U == policy.table[0][k]).all() and (V == policy.table[1][k]).all()


def test_grid_markov_index_is_nearest_clipped_point():
    rng = np.random.default_rng(3)
    grid = hw.Grid([-2.0, -1.0, -3.0], [2.0, 3.0, 1.0], [3, 4, 6])
    field = hw.PolicyField(grid=grid, u=np.ones((grid.size, 3)) / 3, v=np.ones((grid.size, 2)) / 2)
    X = rng.uniform(-5.0, 5.0, (400, 3))
    near = np.rint(np.clip((X - grid.lows) / grid.spacing, 0, grid.counts - 1)).astype(int)
    want = np.ravel_multi_index(near.T, tuple(grid.counts))
    policy = hw.GridMarkov(field)
    assert (policy.index(X, 0.0) == want).all()
    assert (policy.index(np.ascontiguousarray(X.T).T, 0.0) == want).all()


def test_import_leaves_heavy_scipy_modules_unloaded():
    # scipy.signal, scipy.integrate and scipy.sparse are imported where they
    # are used, so `import hwsched` stays quick
    code = ("import sys, hwsched, hwsched.cli; print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy.signal', 'scipy.integrate', 'scipy.sparse'))))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=120)
    assert out.stdout.strip() == "[]"


def test_monte_carlo_runs_leave_scipy_integrate_special_optimize_unloaded(tmp_path):
    # the cost tail bound is closed-form: a Monte Carlo cost, from the API or
    # from the CLI, loads no scipy module that quadrature would
    model_file = Path(__file__).resolve().parents[1] / "models" / "n_model.json"
    code = (
        "import sys, hwsched as hw\n"
        "from hwsched import cli\n"
        f"model, cost = hw.load_model({str(model_file)!r})\n"
        "hw.mc_cost(model, cost, [0.0, 0.0], hw.StaticPriority.for_model(model, 0, 1), 8,\n"
        "           horizon=0.5)\n"
        f"assert cli.main(['evaluate-policy', '--model', {str(model_file)!r}, '--paths', '8',\n"
        f"                 '--horizon', '0.5', '--out', {str(tmp_path / 'ev')!r}]) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.startswith(('scipy.integrate', 'scipy.special', 'scipy.optimize'))))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}, timeout=120)
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert (tmp_path / "ev" / "cost.json").exists()


def _block_case(kind, B):
    model, cost = n_model(), nmodel_cost()
    rng = np.random.default_rng(B)
    if kind in ("grid", "dense"):
        # dense rows take the convex cost's |s|^p, |s|^q weights
        policy = _policy(kind, model, rng)[0]
        if kind == "dense":
            cost = hw.RunningCostSpec(c=cost.c, d=cost.d, p=2.0, q=1.5, kappa=0.4, constant=0.1)
    elif kind == "switch":
        policy = hw.SwitchingControl(model, 0.13, 1.0, seed=1)
    else:
        policy = hw.StaticPriority.for_model(model, 1, 0)
    return model, cost, policy, rng.uniform(-3.0, 3.0, (B, 2))


@pytest.mark.parametrize("kind", ["static", "switch", "grid", "dense"])
@pytest.mark.parametrize("B", [1, 7, 300])
def test_run_chunk_does_not_depend_on_the_block_size(monkeypatch, kind, B):
    model, cost, policy, x0s = _block_case(kind, B)
    n, snap_idx = 60, [0, 1, 24, 25, 26, 59, 60]

    def run():
        rec = (np.empty((n, B, 2)), np.empty((n, B, 2)), np.empty((n, B, 2)))
        costs, snaps = sde._run_chunk(model, x0s, policy, n, 1e-2, np.random.default_rng(3), cost,
                                      snap_idx, rec)
        return [costs, snaps, *rec]

    default = run()
    # 1: one step per block; 50: 25, 3 and 1 steps at B = 1, 7 and 300
    for block in (1, 50):
        monkeypatch.setattr(sde, "_BLOCK", block)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(run(), default))


def test_simulate_path_noise_is_the_documented_stream():
    model = n_model()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    n, dt = 17000, 1e-4  # more steps than one default block holds at B = 1
    path = hw.simulate_path(model, [0.2, -0.1], policy, n * dt, dt, seed=8)
    want = np.zeros((n + 1, 2))
    want[1:] = np.random.default_rng([8, 0]).standard_normal((n, 2)) * np.sqrt(dt)
    np.cumsum(want, axis=0, out=want)
    assert path.noise.tobytes() == want.tobytes()


def test_run_chunk_idle_side_of_table_row_zero():
    # index 0 throughout, paths on both sides of s = 0: a path with s < 0
    # must read the idle-side column of row 0, R columns on
    model, cost = n_model(), nmodel_cost()
    policy = hw.SwitchingControl(model, 1.0, 5.0, seed=2)
    assert len(policy.table[0]) > 1
    x0s = np.array([[-1.0, -0.5], [0.3, -2.0], [1.0, 0.5], [-0.2, 0.4]])
    costs, snaps = sde._run_chunk(model, x0s, policy, 20, 1e-2, np.random.default_rng(4), cost,
                                  [20])
    ref_costs, ref_x = reference_chunk(model, x0s, policy, 20, 1e-2, np.random.default_rng(4), cost)
    assert costs.tobytes() == ref_costs.tobytes()
    assert snaps[0].tobytes() == ref_x.tobytes()


def _run_spied(model, cost, policy, x0s, n, dt, seed):
    """``_run_chunk`` with a record and snapshots at every step, spying on
    ``policy.index``; returns the costs, the snapshots and the three record
    arrays, and the count of index calls, after checking the run against
    ``reference_chunk`` byte for byte."""
    calls, index = [], policy.index

    def spy(X, t):
        calls.append(t)
        return index(X, t)

    policy.index = spy
    B, I = x0s.shape
    rec = (np.empty((n, B, I)), np.empty((n, B, model.stations)), np.empty((n, B, I)))
    costs, snaps = sde._run_chunk(model, x0s, policy, n, dt, np.random.default_rng(seed), cost,
                                  range(n + 1), rec)
    n_calls = len(calls)
    ref_costs, ref_x = reference_chunk(model, x0s, policy, n, dt, np.random.default_rng(seed),
                                       cost)
    assert costs.tobytes() == ref_costs.tobytes()
    assert snaps[-1].tobytes() == ref_x.tobytes()
    assert rec[2].tobytes() == np.random.default_rng(seed).standard_normal((n, B, I)).tobytes()
    for k in range(n):
        U, V = policy.controls(snaps[k], k * dt)
        assert rec[0][k].tobytes() == U.tobytes() and rec[1][k].tobytes() == V.tobytes()
    return (costs, snaps, *rec), n_calls


def test_run_chunk_skips_index_for_one_row_tables():
    """A table whose rows are all equal is simulated as its first row, with
    no call to ``index``; one differing row, even at a grid point no path
    reaches, keeps the lookup on every step."""
    model, cost = n_model(), nmodel_cost()
    grid = hw.Grid([-4.0, -4.0], [4.0, 4.0], [9, 9])
    u = np.tile([0.0, 1.0], (grid.size, 1))
    v = np.tile([1.0, 0.0], (grid.size, 1))
    far_u, far_v = u.copy(), v.copy()
    far_u[-1], far_v[-1] = [1.0, 0.0], [0.0, 1.0]
    x0s = np.random.default_rng(5).uniform(-1.0, 1.0, (300, 2))
    n = 40
    runs = {}
    for name, policy in (
        ("static", hw.StaticPriority.for_model(model, 1, 0)),
        ("constant", hw.GridMarkov(hw.PolicyField(grid=grid, u=u, v=v))),
        ("far", hw.GridMarkov(hw.PolicyField(grid=grid, u=far_u, v=far_v))),
    ):
        runs[name], calls = _run_spied(model, cost, policy, x0s, n, 1e-2, 6)
        assert calls == (n if name == "far" else 0)
    # the far point is never the nearest, so all three runs are the same
    for name in ("constant", "far"):
        assert all(a.tobytes() == b.tobytes() for a, b in zip(runs[name], runs["static"]))


def test_run_chunk_looks_up_a_state_dependent_hjb_policy():
    # n_model with theta = (0, 3) and c = (1, 1.05): the queued class of the
    # HJB policy depends on the state, so the loop keeps the grid lookup
    model_file = Path(__file__).resolve().parents[1] / "models" / "n_model_abandon.json"
    model, cost = hw.load_model(model_file)
    sol = hw.solve_hjb(model, cost, hw.default_grid(model, 41, 4.5), boundary="extrapolate")
    field = hw.extract_policy(sol.value, model, cost)
    assert len(np.unique(field.u, axis=0)) > 1
    x0s = np.random.default_rng(7).uniform(-3.0, 3.0, (200, 2))
    _, calls = _run_spied(model, cost, hw.GridMarkov(field), x0s, 30, 1e-2, 8)
    assert calls == 30


def test_hjb_policy_beats_every_static_priority_on_shared_noise():
    # n_model_abandon with c = (1, 2) and d = (1, 1): the HJB field switches
    # both the queued class and the idle station, and the switch pays. Every
    # policy runs on one seed and one path layout, so per-path cost
    # differences are paired.
    model_file = Path(__file__).resolve().parents[1] / "models" / "n_model_switch.json"
    model, cost = hw.load_model(model_file)
    sol = hw.solve_hjb(model, cost, hw.default_grid(model, 41, 4.5), boundary="extrapolate")
    field = hw.extract_policy(sol.value, model, cost)
    assert len(np.unique(field.u, axis=0)) > 1 and len(np.unique(field.v, axis=0)) > 1
    x0s = np.array([[0.0, 0.0], [1.0, 1.0], [-2.0, 2.0], [2.0, -2.0]])
    n_paths, dt = 2000, 4e-3

    def per_path_costs(policy):
        parts = sde.ensemble(model, x0s, policy, n_paths, round(12.0 / model.gamma / dt), dt, 7,
                             lambda costs, snaps, size: costs.reshape(len(x0s), size), cost=cost)
        return np.concatenate(parts, axis=1)

    hjb_costs = per_path_costs(hw.GridMarkov(field))
    for i, j in np.ndindex(model.classes, model.stations):
        diff = per_path_costs(hw.StaticPriority.for_model(model, i, j)) - hjb_costs
        z = diff.mean(axis=1) / (diff.std(axis=1, ddof=1) / np.sqrt(n_paths))
        assert (z > 5.0).all(), ((i, j), z)


def _spy_producers(monkeypatch):
    """Counts the producer pools ``_run_chunk`` makes for its draws."""
    made = []

    def pool(*args, **kwargs):
        made.append((args, kwargs))
        return ThreadPoolExecutor(*args, **kwargs)

    monkeypatch.setattr(sde, "ThreadPoolExecutor", pool)
    return made


@pytest.mark.parametrize("kind", ["static", "grid"])
@pytest.mark.parametrize("B, n, draw_min", [
    (64, 1200, None),   # 128 values a step, below the threshold: drawn inline
    (200, 200, None),   # 81 steps a block: two whole blocks and a partial one
    (500, 64, None),    # 32 steps a block: two whole blocks
    (20000, 3, None),   # one step a block
    (7, 2400, 1),       # two blocks, the second partial, with the threshold lowered
])
def test_run_chunk_draw_ahead_is_byte_identical(monkeypatch, kind, B, n, draw_min):
    """Drawing the next block on a producer thread changes no byte of the
    costs, the snapshots or ``record``, and leaves the generator where the
    inline draws leave it."""
    if draw_min is not None:
        monkeypatch.setattr(sde, "_DRAW_AHEAD_MIN", draw_min)
    model, cost = n_model(), nmodel_cost()
    rng = np.random.default_rng(B)
    policy = _policy(kind, model, rng)[0]
    x0s = rng.uniform(-3.0, 3.0, (B, 2))
    made = _spy_producers(monkeypatch)

    def run(draw_ahead):
        gen = np.random.default_rng(4)
        rec = (np.empty((n, B, 2)), np.empty((n, B, 2)), np.empty((n, B, 2)))
        costs, snaps = sde._run_chunk(model, x0s, policy, n, 1e-2, gen, cost, [0, 1, n // 2, n],
                                      rec, draw_ahead=draw_ahead)
        return [costs, snaps, *rec, gen.standard_normal(3)]

    inline = run(False)
    assert not made
    threads, interval = threading.active_count(), sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # hand the GIL between the two threads as often as possible
    try:
        ahead = run(True)
    finally:
        sys.setswitchinterval(interval)
    assert threading.active_count() == threads
    K = max(1, sde._BLOCK // (2 * B))
    assert len(made) == (n > K and 2 * B >= sde._DRAW_AHEAD_MIN)
    assert all(a.tobytes() == b.tobytes() for a, b in zip(ahead, inline))


def test_ensemble_draws_ahead_only_when_chunks_run_one_at_a_time(monkeypatch):
    """Two chunks of 65536 and 14464 rows, one step a block: each gets a
    producer at one worker thread and none at two, with the same bytes."""
    model, cost = n_model(), nmodel_cost()
    policy = hw.StaticPriority.for_model(model, 0, 1)
    x0s = np.array([[0.5, -0.5], [-1.0, 0.2]])
    made = _spy_producers(monkeypatch)

    def run(threads):
        made.clear()
        parts = hw.ensemble(model, x0s, policy, 40000, 4, 1e-2, 11,
                            lambda costs, snaps, size: (costs.copy(), snaps.copy()),
                            cost=cost, snap_idx=[0, 2, 4], threads=threads)
        assert len(parts) == 2
        return [a for part in parts for a in part], len(made)

    (one, one_made), (two, two_made) = run(1), run(2)
    assert one_made == 2
    # at two threads the one pool is the chunk workers'
    assert two_made == 1 and made[0] == ((), {"max_workers": 2})
    assert all(a.tobytes() == b.tobytes() for a, b in zip(one, two))


class _FailingIndex(hw.GridMarkov):
    """A ``GridMarkov`` whose ``index`` raises from time ``fail_at`` on."""

    def __init__(self, field, fail_at):
        super().__init__(field)
        self.fail_at = fail_at

    def index(self, X, t):
        if t >= self.fail_at:
            raise RuntimeError("index failed")
        return super().index(X, t)


@pytest.mark.parametrize("entry", ["run_chunk", "ensemble"])
@pytest.mark.parametrize("fail_step", [0, 40])
def test_no_draw_thread_outlives_a_failing_run(monkeypatch, entry, fail_step):
    """A policy that raises at step 0 (the producer filling block 1) or at
    step 40 (in block 1, the producer filling block 2) propagates its error,
    and the producer thread is gone when the call returns."""
    model, cost = n_model(), nmodel_cost()
    grid = hw.Grid([-2.0, -2.0], [2.0, 2.0], [5, 5])
    rng = np.random.default_rng(12)
    u, v = np.eye(2)[rng.integers(0, 2, grid.size)], np.eye(2)[rng.integers(0, 2, grid.size)]
    dt = 1e-2
    policy = _FailingIndex(hw.PolicyField(grid=grid, u=u, v=v), (fail_step - 0.5) * dt)
    x0s = rng.uniform(-1.0, 1.0, (500, 2))  # 32 steps a block
    made = _spy_producers(monkeypatch)
    threads = threading.active_count()
    with pytest.raises(RuntimeError, match="index failed"):
        if entry == "run_chunk":
            sde._run_chunk(model, x0s, policy, 100, dt, np.random.default_rng(0), cost)
        else:
            hw.ensemble(model, x0s[:1], policy, 500, 100, dt, 0, lambda *a: None, cost=cost)
    assert len(made) == 1
    assert threading.active_count() == threads
