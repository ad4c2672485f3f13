import os
import subprocess
import sys
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
                                                   (10, 1e-2, (-1,)), (10, 1e-2, (11,))])
def test_ensemble_rejects_bad_sizes(n_paths, dt, snap_idx):
    model, _ = single_class_fixture()
    policy = hw.StaticPriority.for_model(model, 0, 0)
    with pytest.raises(ValueError):
        hw.ensemble(model, [[0.0]], policy, n_paths, 10, dt, 0, sde.path_snapshots,
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


def test_grid_markov_nearest_and_blend():
    grid = hw.Grid([-1.0], [1.0], [3])
    u = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
    v = np.array([[1.0], [1.0], [1.0]])
    field = hw.PolicyField(grid=grid, u=u, v=v)
    nearest = hw.GridMarkov(field)
    U, V = nearest.controls(np.array([[-0.9], [0.2], [5.0]]), 0.0)
    np.testing.assert_allclose(U, [[1, 0], [0, 1], [0, 1]])
    blended = hw.GridMarkov(field, blend=True)
    U2, _ = blended.controls(np.array([[-0.5]]), 0.0)
    np.testing.assert_allclose(U2, [[0.5, 0.5]])
    np.testing.assert_allclose(U2.sum(axis=1), 1.0)


def test_switching_control_deterministic():
    model = n_model()
    a = hw.SwitchingControl(model, 0.5, 4.0, seed=7)
    b = hw.SwitchingControl(model, 0.5, 4.0, seed=7)
    X = np.zeros((2, 2))
    for t in (0.0, 0.7, 2.3):
        np.testing.assert_array_equal(a.controls(X, t)[0], b.controls(X, t)[0])


def test_default_priority_edge_prefers_dominating_rate():
    model = n_model(theta=(1.5, 0.5))  # class 0 abandonment beats its only rate
    assert sde.default_priority_edge(model) == (1, 0)
    assert sde.default_priority_edge(n_model()) == (0, 0)


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
    blend = kind == "blend"
    return hw.GridMarkov(hw.PolicyField(grid=grid, u=u, v=v), blend=blend), not blend


@settings(max_examples=120, deadline=None)
@given(model_name=st.sampled_from(["n_model", "tree3", "single", "big"]),
       kind=st.sampled_from(["uniform", "static", "switch", "grid", "blend", "duck"]),
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


def _block_case(kind, B):
    model, cost = n_model(), nmodel_cost()
    rng = np.random.default_rng(B)
    if kind in ("grid", "blend"):
        # the blend's dense rows take the convex cost's |s|^p, |s|^q weights
        policy = _policy(kind, model, rng)[0]
        if kind == "blend":
            cost = hw.RunningCostSpec(c=cost.c, d=cost.d, p=2.0, q=1.5, kappa=0.4, constant=0.1)
    elif kind == "switch":
        policy = hw.SwitchingControl(model, 0.13, 1.0, seed=1)
    else:
        policy = hw.StaticPriority.for_model(model, 1, 0)
    return model, cost, policy, rng.uniform(-3.0, 3.0, (B, 2))


@pytest.mark.parametrize("kind", ["static", "switch", "grid", "blend"])
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
