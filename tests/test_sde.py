import numpy as np
import pytest

import hwsched as hw
from hwsched import sde
from conftest import n_model, single_class_fixture, single_edge_model


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
