import numpy as np
import pytest

import hwsched as hw
from hwsched import sde
from conftest import n_model, random_tree_model, single_edge_model, smooth_control_path, smooth_driver


def uniform_controls(model, n, dt):
    point = hw.ControlPoint.uniform(model.classes, model.stations)
    return hw.ControlPath.constant(point, n, dt)


def test_zero_driver_stays_at_zero():
    model = n_model()
    n = 200
    dt = 1e-2
    traj = hw.integrate_det(model, np.zeros((n + 1, 2)), uniform_controls(model, n + 1, dt))
    for arr in (traj.x, traj.y, traj.z, traj.psi):
        assert np.abs(arr).max() == 0.0


def test_single_class_hand_integration():
    # constant unit driver, no abandonment: everything queues, state holds at one
    model = single_edge_model(mu=1.0, theta=0.0)
    n = 500
    dt = 1e-3
    w = np.ones((n + 1, 1))
    traj = hw.integrate_det(model, w, uniform_controls(model, n + 1, dt))
    np.testing.assert_allclose(traj.x, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.y, 1.0, atol=1e-12)
    np.testing.assert_allclose(traj.z, 0.0, atol=1e-12)
    np.testing.assert_allclose(traj.psi, 0.0, atol=1e-12)


def test_split_constraints_exact_at_grid_points(rng):
    for _ in range(5):
        model = random_tree_model(rng, max_nodes=9)
        n = 400
        dt = 2e-3
        w = smooth_driver(rng, model.classes, n, dt, base=(0.1, 0.5), amp=0.4)
        traj = hw.integrate_det(model, w, smooth_control_path(rng, model, n + 1, dt))
        assert (traj.y >= 0).all() and (traj.z >= 0).all()
        agg = np.minimum(traj.y.sum(axis=1), traj.z.sum(axis=1))
        assert np.abs(agg).max() == 0.0
        np.testing.assert_allclose(traj.psi.sum(axis=2), traj.x - traj.y, atol=1e-10)
        np.testing.assert_allclose(traj.psi.sum(axis=1), -traj.z, atol=1e-10)


def test_reconstruction_consistency(rng):
    """Rebuilding the flows from the splits and re-integrating the dynamics
    reproduces the stepped state."""
    model = random_tree_model(rng, max_nodes=8)
    n = 300
    dt = 2e-3
    w = smooth_driver(rng, model.classes, n, dt, base=(0.1, 0.4), amp=0.3)
    traj = hw.integrate_det(model, w, smooth_control_path(rng, model, n + 1, dt))
    psi2 = np.stack(
        [hw.solve_psi(model, traj.x[k] - traj.y[k], -traj.z[k]) for k in range(n + 1)]
    )
    np.testing.assert_allclose(psi2, traj.psi, atol=1e-9)
    int_psi = np.concatenate(
        [np.zeros((1, model.classes, model.stations)), np.cumsum(psi2[:-1] * dt, axis=0)]
    )
    int_y = np.concatenate([np.zeros((1, model.classes)), np.cumsum(traj.y[:-1] * dt, axis=0)])
    x_rebuilt = traj.w - (model.mu * int_psi).sum(axis=2) - model.theta * int_y
    np.testing.assert_allclose(x_rebuilt, traj.x, atol=1e-10)


def test_control_length_mismatch():
    model = n_model()
    with pytest.raises(ValueError):
        hw.integrate_det(model, np.zeros((101, 2)), uniform_controls(model, 100, 1e-2))


def test_nonidling_single_edge():
    model = single_edge_model()
    n = 1000
    dt = 1e-3
    t = dt * np.arange(n + 1)
    w = (1.0 + t)[:, None]
    assert hw.check_nonidling(model, w, uniform_controls(model, n + 1, dt)) == 0.0


def test_nonidling_n_model_random_controls(rng):
    model = n_model()
    assert hw.nonidling_hypothesis(model) == []
    n = 1000
    dt = 1e-3
    t = dt * np.arange(n + 1)
    w = np.tile((1.0 + t)[:, None], (1, 2))
    for _ in range(5):
        controls = smooth_control_path(rng, model, n + 1, dt)
        assert hw.check_nonidling(model, w, controls) <= 1e-8


def test_nonidling_rejects_bad_drivers(rng):
    model = n_model()
    n = 100
    dt = 1e-2
    t = dt * np.arange(n + 1)
    controls = uniform_controls(model, n + 1, dt)
    flat = np.tile(np.ones(n + 1)[:, None], (1, 2))
    with pytest.raises(ValueError):
        hw.check_nonidling(model, flat, controls)
    negative_start = np.tile((t - 0.5)[:, None], (1, 2))
    with pytest.raises(ValueError):
        hw.check_nonidling(model, negative_start, controls)


def test_decreasing_driver_creates_idleness(rng):
    model = n_model()
    n = 1000
    dt = 1e-3
    t = dt * np.arange(n + 1)
    w = np.column_stack([1.0 - 3.0 * t, 1.0 + t])
    traj = hw.integrate_det(model, w, smooth_control_path(rng, model, n + 1, dt))
    assert traj.max_idleness() > 0.1


def test_nonidling_hypothesis_reports_gaps():
    deep_mu = np.zeros((3, 2))
    deep_psi = np.zeros((3, 2))
    for i, j in ((0, 0), (1, 0), (1, 1), (2, 1)):
        deep_mu[i, j] = 1.0
        deep_psi[i, j] = 0.5
    lam, nu, xs = hw.fluid_from_flows(deep_mu, deep_psi)
    deep = hw.TreeModel(
        classes=3, stations=2, edges=((0, 0), (1, 0), (1, 1), (2, 1)), mu=deep_mu,
        theta=[0] * 3, ell=[0] * 3, r=[1] * 3, gamma=1.0, lam=lam, nu=nu,
        x_star=xs, psi_star=deep_psi,
    )
    assert hw.nonidling_hypothesis(deep)  # diameter 5: guarantee not applicable
    big_theta = n_model(theta=(1.5, 2.5))
    assert hw.nonidling_hypothesis(big_theta)


def test_counterexample_values():
    rep = hw.counterexample_flow(1.0, horizon=2.0, dt=1e-3)
    k1000 = 1000  # t = 1
    assert rep.x[k1000, 0] == pytest.approx((1 - np.exp(-2)) / 2, abs=1e-12)
    assert rep.psi[k1000, 0, 1] == pytest.approx(-(1 + np.exp(-2)) / 2, abs=1e-12)
    assert rep.max_residual <= 1e-12
    assert rep.driver_sup == 0.0


def test_counterexample_zero_k_is_trivial():
    rep = hw.counterexample_flow(0.0, horizon=1.0, dt=1e-2)
    assert rep.sup_state_norm == 0.0
    assert rep.max_residual == 0.0


def test_counterexample_past_max_steps_is_refused(monkeypatch):
    """The counterexample stores every step of its grid: past
    ``sde.MAX_STEPS`` steps (lowered here) it raises a ``ValueError`` naming
    the limit."""
    monkeypatch.setattr(sde, "MAX_STEPS", 10)
    assert len(hw.counterexample_flow(1.0, horizon=0.1, dt=0.01).times) == 11
    with pytest.raises(ValueError, match="MAX_STEPS"):
        hw.counterexample_flow(1.0, horizon=0.11, dt=0.01)


def test_counterexample_scales_with_k():
    rep = hw.counterexample_flow(100.0, horizon=5.0, dt=1e-3)
    assert rep.sup_state_norm == pytest.approx(100 * (1 - np.exp(-10)), rel=1e-9)
    assert rep.max_residual <= 1e-8


@pytest.mark.parametrize("horizon, dt", [(1e-4, 1e-3), (1.0, 0.0), (1.0, -1.0),
                                         (1.0, np.nan), (np.nan, 1e-3)])
def test_counterexample_rejects_bad_run_length(horizon, dt):
    with pytest.raises(ValueError):
        hw.counterexample_flow(1.0, horizon=horizon, dt=dt)


def test_control_path_rejects_weights_off_the_simplex():
    u = np.full((4, 2), 0.5)
    v = np.full((4, 2), 0.5)
    hw.ControlPath(1e-2, u, v)
    for bad in (np.nan, -0.5):
        w = u.copy()
        w[1, 0] = bad
        with pytest.raises(ValueError, match="control weights"):
            hw.ControlPath(1e-2, w, v)
        with pytest.raises(ValueError, match="control weights"):
            hw.ControlPath(1e-2, u, w)
    with pytest.raises(ValueError):
        hw.ControlPath(1e-2, u[:0], v[:0])


def test_growth_report_constant_series():
    times = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
    fit = hw.growth_report(times, np.full(5, 3.7))
    assert abs(fit.poly_exponent) < 1e-12
    assert abs(fit.exp_rate) < 1e-12


def test_growth_report_quadratic_series():
    times = np.geomspace(1.0, 64.0, 7)
    fit = hw.growth_report(times, (1 + times) ** 2)
    assert fit.poly_exponent == pytest.approx(2.0, abs=0.05)
    assert fit.polynomial_preferred


def test_growth_report_exponential_series():
    times = np.geomspace(1.0, 32.0, 6)
    fit = hw.growth_report(times, np.exp(0.5 * times))
    assert not fit.polynomial_preferred
    assert fit.exp_rate == pytest.approx(0.5, abs=1e-9)


def test_growth_report_input_validation():
    with pytest.raises(ValueError):
        hw.growth_report([1.0, 2.0, 4.0], [1.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        hw.growth_report([1.0, 2.0, 4.0, 8.0], [1.0, 0.0, 1.0, 1.0])
    with pytest.raises(ValueError):
        hw.growth_report([1.0, 2.0, 2.0, 8.0], [1.0, 1.0, 1.0, 1.0])


def test_trajectory_csv_layout(tmp_path):
    model = n_model()
    n = 10
    dt = 0.1
    w = np.ones((n + 1, 2))
    traj = hw.integrate_det(model, w, uniform_controls(model, n + 1, dt))
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().splitlines()
    header = lines[0].split(",")
    assert header[0] == "t"
    assert len(lines) == n + 2
    assert len(header) == 1 + 2 + 2 + 2 + 2 + 4


def reference_integrate_det(model, w, controls):
    """The per-step loop: at each grid point the splits and flows from the lift
    at the current state, then the state from the accumulated integrals."""
    n = len(w) - 1
    dt = controls.dt
    G = hw.lift_matrix(model)
    I, J = model.classes, model.stations

    x = np.empty_like(w)
    y = np.empty((n + 1, I))
    z = np.empty((n + 1, J))
    psi = np.empty((n + 1, I, J))
    int_psi = np.zeros((I, J))
    int_y = np.zeros(I)

    x[0] = w[0]
    for k in range(n + 1):
        s = x[k].sum()
        y[k] = max(s, 0.0) * controls.u[k]
        z[k] = max(-s, 0.0) * controls.v[k]
        totals = np.concatenate([x[k] - y[k], -z[k]])
        psi[k] = G @ totals
        if k < n:
            int_psi += psi[k] * dt
            int_y += y[k] * dt
            x[k + 1] = w[k + 1] - (model.mu * int_psi).sum(axis=1) - model.theta * int_y
    return hw.DetTrajectory(dt=dt, w=w, x=x, y=y, z=z, psi=psi)


def assert_matches_reference(model, w, controls):
    traj = hw.integrate_det(model, w, controls)
    ref = reference_integrate_det(model, w, controls)
    for name in ("x", "y", "z", "psi"):
        got, want = getattr(traj, name), getattr(ref, name)
        scale = np.abs(want).max()
        gap = np.abs(got - want).max()
        assert gap <= 1e-12 * scale if scale else gap == 0.0, (name, gap, scale)
    return ref


def test_integrate_det_matches_per_step_loop(rng):
    for _ in range(20):
        model = random_tree_model(rng, max_nodes=9)
        n = 300
        dt = 2e-3
        w = smooth_driver(rng, model.classes, n, dt, base=(0.1, 0.5), amp=0.4)
        assert_matches_reference(model, w, smooth_control_path(rng, model, n + 1, dt))

    model = n_model()
    n = 2000
    dt = 1e-3
    t = dt * np.arange(n + 1)
    w = np.column_stack([0.5 * np.cos(3.0 * t), 0.2 - 0.3 * t])
    ref = assert_matches_reference(model, w, smooth_control_path(rng, model, n + 1, dt))
    s = ref.x.sum(axis=1)
    assert (s > 0).any() and (s < 0).any()
