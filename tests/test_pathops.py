import numpy as np
import pytest

import hwsched as hw
from hwsched.detsys import identity_residual
from conftest import (
    n_model,
    random_tree_model,
    single_edge_model,
    smooth_control_path,
    smooth_driver,
)


def test_integrate_constant():
    out = hw.integrate(np.ones(5), 0.5)
    np.testing.assert_allclose(out, [0.0, 0.5, 1.0, 1.5, 2.0])


def test_integrate_linear_exact():
    t = np.linspace(0, 1, 11)
    out = hw.integrate(t, 0.1)
    assert out[-1] == pytest.approx(0.5, abs=1e-15)


def test_integrate_exponential():
    dt = 1e-3
    t = dt * np.arange(1001)
    out = hw.integrate(np.exp(t), dt)
    assert out[-1] == pytest.approx(np.e - 1.0, abs=1e-6)


def test_apply_rate_zero_is_identity(rng):
    f = rng.normal(size=101)
    np.testing.assert_array_equal(hw.apply_rate(0.0, f, 0.01), f)


def test_apply_rate_constant_path():
    dt = 0.01
    t = dt * np.arange(101)
    out = hw.apply_rate(1.0, np.ones(101), dt)
    np.testing.assert_allclose(out, 1.0 + t, atol=1e-12)


def test_apply_rates_commutes(rng):
    f = rng.normal(size=501)
    a = hw.apply_rates([1.0, 2.0], f, 1e-2)
    b = hw.apply_rates([2.0, 1.0], f, 1e-2)
    rel = np.abs(a - b).max() / np.abs(a).max()
    assert rel < 1e-10


def test_invert_rate_exponential_decay():
    dt = 1e-3
    out = hw.invert_rate(1.0, np.ones(1001), dt)
    assert out[-1] == pytest.approx(np.exp(-1.0), abs=1e-6)


def test_invert_rate_zero():
    np.testing.assert_array_equal(hw.invert_rate(2.0, np.zeros(100), 0.01), np.zeros(100))


def test_invert_rate_round_trip(rng):
    dt = 1e-3
    w = rng.normal(size=2001).cumsum() * 0.02
    for mu in (0.5, 1.0, 3.0):
        back = hw.apply_rate(mu, hw.invert_rate(mu, w, dt), dt)
        assert np.abs(back - w).max() < 20 * dt


def test_invert_rate_sup_bound(rng):
    dt = 1e-3
    for _ in range(10):
        w = rng.normal(size=1501).cumsum() * 0.05
        mu = rng.uniform(0.2, 4.0)
        out = hw.invert_rate(mu, w, dt)
        assert np.abs(out).max() <= 2 * np.abs(w).max() * (1 + mu * dt) + 1e-12


def test_invert_rate_rejects_nonpositive():
    with pytest.raises(ValueError):
        hw.invert_rate(0.0, np.ones(10), 0.1)
    for mu in (np.nan, np.inf, -1.0):
        with pytest.raises(ValueError):
            hw.invert_rate(mu, np.ones(10), 0.1)
    for dt in (np.nan, np.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="dt must be positive"):
            hw.invert_rate(1.0, np.ones(10), dt)


@pytest.mark.parametrize("dt", [0.0, -1.0, np.nan, np.inf])
def test_integrate_rejects_bad_step(dt):
    with pytest.raises(ValueError, match="dt must be positive"):
        hw.integrate(np.ones(3), dt)


def test_expansion_coefficients_values():
    np.testing.assert_allclose(hw.expansion_coefficients([1.0, 2.0]), [1.0, 3.0, 2.0])
    np.testing.assert_allclose(hw.expansion_coefficients([]), [1.0])


def test_expansion_matches_operator_application(rng):
    dt = 1e-3
    f = rng.normal(size=1001)
    for _ in range(5):
        rates = rng.uniform(0.2, 3.0, rng.integers(1, 5))
        coeffs = hw.expansion_coefficients(rates)
        acc = coeffs[0] * f
        power = f
        for cn in coeffs[1:]:
            power = hw.integrate(power, dt)
            acc = acc + cn * power
        direct = hw.apply_rates(rates, f, dt)
        assert np.abs(acc - direct).max() < 1e-8


def test_build_sequences_single_edge_base_case():
    seqs = hw.build_sequences(single_edge_model(mu=2.0, theta=0.3))
    assert seqs.driver_rates == ((),)
    assert seqs.queue_rates == ((0.3,),)
    assert seqs.idle_rates == ((2.0,),)
    assert seqs.root == 0


def test_build_sequences_n_model():
    seqs = hw.build_sequences(n_model(mu=(1.0, 2.0, 3.0), theta=(0.5, 0.5)))
    assert seqs.driver_rates == ((2.0,), (1.0,))
    assert seqs.queue_rates == ((0.5, 2.0), (0.5, 1.0))
    assert seqs.idle_rates == ((1.0, 2.0), (1.0, 3.0))


def test_sequences_rates_come_from_edges(rng):
    for _ in range(10):
        model = random_tree_model(rng)
        seqs = hw.build_sequences(model)
        edge_rates = {float(model.mu[i, j]) for i, j in model.edges}
        for seq in seqs.driver_rates + seqs.idle_rates:
            assert set(seq) <= edge_rates
        for i, seq in enumerate(seqs.queue_rates):
            assert set(seq) <= edge_rates | {float(model.theta[i])}


def test_residual_zero_on_zero_data():
    seqs = hw.build_sequences(n_model())
    zero = np.zeros((2, 101))
    res = hw.integral_residual(seqs, zero, zero, zero, 0.01)
    np.testing.assert_array_equal(res, np.zeros(101))


def test_residual_grid_mismatch():
    seqs = hw.build_sequences(n_model())
    with pytest.raises(ValueError):
        hw.integral_residual(seqs, np.zeros((2, 50)), np.zeros((2, 51)), np.zeros((2, 51)), 0.01)


def test_residual_vanishes_on_exact_operator_data(rng):
    """Data built to satisfy the per-node rate equations exactly on the grid
    must satisfy the stacked identity to rounding, for any tree."""
    dt = 1e-3
    n = 800
    for _ in range(5):
        model = random_tree_model(rng, max_nodes=10, theta_max=0.4)
        seqs = hw.build_sequences(model)
        I, J = model.classes, model.stations
        psi = rng.normal(0, 1, (I, J, n + 1)) * model.edge_mask[..., None]
        y = np.abs(rng.normal(0, 1, (I, n + 1)))
        z = -psi.sum(axis=0)
        w = np.empty((I, n + 1))
        for i in range(I):
            acc = hw.apply_rate(model.theta[i], y[i], dt)
            for j in range(J):
                if model.edge_mask[i, j]:
                    acc = acc + hw.apply_rate(model.mu[i, j], psi[i, j], dt)
            w[i] = acc
        res = hw.integral_residual(seqs, w, y, z, dt)
        scale = max(np.abs(w).max(), 1.0)
        assert np.abs(res).max() < 1e-10 * scale


def test_residual_first_order_on_trajectories(rng):
    model = n_model()
    seqs = hw.build_sequences(model)
    sup = {}
    driver_rng_state = rng.bit_generator.state
    for dt in (2e-3, 1e-3):
        rng.bit_generator.state = driver_rng_state
        n = int(round(1.0 / dt))
        w = smooth_driver(rng, 2, n, dt, base=(0.2, 0.5), amp=0.4)
        controls = smooth_control_path(rng, model, n + 1, dt)
        traj = hw.integrate_det(model, w, controls)
        sup[dt] = np.abs(identity_residual(seqs, traj)).max()
    ratio = sup[2e-3] / sup[1e-3]
    assert 1.6 < ratio < 2.4
    assert sup[1e-3] < 25 * 1e-3


def test_station_uniform_reduction():
    model = n_model(mu=(1.5, 1.5, 2.5), theta=(0.0, 0.0))
    seqs = hw.station_uniform_sequences(model)
    assert seqs.driver_rates == ((), ())
    assert seqs.idle_rates == ((1.5,), (2.5,))
    with pytest.raises(ValueError):
        hw.station_uniform_sequences(n_model())  # rates not station-uniform


def test_class_uniform_reduction():
    model = n_model(mu=(0.8, 1.2, 1.2), theta=(0.0, 0.0))
    seqs = hw.class_uniform_sequences(model)
    assert seqs.driver_rates == ((1.2,), (0.8,))
    assert seqs.idle_rates == ((0.8, 1.2), (0.8, 1.2))
    with pytest.raises(ValueError):
        hw.class_uniform_sequences(n_model())


def test_series_residual_matches_composed(rng):
    seqs = hw.build_sequences(random_tree_model(rng, max_nodes=8))
    I = len(seqs.driver_rates)
    J = len(seqs.idle_rates)
    w = rng.normal(0, 1, (I, 501))
    y = rng.normal(0, 1, (I, 501))
    z = rng.normal(0, 1, (J, 501))
    a = hw.integral_residual(seqs, w, y, z, 1e-3)
    b = hw.series_residual(seqs, w, y, z, 1e-3)
    assert np.abs(a - b).max() < 1e-8


def test_counterexample_flows_rejected_by_tree_constraints():
    """The circulating bipartite flow cannot live on the tree obtained by
    dropping one activity: the class flow totals no longer match, and the
    tree dynamics with the same zero driver pin the state at zero."""
    rep = hw.counterexample_flow(1.0, horizon=2.0, dt=1e-3)
    sub_psi = rep.psi.copy()
    sub_psi[:, 1, 1] = 0.0  # drop the second class's second activity
    row_gap = np.abs(sub_psi.sum(axis=2) - rep.x).max()
    assert row_gap > 0.4

    mu = np.array([[1.0, 2.0], [1.0, 0.0]])
    psf = np.array([[0.4, 0.4], [0.4, 0.0]])
    lam, nu, xs = hw.fluid_from_flows(mu, psf)
    subtree = hw.TreeModel(
        classes=2, stations=2, edges=((0, 0), (0, 1), (1, 0)), mu=mu,
        theta=[0, 0], ell=[0, 0], r=[1, 1], gamma=1.0, lam=lam, nu=nu,
        x_star=xs, psi_star=psf,
    )
    n = len(rep.times) - 1
    w = np.zeros((n + 1, 2))
    controls = hw.ControlPath.constant(hw.ControlPoint.uniform(2, 2), n + 1, 1e-3)
    traj = hw.integrate_det(subtree, w, controls)
    assert np.abs(traj.x).max() == 0.0
    assert rep.sup_state_norm > 0.8


def test_sequences_json_roundtrip(tmp_path):
    seqs = hw.build_sequences(n_model())
    path = tmp_path / "seqs.json"
    seqs.save(path)
    import json

    loaded = hw.OperatorSequences.from_dict(json.loads(path.read_text()))
    assert loaded == seqs
