import numpy as np
import pytest

import hwsched as hw
from hwsched.ctmc import _largest_remainder
from conftest import n_model, single_edge_model


def test_scaling_rates():
    model = n_model()
    scaling = hw.ScalingSpec(100, [0.5, -0.5], np.zeros((2, 2)))
    np.testing.assert_allclose(scaling.arrival_rates(model), 100 * model.lam + 10 * np.array([0.5, -0.5]))
    np.testing.assert_allclose(scaling.service_rates(model), model.mu)
    np.testing.assert_array_equal(scaling.server_counts(model), [100, 100])


def test_initial_headcounts_round_and_report():
    model = single_edge_model()
    scaling = hw.ScalingSpec.centered(model, 100)
    X, realized = hw.initial_headcounts(model, scaling, [0.26])
    assert X[0] == 103
    assert realized[0] == pytest.approx(0.3)


def test_largest_remainder_preserves_total():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.dirichlet(np.ones(4))
        total = int(rng.integers(0, 50))
        out = _largest_remainder(w, total)
        assert out.sum() == total
        assert (out >= 0).all()
        assert np.abs(out - w * total).max() <= 1.0


def test_single_server_completion_steps_down():
    # one server, no arrivals at size one: the only event is the completion
    model = single_edge_model(mu=1.0, theta=0.0)
    scaling = hw.ScalingSpec(1, [-1.0], np.zeros((1, 1)))  # arrival rate exactly zero
    assert scaling.arrival_rates(model)[0] == pytest.approx(0.0)
    rule = hw.GreedyPriority(model, scaling)
    path = hw.simulate_ctmc(model, scaling, rule, [0.0], 50.0, seed=1,
                            sample_times=[0.0, 50.0])
    assert path.x_hat[0, 0] == 0.0
    assert path.x_hat[-1, 0] == -1.0
    assert path.events == 1


def test_identities_hold_after_every_event():
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 50)
    for rule in (
        hw.GreedyPriority(model, scaling, 0, 0),
        hw.ImbalanceTracking(model, scaling, hw.ControlPoint.uniform(2, 2)),
    ):
        path = hw.simulate_ctmc(model, scaling, rule, [0.5, -0.5], 0.5, seed=5,
                                sample_times=[0.25, 0.5], check=True)
        assert path.events > 0


def test_work_conservation_near_fluid_point():
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 200)
    caps = scaling.server_counts(model)
    rng = np.random.default_rng(3)
    rules = (
        hw.GreedyPriority(model, scaling, 0, 0),
        hw.GreedyPriority(model, scaling, 1, 1),
        hw.ImbalanceTracking(model, scaling, hw.ControlPoint.uniform(2, 2)),
    )
    for _ in range(100):
        X = np.rint(200 * model.x_star + np.sqrt(200) * rng.normal(0, 1, 2)).astype(int)
        X = np.maximum(X, 0)
        for rule in rules:
            Psi = rule.assign(X)
            Y = X - Psi.sum(axis=1)
            Z = caps - Psi.sum(axis=0)
            assert (Psi >= 0).all() and (Y >= 0).all() and (Z >= 0).all()
            assert min(Y.sum(), Z.sum()) == 0


def test_single_class_aggregate_identity():
    # headcount identity: X + idle = capacity + queue, scaled form
    model = single_edge_model()
    scaling = hw.ScalingSpec.centered(model, 64)
    rule = hw.GreedyPriority(model, scaling)
    path = hw.simulate_ctmc(model, scaling, rule, [0.5], 1.0, seed=2,
                            sample_times=np.linspace(0, 1, 9))
    np.testing.assert_allclose(
        path.x_hat[:, 0] + path.z_hat[:, 0], path.y_hat[:, 0], atol=1e-12
    )


def test_tracking_rule_splits_by_weights():
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 100)
    point = hw.ControlPoint([0.75, 0.25], [1.0, 0.0])
    rule = hw.ImbalanceTracking(model, scaling, point)
    caps = scaling.server_counts(model)
    X = np.array([120, 140])  # totals 260 against capacity 200: queue 60
    Psi = rule.assign(X)
    Y = X - Psi.sum(axis=1)
    Z = caps - Psi.sum(axis=0)
    assert Y.sum() == 60 and Z.sum() == 0
    np.testing.assert_array_equal(Y, [45, 15])

    # idle side: spread idleness across stations by the weights
    point2 = hw.ControlPoint([1.0, 0.0], [0.3, 0.7])
    rule2 = hw.ImbalanceTracking(model, scaling, point2)
    X2 = np.array([60, 100])  # forty short of capacity
    Psi2 = rule2.assign(X2)
    Z2 = caps - Psi2.sum(axis=0)
    np.testing.assert_array_equal(Z2, [12, 28])
    assert (X2 - Psi2.sum(axis=1)).sum() == 0


def test_tracking_rule_infeasible_targets_fall_back():
    # class 0 demands more than its only station can hold: targets cannot be
    # met on the tree, but the fallback still yields a valid, work-conserving
    # assignment
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 100)
    caps = scaling.server_counts(model)
    rule = hw.ImbalanceTracking(model, scaling, hw.ControlPoint([0.25, 0.75], [1.0, 0.0]))
    X = np.array([120, 140])
    Psi = rule.assign(X)
    Y = X - Psi.sum(axis=1)
    Z = caps - Psi.sum(axis=0)
    assert (Psi >= 0).all() and (Y >= 0).all() and (Z >= 0).all()
    assert min(Y.sum(), Z.sum()) == 0


def test_replications_deterministic():
    model = single_edge_model()
    scaling = hw.ScalingSpec.centered(model, 25)
    rule = hw.GreedyPriority(model, scaling)
    a = hw.run_replications(model, scaling, rule, [0.0], 1.0, 5, seed=9, sample_times=[1.0])
    b = hw.run_replications(model, scaling, rule, [0.0], 1.0, 5, seed=9, sample_times=[1.0])
    np.testing.assert_array_equal(a, b)
    assert np.std(a) > 0


def test_compare_samples_identical_inputs():
    rng = np.random.default_rng(1)
    samples = rng.normal(0, 1, (500, 2, 1))
    report = hw.compare_samples(samples, samples.copy(), [0.5, 1.0])
    assert report.max_mean_z == 0.0
    assert report.max_var_z == 0.0


def test_compare_samples_shape_checks():
    with pytest.raises(ValueError):
        hw.compare_samples(np.zeros((10, 2, 1)), np.zeros((10, 3, 1)), [0.5, 1.0])
    with pytest.raises(ValueError):
        hw.compare_samples(np.zeros((10, 2, 1)), np.zeros((10, 2, 1)), [1.0])


def test_scaled_moments_approach_diffusion(rng):
    """Terminal mean and variance drift toward the diffusion values as the
    system grows; at moderate size they already sit within a few errors."""
    from hwsched import sde

    model = single_edge_model(mu=1.0, theta=0.0, r=np.sqrt(2.0))
    policy = hw.StaticPriority.for_model(model, 0, 0)
    reps = 2500
    diff = np.concatenate(sde.ensemble(model, np.zeros((1, 1)), policy, 8192, 500, 2e-3, 77,
                                       sde.path_snapshots, snap_idx=[500]))
    gaps = {}
    for n in (25, 400):
        scaling = hw.ScalingSpec.centered(model, n)
        rule = hw.GreedyPriority(model, scaling)
        samples = hw.run_replications(model, scaling, rule, [0.0], 1.0, reps, seed=21, sample_times=[1.0])
        report = hw.compare_samples(samples, diff, [1.0])
        gaps[n] = abs(report.var_a[0, 0] - report.var_b[0, 0])
        assert report.max_mean_z < 4.0
    assert gaps[400] < gaps[25] + 0.15
