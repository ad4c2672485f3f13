import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import hwsched as hw
from conftest import n_model, nmodel_cost, random_tree_model, single_class_fixture, tree3_model


def two_class_one_station(c=(1.0, 1.0), theta=(0.0, 0.0), mu=(1.0, 1.0)):
    mu_mat = np.array([[mu[0]], [mu[1]]])
    psi = np.array([[0.5], [0.5]])
    lam, nu, xs = hw.fluid_from_flows(mu_mat, psi)
    model = hw.TreeModel(
        classes=2, stations=1, edges=((0, 0), (1, 0)), mu=mu_mat, theta=theta,
        ell=[0, 0], r=[1.0, 1.0], gamma=1.0, lam=lam, nu=nu, x_star=xs, psi_star=psi,
    )
    return model, hw.RunningCostSpec(c=c, d=[1.0])


def test_grid_validation():
    with pytest.raises(ValueError):
        hw.Grid([-1.0], [1.0], [2])
    with pytest.raises(ValueError):
        hw.Grid([1.0], [2.0], [5])  # misses the zero-imbalance hyperplane
    with pytest.raises(ValueError):
        hw.Grid([-1.0], [-2.0], [5])


def test_default_grid_covers_discounted_bulk():
    model, _ = single_class_fixture()
    grid = hw.default_grid(model, points_per_dim=121)
    np.testing.assert_allclose(grid.lows, [-6.0])
    np.testing.assert_allclose(grid.highs, [6.0])


def test_hamiltonian_gradient_free_tie_break():
    model = n_model()
    cost = hw.RunningCostSpec(c=[0, 0], d=[0, 0], constant=2.0)
    H, point = hw.hamiltonian(model, cost, [0.5, 0.5], [0.0, 0.0])
    assert H == pytest.approx(2.0)
    assert point.u.tolist() == [1.0, 0.0]
    assert point.v.tolist() == [1.0, 0.0]


def test_hamiltonian_single_class_closed_form():
    model, cost = single_class_fixture()
    for x in (-1.5, 0.3):
        for p in (-2.0, 1.0):
            H, _ = hw.hamiltonian(model, cost, [x], [p])
            b = hw.drift(model, [x], ([1.0], [1.0]))[0]
            expected = b * p + cost.evaluate(np.array([x]), np.array([1.0]), np.array([1.0]))
            assert H == pytest.approx(float(expected), abs=1e-12)


def test_hamiltonian_vertex_matches_dense_simplex_search(rng):
    model = n_model()
    cost = nmodel_cost()
    ts = np.linspace(0.0, 1.0, 101)
    for _ in range(5):
        x = rng.normal(0, 1.5, 2)
        p = rng.normal(0, 2, 2)
        H, point = hw.hamiltonian(model, cost, x, p)
        best = np.inf
        for tu in ts:
            u = np.array([tu, 1 - tu])
            for tv in ts:
                v = np.array([tv, 1 - tv])
                val = hw.drift(model, x, (u, v)) @ p + float(cost.evaluate(x, u, v))
                best = min(best, val)
        assert H <= best + 1e-9


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 30))
def test_candidate_rows_match_full_vertex_search(seed, rows):
    rng = np.random.default_rng(seed)
    model = random_tree_model(rng, max_nodes=9)
    I, J = model.classes, model.stations
    cost = hw.RunningCostSpec(
        c=rng.uniform(0.0, 3.0, I) * (rng.random(I) < 0.8),
        d=rng.uniform(0.0, 3.0, J) * (rng.random(J) < 0.8),
        kappa=rng.choice([0.0, 0.7]), constant=rng.choice([0.0, 0.2]),
    )
    X = rng.normal(0.0, 2.0, (rows, I))
    P = rng.normal(0.0, 3.0, (rows, I))
    # rows with an imbalance of exactly zero: the origin, or +a and -a
    for k in np.flatnonzero(rng.random(rows) < 0.3):
        X[k] = 0.0
        if I > 1:
            i, j = rng.choice(I, 2, replace=False)
            X[k, i] = rng.normal(0.0, 2.0)
            X[k, j] = -X[k, i]
    P[rng.random(rows) < 0.2] = 0.0
    H, U, V = hw.hamiltonian_field(model, cost, X, P)

    # reference: every vertex pair in lexicographic order, flat argmin
    vals = np.empty((I * J, rows))
    for i in range(I):
        for j in range(J):
            Uv = np.zeros((rows, I))
            Vv = np.zeros((rows, J))
            Uv[:, i] = 1.0
            Vv[:, j] = 1.0
            vals[i * J + j] = (hw.drift_batch(model, X, Uv, Vv) * P).sum(axis=1)
            vals[i * J + j] += cost.evaluate(X, Uv, Vv)
    best = vals.argmin(axis=0)
    assert H.tobytes() == vals[best, np.arange(rows)].tobytes()
    assert U.tobytes() == np.eye(I)[best // J].tobytes()
    assert V.tobytes() == np.eye(J)[best % J].tobytes()


def test_hamiltonian_convex_cost_refinement(rng):
    model = n_model()
    cost = hw.RunningCostSpec(c=[2.0, 1.0], d=[1.0, 3.0], p=2.0, q=2.0)
    for _ in range(4):
        x = rng.normal(0, 1.5, 2)
        p = rng.normal(0, 2, 2)
        H, point = hw.hamiltonian(model, cost, x, p)

        def objective(t):
            u = np.abs(t[:2]) / np.abs(t[:2]).sum()
            v = np.abs(t[2:]) / np.abs(t[2:]).sum()
            return hw.drift(model, x, (u, v)) @ p + float(cost.evaluate(x, u, v))

        best = np.inf
        for _ in range(12):
            t0 = rng.uniform(0.05, 1.0, 4)
            res = minimize(objective, t0, method="Nelder-Mead",
                           options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000})
            best = min(best, res.fun)
        assert H <= best + 1e-5


def test_extrapolation_needs_four_points():
    model = n_model()
    with pytest.raises(ValueError, match="at least 4 points"):
        hw.solve_hjb(model, nmodel_cost(), hw.default_grid(model, 3), boundary="extrapolate")
    sol = hw.solve_hjb(model, nmodel_cost(), hw.default_grid(model, 4), boundary="extrapolate")
    assert sol.report.converged and np.isfinite(sol.value.values).all()


def test_constant_cost_exact_solution():
    model, _ = single_class_fixture()
    cost = hw.RunningCostSpec(c=[0.0], d=[0.0], constant=1.0)
    sol = hw.solve_hjb(model, cost, hw.Grid([-6.0], [6.0], [201]), boundary="extrapolate")
    assert np.abs(sol.value.values - 1.0).max() < 1e-10
    assert hw.pde_residual(sol.value, model, cost) < 1e-10


def test_interior_residual_first_order_in_spacing():
    model, cost = single_class_fixture()
    resid = []
    for pts in (301, 601):
        sol = hw.solve_hjb(model, cost, hw.Grid([-6.0], [6.0], [pts]), boundary="extrapolate")
        resid.append(hw.pde_residual(sol.value, model, cost, margin=2))
    assert resid[0] / resid[1] >= 1.8


def test_residual_detects_point_perturbation():
    model, _ = single_class_fixture()
    cost = hw.RunningCostSpec(c=[0.0], d=[0.0], constant=1.0)
    sol = hw.solve_hjb(model, cost, hw.Grid([-2.0], [2.0], [41]), boundary="extrapolate")
    bumped = sol.value.values.copy()
    bumped[20] += 1.0
    field = hw.ValueField(grid=sol.value.grid, values=bumped)
    assert hw.pde_residual(field, model, cost) >= model.gamma


def test_value_iteration_matches_policy_iteration():
    model = n_model()
    cost = nmodel_cost()
    grid = hw.default_grid(model, points_per_dim=21, radius=4.0)
    a = hw.solve_hjb(model, cost, grid, boundary="extrapolate", method="policy")
    b = hw.solve_hjb(model, cost, grid, boundary="extrapolate", method="value",
                     tol=1e-10, max_iter=500_000)
    assert np.abs(a.value.values - b.value.values).max() < 1e-7


def test_three_class_tree_converges():
    model, cost = tree3_model()
    sol = hw.solve_hjb(model, cost, hw.default_grid(model, points_per_dim=21),
                       boundary="extrapolate")
    assert sol.report.converged
    last = sol.report.history[-1]
    assert last.policy_changes == 0 and last.sup_update <= 1e-8
    assert np.isfinite(sol.report.interior_residual)


def test_boundary_modes_agree_in_the_bulk():
    model, cost = single_class_fixture()
    grid = hw.Grid([-6.0], [6.0], [601])
    a = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    b = hw.solve_hjb(model, cost, grid, boundary="static-mc",
                     boundary_paths=4000, boundary_dt=2e-3, seed=3)
    center = slice(250, 351)  # within one unit of the origin
    assert np.abs(a.value.values[center] - b.value.values[center]).max() < 5e-3


def test_monotone_in_running_cost():
    model = n_model()
    grid = hw.default_grid(model, points_per_dim=31, radius=4.0)
    lo = hw.solve_hjb(model, hw.RunningCostSpec(c=[3, 1], d=[1, 2]), grid, boundary="extrapolate")
    hi = hw.solve_hjb(model, hw.RunningCostSpec(c=[3, 1.5], d=[1.2, 2], constant=0.1),
                      grid, boundary="extrapolate")
    assert (hi.value.values - lo.value.values).min() > -1e-9


def test_cost_scaling_scales_value_and_keeps_controls():
    model = n_model()
    grid = hw.default_grid(model, points_per_dim=41, radius=4.5)
    base = hw.solve_hjb(model, nmodel_cost(), grid, boundary="extrapolate")
    scaled_cost = hw.RunningCostSpec(c=[9.0, 3.0], d=[3.0, 6.0])
    scaled = hw.solve_hjb(model, scaled_cost, grid, boundary="extrapolate")
    np.testing.assert_allclose(scaled.value.values, 3.0 * base.value.values, rtol=1e-9, atol=1e-9)
    pa = hw.extract_policy(base.value, model, nmodel_cost())
    pb = hw.extract_policy(scaled.value, model, scaled_cost)
    agree = ((pa.u == pb.u).all(axis=1) & (pa.v == pb.v).all(axis=1)).mean()
    assert agree >= 0.99


def test_vertex_optimality_in_affine_case():
    model = n_model()
    grid = hw.default_grid(model, points_per_dim=31, radius=4.0)
    sol = hw.solve_hjb(model, nmodel_cost(), grid, boundary="extrapolate")
    policy = hw.extract_policy(sol.value, model, nmodel_cost())
    assert np.isin(policy.u, (0.0, 1.0)).all()
    assert np.isin(policy.v, (0.0, 1.0)).all()
    np.testing.assert_array_equal(policy.u.sum(axis=1), 1.0)
    np.testing.assert_array_equal(policy.v.sum(axis=1), 1.0)


def test_policy_symmetric_under_class_swap():
    model, cost = two_class_one_station()
    grid = hw.Grid([-3.0, -3.0], [3.0, 3.0], [31, 31])
    sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    shape = tuple(grid.counts)
    f = sol.value.values.reshape(shape)
    np.testing.assert_allclose(f, f.T, atol=1e-8)

    policy = hw.extract_policy(sol.value, model, cost)
    u0 = policy.u[:, 0].reshape(shape)
    u1 = policy.u[:, 1].reshape(shape)
    # swap symmetry where the queue split matters and is not tied: positive
    # imbalance off the swap-diagonal
    pts = grid.points
    active = (pts.sum(axis=1) > 0.1) & (np.abs(pts[:, 0] - pts[:, 1]) > 0.1)
    mask = active.reshape(shape)
    np.testing.assert_array_equal(u0.T[mask.T & mask], u1[mask.T & mask])


def test_policy_queues_the_cheap_class():
    model, cost = two_class_one_station(c=(5.0, 0.1))
    grid = hw.Grid([-3.0, -3.0], [3.0, 3.0], [21, 21])
    sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    policy = hw.extract_policy(sol.value, model, cost)
    pos = grid.points.sum(axis=1) > 0.5
    assert (policy.u[pos, 1] == 1.0).all()


def test_single_class_policy_constant():
    model, cost = single_class_fixture()
    sol = hw.solve_hjb(model, cost, hw.Grid([-4.0], [4.0], [81]), boundary="extrapolate")
    policy = hw.extract_policy(sol.value, model, cost)
    assert (policy.u == 1.0).all() and (policy.v == 1.0).all()


def test_dimension_cap():
    mu = np.zeros((4, 1))
    psi = np.zeros((4, 1))
    mu[:, 0] = 1.0
    psi[:, 0] = 0.25
    lam, nu, xs = hw.fluid_from_flows(mu, psi)
    wide = hw.TreeModel(
        classes=4, stations=1, edges=tuple((i, 0) for i in range(4)), mu=mu,
        theta=[0] * 4, ell=[0] * 4, r=[1] * 4, gamma=1.0, lam=lam, nu=nu,
        x_star=xs, psi_star=psi,
    )
    cost = hw.RunningCostSpec(c=np.ones(4), d=[1.0])
    with pytest.raises(ValueError):
        hw.solve_hjb(wide, cost, hw.Grid([-1] * 4, [1] * 4, [5] * 4))


def test_field_file_roundtrip(tmp_path):
    model, cost = single_class_fixture()
    sol = hw.solve_hjb(model, cost, hw.Grid([-4.0], [4.0], [41]), boundary="extrapolate")
    vpath = tmp_path / "value.field"
    hw.save_field(sol.value, model, vpath)
    loaded, header = hw.load_field(vpath)
    assert header["kind"] == "value"
    assert header["model_hash"] == hw.model_hash(model)
    np.testing.assert_array_equal(loaded.values, sol.value.values)

    policy = hw.extract_policy(sol.value, model, cost)
    ppath = tmp_path / "policy.field"
    hw.save_field(policy, model, ppath)
    ploaded, pheader = hw.load_field(ppath)
    assert pheader["kind"] == "policy"
    np.testing.assert_array_equal(ploaded.u, policy.u)
    np.testing.assert_array_equal(ploaded.v, policy.v)
    gm = hw.GridMarkov(ploaded)
    U, V = gm.controls(np.array([[0.0]]), 0.0)
    assert U.shape == (1, 1) and V.shape == (1, 1)


def test_field_interpolation_reproduces_linear_fields():
    grid = hw.Grid([-1.0, -1.0], [1.0, 1.0], [5, 5])
    values = grid.points @ np.array([2.0, -1.0]) + 0.5
    field = hw.ValueField(grid=grid, values=values)
    pts = np.array([[0.3, -0.7], [-0.25, 0.55]])
    np.testing.assert_allclose(hw.field_at(field, pts), pts @ [2.0, -1.0] + 0.5, atol=1e-12)


def test_box_sensitivity_small_on_single_class():
    model, cost = single_class_fixture()
    grid = hw.Grid([-6.0], [6.0], [121])
    shift = hw.box_sensitivity(model, cost, grid, scale=1.5, boundary="extrapolate")
    assert shift < 0.2
