import warnings
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

import hwsched as hw
from hwsched import hjb
from conftest import n_model, nmodel_cost, random_tree_model, single_class_fixture, tree3_model

MODELS = Path(__file__).resolve().parents[1] / "models"


def shipped_model(name):
    """A model of ``models/`` by file stem, or the 3-class tree."""
    return tree3_model() if name == "tree3" else hw.load_model(MODELS / f"{name}.json")


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
    for lows, highs in (([-np.inf, -1.0], [1.0, 1.0]), ([-1.0, -1.0], [1.0, np.inf]),
                        ([np.nan, -1.0], [1.0, 1.0])):
        with pytest.raises(ValueError, match="finite"):
            hw.Grid(lows, highs, [5, 5])
    with pytest.raises(ValueError, match="finite"):
        hw.default_grid(single_class_fixture()[0], 11, np.inf)
    # the point count is an exact integer: np.prod wraps around on the last two
    for counts in ([1001] * 2, [101] * 3, [32] * 4, [2097153] * 3, [2**32] * 2):
        with pytest.raises(ValueError, match="more than 1e\\+06 points"):
            hw.Grid([-1.0] * len(counts), [1.0] * len(counts), counts)
    assert hw.Grid([-1.0] * 2, [1.0] * 2, [1000, 1000]).size == hjb.MAX_GRID_POINTS
    with pytest.raises(ValueError, match="out of range"):
        hw.Grid([-1.0], [1.0], [10**20])


@pytest.mark.parametrize("radius, p, match", [(1e-300, 1.0, "spacing"), (1e300, 1.0, "spacing"),
                                              (1e-8, 1.0, "discount"), (6.0, 1e308, "exponents")])
def test_solve_rejects_overflowing_tables(radius, p, match):
    """A box so small or so large that the upwind weights overflow or hide
    the discount rate, or a cost that overflows on the box, is rejected
    before any solve and without a floating-point warning."""
    model = n_model()
    cost = hw.RunningCostSpec(c=[3.0, 1.0], d=[1.0, 2.0], p=p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            hw.solve_hjb(model, cost, hw.default_grid(model, 5, radius))


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


@pytest.mark.parametrize("name", ["n_model", "n_model_abandon", "single_class", "tree3"])
def test_hamiltonian_adds_products_in_class_order(name):
    # H is the same bytes as the product-then-reduce form of the objective
    model, cost = shipped_model(name)
    X = hw.default_grid(model, 9 if model.classes == 3 else 41).points
    rng = np.random.default_rng(7)
    for P in (rng.normal(0.0, 3.0, X.shape), np.zeros(X.shape)):
        H, _, _ = hw.hamiltonian_field(model, cost, X, P)
        b, L = hjb._candidates(model, cost, X)
        assert H.tobytes() == ((b * P).sum(axis=-1) + L).min(axis=0).tobytes()


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
        attained = hw.drift(model, x, point) @ p + float(cost.evaluate(x, point.u, point.v))
        assert attained == pytest.approx(H, rel=1e-12, abs=0.0)


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

    def pair_values(X):
        """The objective of every vertex pair, in lexicographic order."""
        vals = np.empty((I * J, len(X)))
        for i in range(I):
            for j in range(J):
                Uv = np.zeros((len(X), I))
                Vv = np.zeros((len(X), J))
                Uv[:, i] = 1.0
                Vv[:, j] = 1.0
                vals[i * J + j] = (hw.drift_batch(model, X, Uv, Vv) * P).sum(axis=1)
                vals[i * J + j] += cost.evaluate(X, Uv, Vv)
        return vals

    # H: the flat argmin over every vertex pair
    vals = pair_values(X)
    best = vals.argmin(axis=0)
    assert H.tobytes() == vals[best, np.arange(rows)].tobytes()
    # the sided controls: the same dense search at imbalance +1 (only u
    # matters, so the first minimal pair has the first minimizing class) and
    # at -1 (only v matters); the state part is the same for every pair
    unit = np.zeros((rows, I))
    unit[:, 0] = 1.0
    assert U.tobytes() == np.eye(I)[pair_values(unit).argmin(axis=0) // J].tobytes()
    assert V.tobytes() == np.eye(J)[pair_values(-unit).argmin(axis=0) % J].tobytes()
    # and off the plane the sided pair attains H
    attained = (hw.drift_batch(model, X, U, V) * P).sum(axis=1) + cost.evaluate(X, U, V)
    off = X.sum(axis=1) != 0.0
    np.testing.assert_allclose(attained[off], H[off], rtol=1e-12, atol=0.0)


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


def smooth_boundary_values(grid):
    """A smooth stand-in for the simulated static-mc boundary data."""
    return 1.0 + np.abs(grid.points[grid.boundary]).sum(axis=1)


def boundary_data(grid, boundary):
    """What ``solve_hjb`` takes for a test's boundary label: ``"extrapolate"``
    as it is, and ``"static-mc"`` as Dirichlet data, the smooth stand-in."""
    return boundary if boundary == "extrapolate" else smooth_boundary_values(grid)


def bellman_sweep(model, cost, grid, boundary):
    """``(sweep, g)``: one value-iteration sweep of the discretization that
    ``solve_hjb`` solves, and its boundary data.  A sweep takes every
    candidate control's one-step value at the interior points, keeps the
    least, and then reapplies the boundary rows ``B f = g``: extrapolation
    rows with zero data, or Dirichlet identity rows with the static-mc data
    of ``smooth_boundary_values``."""
    WP, WM, LV, DEN = hjb._candidate_tables(model, cost, grid)
    inner = grid.interior
    up, down = inner[:, None] + grid.strides, inner[:, None] - grid.strides
    g = np.zeros(grid.size)
    if boundary == "extrapolate":
        rows, cols, data = hjb._extrapolation_rows(grid)
    else:
        g[grid.boundary] = smooth_boundary_values(grid)
        rows = cols = grid.boundary
        data = np.ones(len(rows))
    B = sp.csr_matrix((data, (rows, cols)), shape=(grid.size, grid.size))

    def sweep(f):
        fn = f.copy()
        fn[inner] = (((WP * f[up]).sum(-1) + (WM * f[down]).sum(-1) + LV) / DEN).min(axis=0)
        fn -= B @ fn - g
        return fn

    return sweep, g


def value_iteration(model, cost, grid, boundary):
    """The reference solver: plain sweeps from the boundary data until the
    sup-norm change is at most 1e-10 (a few hundred sweeps on the grids
    here; 100 000 without it fails the test instead of hanging it)."""
    sweep, f = bellman_sweep(model, cost, grid, boundary)
    for _ in range(100_000):
        fn = sweep(f)
        delta = np.abs(fn - f).max()
        f = fn
        if delta <= 1e-10:
            return f
    raise AssertionError(f"value iteration still moved {delta:g} after 100 000 sweeps")


@pytest.mark.parametrize("name, points, boundary, solver", [
    ("n_model", 21, "extrapolate", "spsolve"),
    ("n_model", 21, "static-mc", "spsolve"),
    ("tree3", 9, "extrapolate", "bicgstab"),
    ("tree4", 9, "extrapolate", "bicgstab"),
])
def test_value_iteration_matches_policy_iteration(name, points, boundary, solver):
    model, cost = (n_model(), nmodel_cost()) if name == "n_model" else shipped_model(name)
    grid = hw.default_grid(model, points, radius=4.0)
    sol = hw.solve_hjb(model, cost, grid, boundary=boundary_data(grid, boundary))
    assert {step.solver for step in sol.report.history} == {solver}
    reference = value_iteration(model, cost, grid, boundary)
    assert np.abs(sol.value.values - reference).max() < 1e-7


def test_three_class_tree_converges():
    model, cost = tree3_model()
    sol = hw.solve_hjb(model, cost, hw.default_grid(model, points_per_dim=21),
                       boundary="extrapolate")
    assert sol.report.converged
    last = sol.report.history[-1]
    assert last.policy_changes == 0 and last.sup_update <= 1e-8
    assert np.isfinite(sol.report.interior_residual)


def test_policy_iteration_stops_at_first_unchanged_policy():
    # the variant of n_model where control matters: the improvement steps
    # change controls before the policy settles
    model = n_model(theta=(0.0, 3.0))
    cost = hw.RunningCostSpec(c=[1.0, 1.05], d=[1.0, 2.0])
    grid = hw.default_grid(model, points_per_dim=41)
    sol = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    rep, f = sol.report, sol.value.values
    changes = [step.policy_changes for step in rep.history]
    assert rep.converged and rep.iterations == len(rep.history) > 1
    assert changes[-1] == 0 and 0 not in changes[:-1]
    assert {step.solver for step in rep.history} == {"spsolve"}

    # one value-iteration sweep from the returned field
    bellman, _ = bellman_sweep(model, cost, grid, "extrapolate")
    sweep = float(np.abs(bellman(f) - f).max())
    assert rep.history[-1].sup_update == rep.sup_update == sweep
    assert sweep <= 1e-12 * np.abs(f).max()


def test_unchanged_first_policy_takes_one_solve():
    model = n_model()
    sol = hw.solve_hjb(model, nmodel_cost(), hw.default_grid(model, points_per_dim=21),
                       boundary="extrapolate")
    assert sol.report.converged and sol.report.iterations == 1


def test_three_d_solver_falls_back_to_lu(monkeypatch):
    model, cost = tree3_model()
    grid = hw.default_grid(model, points_per_dim=13)
    krylov = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    assert {step.solver for step in krylov.report.history} == {"bicgstab"}
    monkeypatch.setattr(hjb, "bicgstab", lambda A, b, x0=None, **kwargs: (x0, 1))
    lu = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    assert lu.report.converged
    assert {step.solver for step in lu.report.history} == {"bicgstab->spsolve"}
    gap = np.abs(lu.value.values - krylov.value.values).max()
    assert gap <= 1e-9 * np.abs(lu.value.values).max()


class _Captured(Exception):
    pass


def evaluation_system(model, cost, points, radius, boundary="extrapolate"):
    """``(A, rhs)`` of the first policy evaluation of a solve on the default
    grid.  The static-mc boundary data is a smooth stand-in for the simulated
    values, which only the right-hand side reads."""

    def capture(A, rhs, x0, dim):
        raise _Captured(A, rhs)

    grid = hw.default_grid(model, points, radius)
    with patch.object(hjb, "_linear_solve", capture):
        try:
            hw.solve_hjb(model, cost, grid, boundary=boundary_data(grid, boundary))
        except _Captured as caught:
            return caught.args
    raise AssertionError("the solve ran no policy evaluation")


def backward_error(A, x, rhs):
    return np.abs(A @ x - rhs).max() / (spla.norm(A, np.inf) * np.abs(x).max() + np.abs(rhs).max())


def test_spsolve_takes_the_pivot_free_route_on_n_model():
    A, rhs = evaluation_system(n_model(), nmodel_cost(), 81, 6.0)
    x, name = hjb.spsolve(A, rhs)
    want = spla.spsolve(A, rhs)
    assert name == "spsolve"
    assert np.abs(x - want).max() <= 1e-12 * np.abs(want).max()


def test_spsolve_falls_back_to_pivoting_on_a_small_tree(monkeypatch):
    # one diagonal of this system cancels to rounding level during the
    # factorization; the threshold swaps it, and pure diagonal pivots leave a
    # backward error of 1e-2 after refinement, which the check catches
    A, rhs = evaluation_system(*tree3_model(), 5, 4.5)
    x, name = hjb.spsolve(A, rhs)
    assert name == "spsolve" and backward_error(A, x, rhs) <= 1e-14
    monkeypatch.setattr(hjb, "_DIAG_PIVOT", 0.0)
    x, name = hjb.spsolve(A, rhs)
    assert name == "spsolve-pivoted"
    assert backward_error(A, x, rhs) <= 1e-15
    monkeypatch.setattr(hjb, "bicgstab", lambda A, b, x0=None, **kwargs: (x0, 1))
    y, name = hjb._linear_solve(A, rhs, np.zeros_like(rhs), 3)
    assert name == "bicgstab->spsolve-pivoted"
    assert np.array_equal(x, y)


def test_spsolve_fails_loudly_on_a_singular_matrix():
    A = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 2.0]]))
    with warnings.catch_warnings():
        warnings.simplefilter("error", spla.MatrixRankWarning)
        with pytest.raises(spla.MatrixRankWarning):
            hjb.spsolve(A, np.array([1.0, 2.0, 3.0]))


@settings(max_examples=100, deadline=None)
@given(name=st.sampled_from(["n_model", "n_model_abandon", "single_class", "tree3"]),
       points=st.integers(4, 41), radius=st.floats(3.0, 8.0),
       boundary=st.sampled_from(["extrapolate", "static-mc"]))
def test_spsolve_is_backward_stable(name, points, radius, boundary):
    model, cost = shipped_model(name)
    if model.classes == 3:
        points = 4 + points % 6
    A, rhs = evaluation_system(model, cost, points, radius, boundary)
    x, _ = hjb.spsolve(A, rhs)
    want = spla.spsolve(A, rhs)
    assert backward_error(A, x, rhs) <= 1e-14
    assert np.abs(x - want).max() <= 1e-9 * np.abs(want).max()


def test_three_d_krylov_stops_on_the_true_residual():
    A, rhs = evaluation_system(*tree3_model(), 13, 4.5)
    x, name = hjb._linear_solve(A, rhs, np.zeros_like(rhs), 3)
    assert name == "bicgstab"
    assert np.linalg.norm(A @ x - rhs) <= 1e-12 * np.linalg.norm(rhs)


@pytest.mark.parametrize("tol", [0.0, -1.0, float("nan"), float("inf")])
def test_tolerance_must_be_positive_and_finite(tol):
    model, cost = single_class_fixture()
    with pytest.raises(ValueError, match="tol"):
        hw.solve_hjb(model, cost, hw.Grid([-1.0], [1.0], [5]), boundary="extrapolate", tol=tol)


@pytest.mark.parametrize("boundary", [
    "static-mc",
    "dirichlet",
    np.ones(19),
    np.ones(21),
    np.ones((2, 10)),
    np.r_[np.ones(19), np.nan],
    np.r_[np.inf, np.ones(19)],
])
def test_boundary_is_extrapolate_or_one_finite_value_per_boundary_point(boundary):
    model, cost = n_model(), nmodel_cost()
    grid = hw.default_grid(model, 6)  # 20 boundary points
    assert len(grid.boundary) == 20
    with pytest.raises(ValueError, match='boundary must be "extrapolate" or an array of one '
                                         r"finite value per point of grid.boundary \(20\)"):
        hw.solve_hjb(model, cost, grid, boundary=boundary)


def test_boundary_modes_agree_in_the_bulk():
    model, cost = single_class_fixture()
    grid = hw.Grid([-6.0], [6.0], [601])
    a = hw.solve_hjb(model, cost, grid, boundary="extrapolate")
    b = hw.solve_hjb(model, cost, grid,
                     boundary=hjb._boundary_values_mc(model, cost, grid, 4000, dt=2e-3, seed=3))
    center = slice(250, 351)  # within one unit of the origin
    assert np.abs(a.value.values[center] - b.value.values[center]).max() < 5e-3


def test_static_mc_boundary_is_byte_identical_across_threads(monkeypatch):
    # 16 rows a chunk: one path per boundary point, so 3 chunks for 3 paths
    monkeypatch.setattr(hw.sde, "CHUNK", 16)
    ensemble, runs = hw.sde.ensemble, []

    def spy(*args, **kwargs):
        """``sde.ensemble``, noting its worker count and chunk count."""
        parts = ensemble(*args, **kwargs)
        runs.append((kwargs["threads"], len(parts)))
        return parts

    monkeypatch.setattr(hw.sde, "ensemble", spy)
    model, cost = n_model(), nmodel_cost()
    grid = hw.default_grid(model, 7)
    values = [hw.solve_hjb(model, cost, grid, boundary=hjb._boundary_values_mc(
        model, cost, grid, 3, dt=1e-2, seed=5, threads=threads)).value.values.tobytes()
              for threads in (1, 2)]
    assert runs == [(1, 3), (2, 3)]
    assert values[0] == values[1]


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


def test_convex_cost_policy_lies_on_the_simplices_and_beats_the_vertices():
    """With p = q = 2 the extracted rows come from the descent refinement:
    they lie on the simplices, some off the vertices, and at interior points
    they attain a Hamiltonian no larger than the best vertex pair's."""
    model = n_model()
    cost = hw.RunningCostSpec(c=[3.0, 1.0], d=[1.0, 2.0], p=2.0, q=2.0)
    sol = hw.solve_hjb(model, cost, hw.default_grid(model, 21), boundary="extrapolate")
    policy = hw.extract_policy(sol.value, model, cost)
    for rows in (policy.u, policy.v):
        assert (rows >= 0.0).all()
        np.testing.assert_allclose(rows.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
    assert not np.isin(policy.u, (0.0, 1.0)).all()
    grid = sol.value.grid
    X = grid.points
    P = np.stack(np.gradient(sol.value.reshape(), *grid.spacing), axis=-1).reshape(grid.size, -1)

    def attained(U, V):
        return (hw.drift_batch(model, X, U, V) * P).sum(axis=1) + cost.evaluate(X, U, V)

    eye = np.eye(2)
    best = np.min([attained(eye[[i] * grid.size], eye[[j] * grid.size])
                   for i in range(2) for j in range(2)], axis=0)
    interior = ((grid.coords > 0) & (grid.coords < grid.counts - 1)).all(axis=1)
    got = attained(policy.u, policy.v)[interior]
    assert (got <= best[interior] + 1e-9 * (1.0 + np.abs(best[interior]))).all()


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


def test_nmodel_hjb_policy_is_one_row_and_simulates_as_static_priority():
    # on n_model the HJB control is the static priority (1, 0) everywhere;
    # the sided extraction gives that one row at every grid point, so the
    # grid policy and the static one simulate the same bytes
    model, cost = hw.load_model(MODELS / "n_model.json")
    sol = hw.solve_hjb(model, cost, hw.default_grid(model, 61, 4.5), boundary="extrapolate")
    field = hw.extract_policy(sol.value, model, cost)
    rows = np.unique(np.column_stack([field.u, field.v]), axis=0)
    assert rows.tolist() == [[0.0, 1.0, 1.0, 0.0]]
    starts = np.array([[0.0, 0.0], [1.5, -1.0], [-1.5, 1.0], [2.0, 2.0], [-2.0, -2.0]])
    grid_run, static_run = (
        hw.mc_cost_batch(model, cost, starts, policy, 100, dt=2e-3, seed=1)
        for policy in (hw.GridMarkov(field), hw.StaticPriority.for_model(model, 1, 0))
    )
    assert all(a.tobytes() == b.tobytes() for a, b in zip(grid_run, static_run))


def test_single_class_policy_constant():
    model, cost = single_class_fixture()
    sol = hw.solve_hjb(model, cost, hw.Grid([-4.0], [4.0], [81]), boundary="extrapolate")
    policy = hw.extract_policy(sol.value, model, cost)
    assert (policy.u == 1.0).all() and (policy.v == 1.0).all()


def test_four_classes_solve_within_the_point_cap():
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
    with pytest.raises(ValueError, match="more than"):
        hw.Grid([-1] * 4, [1] * 4, [32] * 4)
    sol = hw.solve_hjb(wide, cost, hw.Grid([-1] * 4, [1] * 4, [5] * 4))
    assert sol.report.converged
    assert {step.solver for step in sol.report.history} == {"bicgstab"}


def test_four_class_tree_end_to_end():
    """models/tree4.json (4 classes, 4 stations, case iii) on +-4.5 sigma:
    the 9^4 and 13^4 solves converge by BiCGSTAB at every step, the value at
    0 falls as the grid refines, and the 13^4 extracted policy costs less
    from 0 than the static priority ``default_priority_edge`` on one seed.
    The h -> 0 extrapolation of these sizes is not compared with the MC
    cost: the grid error is first order and 13^4 is still far from h = 0."""
    model, cost = shipped_model("tree4")
    values = []
    for points in (9, 13):
        sol = hw.solve_hjb(model, cost, hw.default_grid(model, points, 4.5))
        assert sol.report.converged
        assert {step.solver for step in sol.report.history} == {"bicgstab"}
        values.append(hw.field_at(sol.value, np.zeros((1, 4)))[0])
    assert values[1] < values[0]
    x0 = np.zeros((1, 4))
    field = hw.GridMarkov(hw.extract_policy(sol.value, model, cost))
    static = hw.StaticPriority.for_model(model, *hw.default_priority_edge(model))
    (hjb_cost,), _, _ = hw.mc_cost_batch(model, cost, x0, field, 4000, dt=4e-3, seed=1)
    (static_cost,), _, _ = hw.mc_cost_batch(model, cost, x0, static, 4000, dt=4e-3, seed=1)
    assert hjb_cost < static_cost


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
