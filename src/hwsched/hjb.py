"""Grid solution of the dynamic-programming equation on a truncated box.

The equation ``(1/2) sum_i r_i^2 f_xixi + min_U [b(x,U) . Df + L(x,U)]
- gamma f = 0`` is discretized with central second differences and upwind
one-sided first differences chosen per sign of the minimizing drift, which
keeps the scheme monotone (the Markov-chain approximation of Kushner and
Dupuis).  The minimization over the control simplex pair is exact vertex
enumeration when the objective is affine in the control (the drift always
is; the cost is when its exponents are one) and projected descent from the
best vertex otherwise.

The enumeration needs ``I + J - 1`` candidate rows, not all ``I J`` vertex
pairs: with the imbalance ``s``, the drift and the cost read ``u`` only
through ``s^+`` and ``v`` only through ``s^-``, so at any state one side is
multiplied by an exact zero.  The rows ``(e_i, e_0)`` for every class and
``(e_0, e_j)`` for every station ``j >= 1`` therefore reach every value of
the pairs, in floats, and the first minimal row is the lexicographically
first minimal pair: the tie-break is the one of the full search.  Their
drift and cost come from ``flows._columns``, the coefficient columns the
Euler loop uses.

The box truncates an unbounded problem, so boundary data is a modeling
choice: either Dirichlet values simulated under a static-priority policy
(an upper bound on the optimal cost; the default) or second-derivative-zero
extrapolation.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sde
from .flows import _columns, _drift_maps, drift_batch
from .model import ControlPoint, RunningCostSpec, TreeModel, model_hash
from .sde import StaticPriority, default_priority_edge


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform box grid; must straddle the hyperplane of zero imbalance."""

    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        lows = np.asarray(self.lows, dtype=float)
        highs = np.asarray(self.highs, dtype=float)
        counts = np.asarray(self.counts, dtype=int)
        if not (lows.shape == highs.shape == counts.shape) or lows.ndim != 1:
            raise ValueError("lows, highs, counts must be 1-D and matching")
        if (counts < 3).any():
            raise ValueError("need at least 3 points per dimension")
        if (highs <= lows).any():
            raise ValueError("empty box")
        if not (lows.sum() < 0.0 < highs.sum()):
            raise ValueError("box must contain the zero-imbalance hyperplane")
        object.__setattr__(self, "lows", lows)
        object.__setattr__(self, "highs", highs)
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return len(self.counts)

    @cached_property
    def spacing(self) -> np.ndarray:
        return (self.highs - self.lows) / (self.counts - 1)

    @cached_property
    def size(self) -> int:
        return int(np.prod(self.counts))

    @cached_property
    def strides(self) -> np.ndarray:
        out = np.ones(self.dim, dtype=int)
        for d in range(self.dim - 2, -1, -1):
            out[d] = out[d + 1] * self.counts[d + 1]
        return out

    @cached_property
    def points(self) -> np.ndarray:
        """All grid points, row-major, shape ``(size, dim)``."""
        axes = [np.linspace(self.lows[d], self.highs[d], self.counts[d]) for d in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @cached_property
    def coords(self) -> np.ndarray:
        """Integer coordinates of every flat index, shape ``(size, dim)``."""
        return np.stack(np.unravel_index(np.arange(self.size), tuple(self.counts)), axis=1)

    @cached_property
    def interior(self) -> np.ndarray:
        c = self.coords
        return np.flatnonzero(((c > 0) & (c < self.counts - 1)).all(axis=1))

    @cached_property
    def boundary(self) -> np.ndarray:
        c = self.coords
        return np.flatnonzero(((c == 0) | (c == self.counts - 1)).any(axis=1))

    def interpolate(self, values: np.ndarray, X: np.ndarray) -> np.ndarray:
        """Multilinear interpolation at states ``X`` of the grid-point
        ``values``, ``(size,)`` or ``(size, K)``; states outside the box are
        clipped onto it."""
        rel = np.clip((np.asarray(X, dtype=float) - self.lows) / self.spacing, 0.0, self.counts - 1.0)
        lo = np.minimum(np.floor(rel).astype(int), self.counts - 2)
        frac = rel - lo
        out = np.zeros((len(rel),) + values.shape[1:])
        for corner in range(1 << self.dim):
            offs = np.array([(corner >> d) & 1 for d in range(self.dim)])
            weight = np.prod(np.where(offs, frac, 1.0 - frac), axis=1)
            flat = ((lo + offs) * self.strides).sum(axis=1)
            out += weight.reshape((-1,) + (1,) * (values.ndim - 1)) * values[flat]
        return out

    def to_dict(self) -> dict:
        return {
            "lows": self.lows.tolist(),
            "highs": self.highs.tolist(),
            "counts": self.counts.tolist(),
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "Grid":
        return cls(np.array(doc["lows"]), np.array(doc["highs"]), np.array(doc["counts"]))


def default_grid(model: TreeModel, points_per_dim: int = 121, radius: float = 6.0) -> Grid:
    """Box covering ``radius`` standard deviations of the discounted bulk."""
    sigma = model.r / np.sqrt(2.0 * model.gamma)
    return Grid(-radius * sigma, radius * sigma, np.full(model.classes, points_per_dim))


@dataclass(frozen=True)
class ValueField:
    grid: Grid
    values: np.ndarray  # (size,), row-major

    def reshape(self) -> np.ndarray:
        return self.values.reshape(tuple(self.grid.counts))


@dataclass(frozen=True)
class PolicyField:
    grid: Grid
    u: np.ndarray  # (size, I)
    v: np.ndarray  # (size, J)


# -- Hamiltonian minimization ------------------------------------------------


def _candidates(model: TreeModel, cost: RunningCostSpec, X: np.ndarray):
    """The ``K = I + J - 1`` candidate vertex controls and their drift and cost.

    Returns ``(Ut, Vt, b, L)``: the table, rows ``(e_i, e_0)`` for every class
    ``i`` then ``(e_0, e_j)`` for every station ``j >= 1``; the drift ``(K, N,
    I)`` and the running cost ``(K, N)`` of each row at the states ``X``.  The
    floats are those of ``drift_batch`` and ``RunningCostSpec.evaluate`` on
    the same row tiled over ``X``.
    """
    I, J = model.classes, model.stations
    Ut = np.eye(I)[np.r_[np.arange(I), np.zeros(J - 1, dtype=int)]]
    Vt = np.eye(J)[np.r_[np.zeros(I - 1, dtype=int), np.arange(J)]]
    Q, Z = _columns(model, cost, Ut, Vt)
    s = X.sum(axis=1)
    pos = np.maximum(s, 0.0)
    neg = pos - s
    b = X @ _drift_maps(model)[1] + pos[:, None] * Q[:I].T[:, None, :]
    b += neg[:, None] * Z[:I].T[:, None, :]
    if model.ell.any():
        b += model.ell
    L = np.full((len(Ut), len(X)), cost.constant)
    if cost.c.any():
        L += (pos if cost.p == 1.0 else pos**cost.p) * Q[I][:, None]
    if cost.d.any():
        L += (neg if cost.q == 1.0 else neg**cost.q) * Z[I][:, None]
    if cost.kappa:
        norm = np.abs(X).sum(axis=1)
        L += cost.kappa * (norm if cost.m == 1.0 else norm**cost.m)
    return Ut, Vt, b, L


def _project_simplex(T: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex."""
    S = np.sort(T, axis=1)[:, ::-1]
    cs = np.cumsum(S, axis=1) - 1.0
    k = np.arange(1, T.shape[1] + 1)
    cond = S - cs / k > 0
    rho = cond.sum(axis=1)
    tau = cs[np.arange(len(T)), rho - 1] / rho
    return np.maximum(T - tau[:, None], 0.0)


def _descend_simplex(lin, curve, exponent, start, iters=300):
    """Projected-gradient minimization of ``lin.t + curve.t**exponent`` rows
    over the simplex, from the given starting rows."""
    if exponent == 1.0 or not curve.any():
        return start
    T = start.copy()
    scale = np.maximum(np.abs(lin).max(axis=1), exponent * np.abs(curve).max(axis=1))
    step = 0.5 / np.maximum(scale, 1e-12)
    for _ in range(iters):
        grad = lin + exponent * curve * np.maximum(T, 1e-12) ** (exponent - 1.0)
        T = _project_simplex(T - step[:, None] * grad)
    return T


def hamiltonian_field(model: TreeModel, cost: RunningCostSpec, X: np.ndarray, P: np.ndarray):
    """Minimized drift-gradient-plus-cost over the control space, per row.

    Returns ``(H, U, V)`` for states ``X`` and gradients ``P`` of shape
    ``(N, I)``.  Ties between vertices break to the smallest class index,
    then the smallest station index: the first minimal candidate row (see
    the module docstring) is the lexicographically first minimal pair.
    """
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    Ut, Vt, b, L = _candidates(model, cost, X)
    vals = (b * P).sum(axis=-1) + L
    best = vals.argmin(axis=0)
    H = vals[best, np.arange(len(X))]
    U, V = Ut[best], Vt[best]

    if not cost.affine_in_control:
        s = X.sum(axis=1)
        pos = np.maximum(s, 0.0)
        neg = np.maximum(-s, 0.0)
        # split the objective: affine part from the drift, separable convex
        # part from the cost; each simplex minimizes independently.
        RxT, _, RbT = _drift_maps(model)
        lin_u = pos[:, None] * (P @ RxT.T - model.theta * P)
        lin_v = neg[:, None] * (P @ RbT.T)
        curve_u = cost.c * pos[:, None] ** cost.p
        curve_v = cost.d * neg[:, None] ** cost.q
        U2 = _descend_simplex(lin_u, curve_u, cost.p, U)
        V2 = _descend_simplex(lin_v, curve_v, cost.q, V)
        vals2 = (drift_batch(model, X, U2, V2) * P).sum(axis=1) + cost.evaluate(X, U2, V2)
        better = vals2 < H - 1e-15
        H = np.where(better, vals2, H)
        U[better] = U2[better]
        V[better] = V2[better]
    return H, U, V


def hamiltonian(model: TreeModel, cost: RunningCostSpec, x, p):
    """Minimized Hamiltonian and a minimizing control at one state."""
    H, U, V = hamiltonian_field(
        model, cost, np.asarray(x, dtype=float)[None, :], np.asarray(p, dtype=float)[None, :]
    )
    return float(H[0]), ControlPoint(U[0], V[0])


# -- solver -------------------------------------------------------------------

# relative margin by which a candidate control must beat the incumbent before
# the improvement step switches to it (Howard's rule with strict improvement)
TIE_RTOL = 1e-12


@dataclass(frozen=True)
class HJBIteration:
    """One policy-iteration step; a solve stops at the first step whose
    ``policy_changes`` is 0, as the next solve would repeat its system.

    ``sup_update`` is the sup-norm change that one ``method="value"`` sweep
    would make to the value just solved, so both methods report the same
    quantity; ``policy_changes`` counts the interior points whose control the
    improvement step changed; ``solve_s`` is the seconds spent in the linear
    solve, and ``solver`` names it: ``"spsolve"`` (sparse LU, 1-D and 2-D),
    ``"bicgstab"`` (3-D) or ``"bicgstab->spsolve"`` (BiCGSTAB did not
    converge and LU solved the system instead).
    """

    sup_update: float
    policy_changes: int
    solve_s: float
    solver: str


@dataclass(frozen=True)
class HJBReport:
    method: str
    boundary: str
    iterations: int
    converged: bool
    sup_update: float
    interior_residual: float
    priority_edge: tuple[int, int] | None = None
    history: tuple[HJBIteration, ...] = ()


@dataclass(frozen=True)
class HJBSolution:
    value: ValueField
    report: HJBReport


def _candidate_tables(model, cost, grid):
    """Upwind weights ``(K, n, I)``, costs and denominators ``(K, n)`` per
    candidate vertex control at the ``n`` interior points."""
    h = grid.spacing
    a = 0.5 * model.r**2
    _, _, b, LV = _candidates(model, cost, grid.points[grid.interior])
    WP = (a + h * np.maximum(b, 0.0)) / h**2
    WM = (a + h * np.maximum(-b, 0.0)) / h**2
    return WP, WM, LV, model.gamma + WP.sum(axis=-1) + WM.sum(axis=-1)


def _boundary_values_mc(model, cost, grid, n_paths, dt, seed, edge):
    policy = StaticPriority.for_model(model, *edge)
    pts = grid.points[grid.boundary]
    means, _, _ = sde.mc_cost_batch(
        model, cost, pts, policy, n_paths=n_paths, dt=dt, seed=seed
    )
    return means


def _extrapolation_rows(grid):
    """COO entries for linear extrapolation at every boundary point.

    Row ``p`` reads ``f[p] - mean_d(2 f[p + e_d] - f[p + 2 e_d]) = 0`` over
    the faces ``d`` that ``p`` lies on, with ``e_d`` pointing inward.
    """
    b = grid.boundary
    c = grid.coords[b]
    lo = c == 0
    face = lo | (c == grid.counts - 1)
    k = face.sum(axis=1)
    at, d = np.nonzero(face)
    p = b[at]
    step = np.where(lo[at, d], 1, -1) * grid.strides[d]
    w = 1.0 / k[at]
    rows = np.concatenate([b, p, p])
    cols = np.concatenate([b, p + step, p + 2 * step])
    data = np.concatenate([np.ones(len(b)), -2.0 * w, w])
    return rows, cols, data


# scipy.sparse and scipy.sparse.linalg are imported where they are used, like
# pathops' scipy.signal, to keep `import hwsched` light; the two solvers stay
# names of this module, where tests and the benchmark's tracer patch them


def spsolve(A, rhs):
    """Sparse LU solve of ``A x = rhs``: ``scipy.sparse.linalg.spsolve``."""
    import scipy.sparse.linalg as spla

    return spla.spsolve(A, rhs)


def bicgstab(A, rhs, **kwargs):
    """``scipy.sparse.linalg.bicgstab``."""
    import scipy.sparse.linalg as spla

    return spla.bicgstab(A, rhs, **kwargs)


def _linear_solve(A, rhs, x0, dim):
    """Solve ``A x = rhs``; returns the solution and the solver's name.

    Sparse LU in 1-D and 2-D, where it is the faster one.  In 3-D the LU
    fill-in dominates, so BiCGSTAB with a Jacobi preconditioner starts from
    ``x0``, and LU takes over if it does not converge.
    """
    if dim < 3:
        return spsolve(A, rhs), "spsolve"
    import scipy.sparse as sp

    x, info = bicgstab(A, rhs, x0=x0, rtol=1e-12, atol=0.0, M=sp.diags(1.0 / A.diagonal()))
    if info == 0:
        return x, "bicgstab"
    return spsolve(A, rhs), "bicgstab->spsolve"


def solve_hjb(
    model: TreeModel,
    cost: RunningCostSpec,
    grid: Grid,
    boundary: str = "static-mc",
    method: str = "policy",
    tol: float = 1e-8,
    max_iter: int | None = None,
    boundary_paths: int = 2000,
    boundary_dt: float = 1e-3,
    seed: int = 0,
) -> HJBSolution:
    """Solve the dynamic-programming equation on the grid.

    Parameters
    ----------
    boundary:
        ``"static-mc"`` simulates the static-priority cost at every boundary
        point and imposes it as Dirichlet data; ``"extrapolate"`` closes the
        box with second-derivative-zero extrapolation and needs at least 4
        points per dimension.
    method:
        ``"policy"`` alternates exact evaluation of the current control
        field (a sparse solve) with a monotone improvement sweep and is the
        default.  ``"value"`` runs plain damped-free fixed-point sweeps of
        the same discretization; it is kept for cross-checks and is slow on
        fine grids.
    tol:
        Positive and finite.  ``sup_update`` is, for both methods, the
        sup-norm change of one value sweep: ``"value"`` converges once it is
        at most ``tol``.  ``"policy"`` stops at the first improvement step
        that changes no control, since the next solve would repeat the same
        system, and has converged if that step's ``sup_update`` (the Bellman
        residual of the solved value, at rounding level) is at most ``tol``.
        The improvement keeps a point's current control unless a candidate
        beats it by more than ``TIE_RTOL * max(1, |f|_inf)``: on the
        zero-imbalance plane every control gives the same value up to
        rounding, and a plain ``argmin`` would cycle among them forever.
        ``report.history`` records every policy-iteration step.

    The policy evaluation solves with sparse LU in 1-D and 2-D.  In 3-D it
    runs Jacobi-preconditioned BiCGSTAB (relative tolerance 1e-12) from the
    current value and falls back to LU when that does not converge; each
    step's ``solver`` says which ran.  Dimension is capped at 3: beyond that
    the grid is not tractable here.
    """
    if model.classes > 3:
        raise ValueError("grid solves are limited to 3 classes or fewer")
    if grid.dim != model.classes:
        raise ValueError("grid dimension must equal the class count")
    if method not in ("policy", "value"):
        raise ValueError(f"unknown method {method!r}")
    if boundary not in ("static-mc", "extrapolate"):
        raise ValueError(f"unknown boundary mode {boundary!r}")
    if not (0.0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if boundary == "extrapolate" and grid.counts.min() < 4:
        # on 3 points the two extrapolation rows of a line coincide
        raise ValueError("the extrapolation boundary needs at least 4 points per dimension")
    if max_iter is None:
        max_iter = 100 if method == "policy" else 200_000

    import scipy.sparse as sp  # see spsolve

    N = grid.size
    interior = grid.interior
    WP, WM, LV, DEN = _candidate_tables(model, cost, grid)
    nb_p = interior[:, None] + grid.strides
    nb_m = interior[:, None] - grid.strides

    # boundary rows B f = g: Dirichlet identity rows with the simulated data,
    # or extrapolation rows with zero data
    edge = None
    g = np.zeros(N)
    if boundary == "static-mc":
        edge = default_priority_edge(model)
        g[grid.boundary] = _boundary_values_mc(
            model, cost, grid, boundary_paths, boundary_dt, seed, edge
        )
        b_rows = b_cols = grid.boundary
        b_data = np.ones(len(grid.boundary))
    else:
        b_rows, b_cols, b_data = _extrapolation_rows(grid)
    B = sp.csr_matrix((b_data, (b_rows, b_cols)), shape=(N, N))
    f = g.copy()
    sel = np.arange(len(interior))

    def candidates(fcur):
        return ((WP * fcur[nb_p]).sum(axis=-1) + (WM * fcur[nb_m]).sum(axis=-1) + LV) / DEN

    def sweep(fcur, stacked):
        """One value-iteration step from ``fcur``, given ``candidates(fcur)``."""
        fn = fcur.copy()
        fn[interior] = stacked.min(axis=0)
        fn -= B @ fn - g
        return fn

    history = []
    if method == "value":
        it = 0
        delta = np.inf
        while it < max_iter and delta > tol:
            fn = sweep(f, candidates(f))
            delta = float(np.abs(fn - f).max())
            f = fn
            it += 1
        converged = delta <= tol
        iterations = it
    else:
        # interior rows: the diagonal, then every +e_d and every -e_d neighbour
        rows = np.concatenate([np.tile(interior, 1 + 2 * grid.dim), b_rows])
        cols = np.concatenate([interior, nb_p.T.ravel(), nb_m.T.ravel(), b_cols])
        pol = LV.argmin(axis=0)
        delta = np.inf
        converged = False
        iterations = 0
        for it in range(1, max_iter + 1):
            data = np.concatenate(
                [DEN[pol, sel], -WP[pol, sel].T.ravel(), -WM[pol, sel].T.ravel(), b_data]
            )
            rhs = g.copy()
            rhs[interior] = LV[pol, sel]
            A = sp.csr_matrix((data, (rows, cols)), shape=(N, N))
            t0 = time.perf_counter()
            f, solver = _linear_solve(A, rhs, f, grid.dim)
            solve_s = time.perf_counter() - t0
            iterations = it
            stacked = candidates(f)
            delta = float(np.abs(sweep(f, stacked) - f).max())
            best = stacked.argmin(axis=0)
            tie = TIE_RTOL * max(1.0, float(np.abs(f).max()))
            new_pol = np.where(stacked[best, sel] < stacked[pol, sel] - tie, best, pol)
            changes = int((new_pol != pol).sum())
            history.append(HJBIteration(delta, changes, solve_s, solver))
            if changes == 0:
                converged = delta <= tol
                break
            pol = new_pol

    field = ValueField(grid=grid, values=f)
    resid = pde_residual(field, model, cost) if min(grid.counts) >= 5 else float("nan")
    report = HJBReport(
        method=method,
        boundary=boundary,
        iterations=iterations,
        converged=converged,
        sup_update=delta,
        interior_residual=resid,
        priority_edge=edge,
        history=tuple(history),
    )
    return HJBSolution(value=field, report=report)


def extract_policy(field: ValueField, model: TreeModel, cost: RunningCostSpec) -> PolicyField:
    """Minimizing control at every grid point of a solved value field.

    The gradient uses central differences in the interior and one-sided
    differences on the box faces; the fixed vertex tie-break makes the
    selection deterministic.
    """
    grid = field.grid
    Df = np.stack(np.gradient(field.reshape(), *grid.spacing), axis=-1).reshape(grid.size, -1)
    _, U, V = hamiltonian_field(model, cost, grid.points, Df)
    return PolicyField(grid=grid, u=U, v=V)


def pde_residual(
    field: ValueField, model: TreeModel, cost: RunningCostSpec, margin: int = 1
) -> float:
    """Max equation residual over interior points, by central differences.

    The solver upwinds its first-order term, so on a converged solution this
    independent central-difference evaluation decays like the spacing
    instead of collapsing to the iteration tolerance.
    """
    grid = field.grid
    f = field.values
    c = grid.coords
    mask = ((c >= margin) & (c <= grid.counts - 1 - margin)).all(axis=1)
    idx = np.flatnonzero(mask)
    if len(idx) == 0:
        raise ValueError("margin leaves no interior points")
    Df = np.zeros((len(idx), grid.dim))
    lap = np.zeros(len(idx))
    for d in range(grid.dim):
        s = grid.strides[d]
        h = grid.spacing[d]
        Df[:, d] = (f[idx + s] - f[idx - s]) / (2 * h)
        lap += 0.5 * model.r[d] ** 2 * (f[idx + s] - 2 * f[idx] + f[idx - s]) / h**2
    H, _, _ = hamiltonian_field(model, cost, grid.points[idx], Df)
    resid = lap + H - model.gamma * f[idx]
    return float(np.abs(resid).max())


def field_at(field: ValueField, X: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of a value field at arbitrary states."""
    return field.grid.interpolate(field.values, X)


def box_sensitivity(
    model: TreeModel,
    cost: RunningCostSpec,
    grid: Grid,
    scale: float = 1.5,
    **solve_kwargs,
) -> float:
    """Re-solve on an enlarged box and report the max shift on the original.

    Quantifies how much the boundary surrogate leaks into the region of
    interest.
    """
    counts = np.rint((grid.counts - 1) * scale).astype(int) + 1
    big = Grid(grid.lows * scale, grid.highs * scale, counts)
    sol_small = solve_hjb(model, cost, grid, **solve_kwargs)
    sol_big = solve_hjb(model, cost, big, **solve_kwargs)
    on_small = field_at(sol_big.value, grid.points)
    return float(np.abs(on_small - sol_small.value.values).max())


# -- field files --------------------------------------------------------------


def save_field(field, model: TreeModel, path) -> None:
    """Write a field file: one JSON header line, then CSV rows row-major."""
    if isinstance(field, ValueField):
        kind = "value"
        columns = ["value"]
        payload = field.values[:, None]
    elif isinstance(field, PolicyField):
        kind = "policy"
        columns = [f"u{i}" for i in range(field.u.shape[1])]
        columns += [f"v{j}" for j in range(field.v.shape[1])]
        payload = np.column_stack([field.u, field.v])
    else:
        raise TypeError("expected a ValueField or PolicyField")
    header = {
        "kind": kind,
        "grid": field.grid.to_dict(),
        "model_hash": model_hash(model),
        "columns": columns,
        "layout": "row-major",
    }
    with open(path, "w") as fh:
        fh.write(json.dumps(header, sort_keys=True) + "\n")
        np.savetxt(fh, payload, delimiter=",", fmt="%.17g")


def load_field(path):
    """Read a field file; returns ``(field, header)``."""
    with open(path) as fh:
        header = json.loads(fh.readline())
        payload = np.loadtxt(fh, delimiter=",", ndmin=2)
    grid = Grid.from_dict(header["grid"])
    if len(payload) != grid.size:
        raise ValueError("payload length does not match the grid")
    if header["kind"] == "value":
        return ValueField(grid=grid, values=payload[:, 0]), header
    n_u = sum(1 for c in header["columns"] if c.startswith("u"))
    return PolicyField(grid=grid, u=payload[:, :n_u], v=payload[:, n_u:]), header
