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
the pairs, in floats, and their minimum is the one of the full search.
Their drift and cost come from ``flows._columns``, the coefficient columns
the Euler loop uses.

The minimizing control is picked side by side: ``u`` is the first class
that minimizes the queue-side coefficient (what multiplies ``s^+``) and
``v`` the first station that minimizes the idle-side one (what multiplies
``s^-``).  Neither choice depends on the sign of ``s``, so the side that an
exact zero multiplies gets the control that would be optimal across the
plane ``s = 0``, not a tie-break.

The box truncates an unbounded problem, so boundary data is a modeling
choice and an input of the solve: second-derivative-zero extrapolation (the
default) or Dirichlet values per boundary point, such as the static-priority
costs (an upper bound on the optimal cost) that the CLI's ``static-mc``
boundary simulates with ``_boundary_values_mc``.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import sde
from .flows import _columns, _drift_maps, drift_batch
from .model import ControlPoint, RunningCostSpec, TreeModel, model_hash, write_csv
from .sde import StaticPriority, default_priority_edge

# the most points a grid may have: a solve takes 1.2-1.6 kB a point (n_model
# in 2-D, a 4-class tree in 4-D), so that many take about 1.6 GB
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True, eq=False)
class Grid:
    """Uniform box grid; must straddle the hyperplane of zero imbalance and
    have at most ``MAX_GRID_POINTS`` points."""

    lows: np.ndarray
    highs: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        lows = np.asarray(self.lows, dtype=float)
        highs = np.asarray(self.highs, dtype=float)
        try:
            counts = np.asarray(self.counts, dtype=int)
        except OverflowError as exc:
            raise ValueError(f"grid counts out of range: {self.counts!r}") from exc
        if not (lows.shape == highs.shape == counts.shape) or lows.ndim != 1:
            raise ValueError("lows, highs, counts must be 1-D and matching")
        if (counts < 3).any():
            raise ValueError("need at least 3 points per dimension")
        if math.prod(counts.tolist()) > MAX_GRID_POINTS:
            raise ValueError(f"a {' x '.join(map(str, counts))} grid has more than "
                             f"{MAX_GRID_POINTS:g} points")
        if not ((lows < highs) & np.isfinite(highs - lows)).all():
            raise ValueError("box must be finite and nonempty: lows below highs")
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
        return math.prod(self.counts.tolist())

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
    return Grid(-radius * sigma, radius * sigma, [points_per_dim] * model.classes)


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
    """Drift and cost of the ``K = I + J - 1`` candidate vertex controls.

    The rows are ``(e_i, e_0)`` for every class ``i``, then ``(e_0, e_j)``
    for every station ``j >= 1``.  Returns ``(b, L)``: the drift ``(K, N,
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
    return b, L


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


def _sided_controls(model: TreeModel, cost: RunningCostSpec, X: np.ndarray, P: np.ndarray):
    """The vertex rows ``(U, V)`` that ``hamiltonian_field`` returns before
    any descent: per side, the first vertex of least coefficient."""
    I, J = model.classes, model.stations
    Q, Z = _columns(model, cost, np.eye(I), np.eye(J))
    rows = []
    for C, e in ((Q, cost.p), (Z, cost.q)):
        # one row per vertex, one column per state; products added in class order
        coef = C[0][:, None] * P[:, 0]
        for k in range(1, I):
            coef += C[k][:, None] * P[:, k]
        coef += C[I][:, None] if e == 1.0 else C[I][:, None] * np.abs(X.sum(axis=1)) ** (e - 1.0)
        rows.append(np.eye(len(coef))[coef.argmin(axis=0)])
    return tuple(rows)


def hamiltonian_field(model: TreeModel, cost: RunningCostSpec, X: np.ndarray, P: np.ndarray):
    """Minimized drift-gradient-plus-cost over the control space, per row.

    Returns ``(H, U, V)`` for states ``X`` and gradients ``P`` of shape
    ``(N, I)``.  ``H`` is the minimum over the candidate rows (see the module
    docstring).  ``U`` is sided: at every state, the first class that
    minimizes the queue-side coefficient, the drift column's product with
    ``P`` plus the cost weight ``c_i |s|^(p-1)``, which is the side's vertex
    objective at ``|s|`` divided by ``|s|``; ``V`` is the first station
    that minimizes the idle-side coefficient, with ``d_j |s|^(q-1)``.  Where
    ``s != 0`` the pair attains ``H`` up to rounding.  For costs that are not
    affine in the control, projected descent from this pair may then replace
    both rows.
    """
    X = np.asarray(X, dtype=float)
    P = np.asarray(P, dtype=float)
    b, L = _candidates(model, cost, X)
    # products added in class order, as the reduction over the last axis adds them
    vals = b[..., 0] * P[:, 0]
    for k in range(1, X.shape[1]):
        vals += b[..., k] * P[:, k]
    vals += L
    H = vals[vals.argmin(axis=0), np.arange(len(X))]
    U, V = _sided_controls(model, cost, X, P)

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

# the most policy-iteration steps a solve takes
MAX_ITER = 100


@dataclass(frozen=True)
class HJBIteration:
    """One policy-iteration step; a solve stops at the first step whose
    ``policy_changes`` is 0, as the next solve would repeat its system.

    ``sup_update`` is the sup-norm change that one sweep of the discrete
    Bellman operator makes to the value just solved: its Bellman residual,
    at rounding level once the policy is optimal; ``policy_changes`` counts
    the interior points whose control the improvement step changed;
    ``solve_s`` is the seconds spent in the linear solve, and ``solver``
    names it: ``"spsolve"`` (sparse LU with diagonal pivots, 1-D and 2-D),
    ``"spsolve-pivoted"`` (that LU failed its backward-error check and
    partial pivoting solved the system instead), ``"bicgstab"`` (3-D and
    up), or ``"bicgstab->spsolve"`` and ``"bicgstab->spsolve-pivoted"``
    (BiCGSTAB did not converge and LU solved the system instead).
    """

    sup_update: float
    policy_changes: int
    solve_s: float
    solver: str


@dataclass(frozen=True)
class HJBReport:
    boundary: str
    iterations: int
    converged: bool
    sup_update: float
    interior_residual: float
    history: tuple[HJBIteration, ...] = ()


@dataclass(frozen=True)
class HJBSolution:
    value: ValueField
    report: HJBReport


def _candidate_tables(model, cost, grid):
    """Upwind weights ``(K, n, I)``, costs and denominators ``(K, n)`` per
    candidate vertex control at the ``n`` interior points.  They are built
    with floating-point warnings off, and a ValueError names the spacing or
    the cost exponents when a table is not finite or the discount rate is
    lost to rounding in the denominators."""
    h = grid.spacing
    a = 0.5 * model.r**2
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        b, LV = _candidates(model, cost, grid.points[grid.interior])
        WP = (a + h * np.maximum(b, 0.0)) / h**2
        WM = (a + h * np.maximum(-b, 0.0)) / h**2
        out_p, out_m = WP.sum(axis=-1), WM.sum(axis=-1)
        DEN = model.gamma + out_p + out_m
    # false where a weight is not finite, and where the weights are so large
    # that the discount rate vanishes next to them and the system is singular
    if not (DEN > out_p + out_m).all():
        raise ValueError(f"grid spacing {h.tolist()} is out of range: the upwind weights "
                         f"overflow or hide the discount rate {model.gamma:g}")
    if not np.isfinite(LV).all():
        raise ValueError(f"the running cost overflows on the box (exponents p={cost.p:g}, "
                         f"q={cost.q:g}, m={cost.m:g})")
    return WP, WM, LV, DEN


def _boundary_values_mc(model, cost, grid, n_paths, dt=1e-3, seed=0, threads=1):
    """Monte Carlo cost of the static priority ``default_priority_edge`` at
    every point of ``grid.boundary``: the CLI's ``static-mc`` Dirichlet data.
    Byte-identical for any ``threads`` (``sde.ensemble``).  A grid that
    fails the solver's rule (``_candidate_tables``) is refused before any
    path is simulated."""
    _candidate_tables(model, cost, grid)
    policy = StaticPriority.for_model(model, *default_priority_edge(model))
    pts = grid.points[grid.boundary]
    means, _, _ = sde.mc_cost_batch(
        model, cost, pts, policy, n_paths=n_paths, dt=dt, seed=seed, threads=threads
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

# SuperLU keeps a diagonal pivot unless it is below this fraction of its
# column's largest entry.  On the extrapolation boundary of small 3-D grids a
# few diagonals cancel to rounding level (tree3 at 5^3 and 13^3, radius 6);
# those few swap rows, and the ordering and the fill barely change.
_DIAG_PIVOT = 1e-10


def spsolve(A, rhs):
    """Sparse LU solve of ``A x = rhs``; returns ``(x, name)``.

    SuperLU factors in symmetric mode: MMD ordering on ``A + A^T`` and
    diagonal pivots (see ``_DIAG_PIVOT``), which on the upwind matrices of
    this module fills about half as many entries as partial pivoting with a
    COLAMD ordering.  One step of iterative refinement follows, and ``x`` is
    kept, named ``"spsolve"``, if its backward error ``||A x - rhs|| / (||A||
    ||x|| + ||rhs||)`` in the inf-norm is at most 1e-14.  If it is not, or
    the factorization fails, the answer is ``scipy.sparse.linalg.spsolve``
    (partial pivoting, COLAMD), named ``"spsolve-pivoted"``; a singular
    matrix ends there with its ``MatrixRankWarning``.
    """
    import scipy.sparse.linalg as spla

    try:
        lu = spla.splu(A.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=_DIAG_PIVOT,
                       options={"SymmetricMode": True})
    except RuntimeError:  # exactly singular factor
        return spla.spsolve(A, rhs), "spsolve-pivoted"
    x = lu.solve(rhs)
    x += lu.solve(rhs - A @ x)
    scale = spla.norm(A, np.inf) * np.abs(x).max() + np.abs(rhs).max()
    if np.abs(A @ x - rhs).max() <= 1e-14 * scale:
        return x, "spsolve"
    return spla.spsolve(A, rhs), "spsolve-pivoted"


def bicgstab(A, rhs, **kwargs):
    """``scipy.sparse.linalg.bicgstab``."""
    import scipy.sparse.linalg as spla

    return spla.bicgstab(A, rhs, **kwargs)


def _linear_solve(A, rhs, x0, dim):
    """Solve ``A x = rhs``; returns the solution and the solver's name.

    ``spsolve`` in 1-D and 2-D, where it is the faster one, named as it
    names itself.  From 3-D up the LU fill-in dominates, so BiCGSTAB starts
    from ``x0`` on the Jacobi-scaled system ``(A D^-1) y = rhs``, ``D =
    diag(A)``, and returns ``x = D^-1 y``: the right preconditioning is a
    column scaling, and the iterates are those of a Jacobi preconditioner
    ``M = D^-1``, whose stopping test is on the true residual, ``||rhs - A
    x|| <= 1e-12 ||rhs||``.  If it does not converge, ``spsolve`` takes over and
    the name is ``"bicgstab->"`` and its own.
    """
    if dim < 3:
        return spsolve(A, rhs)
    import scipy.sparse as sp

    d = A.diagonal()
    y, info = bicgstab(A @ sp.diags(1.0 / d), rhs, x0=x0 * d, rtol=1e-12, atol=0.0)
    if info == 0:
        return y / d, "bicgstab"
    x, name = spsolve(A, rhs)
    return x, "bicgstab->" + name


def solve_hjb(
    model: TreeModel,
    cost: RunningCostSpec,
    grid: Grid,
    boundary="extrapolate",
    tol: float = 1e-8,
) -> HJBSolution:
    """Solve the dynamic-programming equation on the grid by policy iteration:
    exact evaluation of the current control field by a sparse solve, then a
    monotone improvement step, for at most ``MAX_ITER`` steps.

    Parameters
    ----------
    boundary:
        ``"extrapolate"`` (the default) closes the box with
        second-derivative-zero extrapolation and needs at least 4 points per
        dimension.  An array of one finite value per point of
        ``grid.boundary`` is imposed there as Dirichlet data; the CLI's
        ``static-mc`` boundary passes the simulated costs of
        ``_boundary_values_mc``.
    tol:
        Positive and finite.  The loop stops at the first improvement step
        that changes no control, since the next solve would repeat the same
        system, and has converged if that step's ``sup_update`` (the Bellman
        residual of the solved value, see ``HJBIteration``) is at most
        ``tol * max(1, |f|_inf)``, relative to the value as ``TIE_RTOL`` is.
        The improvement keeps a point's current control unless a
        candidate beats it by more than ``TIE_RTOL * max(1, |f|_inf)``: on
        the zero-imbalance plane every control gives the same value up to
        rounding, and a plain ``argmin`` would cycle among them forever.
        ``report.history`` records every step.

    The policy evaluation solves with sparse LU in 1-D and 2-D
    (``spsolve``: diagonal pivots and one refinement step, partial pivoting
    if the result fails a backward-error check).  From 3-D up it runs
    right-Jacobi-preconditioned BiCGSTAB (true residual at most 1e-12 of the
    right-hand side) from the current value and falls back to LU when that
    does not converge; each step's ``solver`` says which ran.
    """
    if grid.dim != model.classes:
        raise ValueError("grid dimension must equal the class count")
    extrapolate = isinstance(boundary, str) and boundary == "extrapolate"
    if not extrapolate and (isinstance(boundary, str) or np.shape(boundary) != grid.boundary.shape
                            or not np.isfinite(boundary).all()):
        raise ValueError(f'boundary must be "extrapolate" or an array of one finite value per '
                         f"point of grid.boundary ({len(grid.boundary)}), got {boundary!r}")
    if not (0.0 < tol < np.inf):
        raise ValueError(f"tol must be positive and finite, got {tol!r}")
    if extrapolate and grid.counts.min() < 4:
        # on 3 points the two extrapolation rows of a line coincide
        raise ValueError("the extrapolation boundary needs at least 4 points per dimension")

    import scipy.sparse as sp  # see spsolve

    N = grid.size
    interior = grid.interior
    WP, WM, LV, DEN = _candidate_tables(model, cost, grid)
    nb_p = interior[:, None] + grid.strides
    nb_m = interior[:, None] - grid.strides

    # boundary rows B f = g: extrapolation rows with zero data, or Dirichlet
    # identity rows with the given data
    g = np.zeros(N)
    if extrapolate:
        b_rows, b_cols, b_data = _extrapolation_rows(grid)
    else:
        g[grid.boundary] = boundary
        b_rows = b_cols = grid.boundary
        b_data = np.ones(len(grid.boundary))
    B = sp.csr_matrix((b_data, (b_rows, b_cols)), shape=(N, N))
    f = g.copy()
    sel = np.arange(len(interior))

    # interior rows: the diagonal, then every +e_d and every -e_d neighbour
    rows = np.concatenate([np.tile(interior, 1 + 2 * grid.dim), b_rows])
    cols = np.concatenate([interior, nb_p.T.ravel(), nb_m.T.ravel(), b_cols])
    pol = LV.argmin(axis=0)
    converged = False
    history = []
    for _ in range(MAX_ITER):
        data = np.concatenate(
            [DEN[pol, sel], -WP[pol, sel].T.ravel(), -WM[pol, sel].T.ravel(), b_data]
        )
        rhs = g.copy()
        rhs[interior] = LV[pol, sel]
        A = sp.csr_matrix((data, (rows, cols)), shape=(N, N))
        t0 = time.perf_counter()
        f, solver = _linear_solve(A, rhs, f, grid.dim)
        solve_s = time.perf_counter() - t0
        # every candidate's one-sweep value; their minimum is a Bellman sweep
        stacked = ((WP * f[nb_p]).sum(axis=-1) + (WM * f[nb_m]).sum(axis=-1) + LV) / DEN
        fn = f.copy()
        fn[interior] = stacked.min(axis=0)
        fn -= B @ fn - g
        delta = float(np.abs(fn - f).max())
        best = stacked.argmin(axis=0)
        scale = max(1.0, float(np.abs(f).max()))
        new_pol = np.where(stacked[best, sel] < stacked[pol, sel] - TIE_RTOL * scale, best, pol)
        changes = int((new_pol != pol).sum())
        history.append(HJBIteration(delta, changes, solve_s, solver))
        if changes == 0:
            converged = delta <= tol * scale
            break
        pol = new_pol

    field = ValueField(grid=grid, values=f)
    resid = pde_residual(field, model, cost) if min(grid.counts) >= 5 else float("nan")
    report = HJBReport(
        boundary="extrapolate" if extrapolate else "dirichlet",
        iterations=len(history),
        converged=converged,
        sup_update=history[-1].sup_update,
        interior_residual=resid,
        history=tuple(history),
    )
    return HJBSolution(value=field, report=report)


def extract_policy(field: ValueField, model: TreeModel, cost: RunningCostSpec) -> PolicyField:
    """Minimizing control at every grid point of a solved value field.

    The gradient uses central differences in the interior and one-sided
    differences on the box faces.  The controls are those of
    ``hamiltonian_field``: each side's vertex is chosen on its own, on both
    sides of the plane ``s = 0``.  For a cost affine in the control they are
    these sided vertex rows alone, so the minimized value is not evaluated.
    """
    grid = field.grid
    Df = np.stack(np.gradient(field.reshape(), *grid.spacing), axis=-1).reshape(grid.size, -1)
    if cost.affine_in_control:
        U, V = _sided_controls(model, cost, grid.points, Df)
    else:
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
    interest.  Both boxes are closed by extrapolation: Dirichlet data belongs
    to one grid, so an array ``boundary`` fails the enlarged solve's check.
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
        write_csv(fh, payload)


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
