"""Euler simulation of the controlled state diffusion and cost estimation.

Paths follow ``X_{k+1} = X_k + b(X_k, U_k) dt + r sqrt(dt) xi_k`` with the
control read from a pluggable policy at the left endpoint, by one Euler
loop (``_run_chunk``) under one ensemble driver (``ensemble``).

Policies are tabulated: each keeps its controls as the rows of a fixed
table ``table = (Ut, Vt)`` and picks rows with ``index(X, t)``, which
returns an int (one row for every state) or an integer array (one row per
state); ``controls(X, t)`` is the public view of the same choice.  With the
imbalance ``s`` the drift ``-X Rx^T + s^+ (U Rx^T - theta U) + s^- V Rb^T +
ell`` and the running cost are affine in one coefficient column per row,
so the loop builds those columns once and a step gathers the picked ones.
A policy with ``table = None`` or with only ``controls`` (a blending
``GridMarkov``, user policies) is simulated by the same loop, its rows
turned into columns at each step.  Either way the floats are those of
``drift_batch`` and ``RunningCostSpec.evaluate`` on the same rows.

Reproducibility is counter-based: path chunks of a fixed layout draw from
generators seeded ``(seed, stream + chunk_index)`` and are reduced in chunk
order, so results are byte-identical for a given seed regardless of the
worker count.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# drift_batch stays importable here: it is the batch form of what _columns tabulates
from .flows import _drift_maps, drift_batch  # noqa: F401
from .model import ControlPoint, RunningCostSpec, TreeModel

# state rows per simulation chunk; fixed so runs reproduce across workers
CHUNK = 65536


# -- policies (tabulated: ``table`` and ``index``, see the module docstring) ---


def _table_controls(policy, X, t):
    """Controls of a tabulated policy: rows ``policy.index(X, t)`` of its
    table, ``(B, I)`` and ``(B, J)`` for the ``B`` states in ``X``."""
    Ut, Vt = policy.table
    k = policy.index(X, t)
    if isinstance(k, np.ndarray):
        return Ut[k], Vt[k]
    B = len(X)
    return np.broadcast_to(Ut[k], (B, Ut.shape[1])), np.broadcast_to(Vt[k], (B, Vt.shape[1]))


class FixedControl:
    """Constant control; the simplest Markov policy."""

    def __init__(self, point: ControlPoint):
        self.point = point
        self.table = (point.u[None, :], point.v[None, :])

    def index(self, X: np.ndarray, t: float) -> int:
        return 0

    controls = _table_controls


class StaticPriority(FixedControl):
    """All queueing on one class, all idleness at one station."""

    def __init__(self, queue_class: int, idle_station: int, classes: int, stations: int):
        super().__init__(ControlPoint.vertex(queue_class, idle_station, classes, stations))
        self.queue_class = queue_class
        self.idle_station = idle_station

    @classmethod
    def for_model(cls, model: TreeModel, queue_class: int, idle_station: int) -> "StaticPriority":
        return cls(queue_class, idle_station, model.classes, model.stations)


def default_priority_edge(model: TreeModel) -> tuple[int, int]:
    """First edge whose service rate dominates the class abandonment rate.

    Such an edge makes the static-priority policy keep the state on a
    polynomial leash; falls back to the first edge when none qualifies.
    """
    for i, j in model.edges:
        if model.mu[i, j] >= model.theta[i]:
            return i, j
    return model.edges[0]


class SwitchingControl:
    """Deterministic time-dependent control hopping between vertex pairs.

    Switch targets are drawn once from a seeded generator, so the control
    is a fixed function of time; exercises non-Markov admissible behavior.
    The table holds one vertex pair per time slot of length ``period``.
    """

    def __init__(self, model: TreeModel, period: float, horizon: float, seed: int = 0):
        if period <= 0:
            raise ValueError("period must be positive")
        rng = np.random.default_rng([seed, 2718])
        count = int(np.ceil(horizon / period)) + 2
        self.period = period
        us = np.zeros((count, model.classes))
        vs = np.zeros((count, model.stations))
        us[np.arange(count), rng.integers(0, model.classes, size=count)] = 1.0
        vs[np.arange(count), rng.integers(0, model.stations, size=count)] = 1.0
        self.table = (us, vs)

    def index(self, X: np.ndarray, t: float) -> int:
        return min(int(t / self.period), len(self.table[0]) - 1)

    controls = _table_controls


class GridMarkov:
    """Markov policy read off a grid-sampled policy field.

    Accepts any object with ``grid``, ``u`` and ``v`` attributes (see the
    grid solver module).  The default lookup is nearest-neighbor: the table
    is the field's rows and ``index`` the flat index of the nearest grid
    point, with states outside the box clipped onto it.  Controls at
    neighboring grid points may be distant vertices, so blending them is
    only meaningful for costs affine in the control and is opt-in; a
    blending policy has no table.
    """

    def __init__(self, field, blend: bool = False):
        self.field = field
        self.blend = blend
        g = field.grid
        self._lows = g.lows
        self._spacing = g.spacing
        self._counts = g.counts
        # flat (C-order) index of grid point n is n @ _strides
        self._strides = np.append(np.cumprod(g.counts[:0:-1])[::-1], 1).astype(float)
        self._top = g.counts - 1.0
        self.table = None if blend else (field.u, field.v)

    def _clipped_coords(self, X: np.ndarray) -> np.ndarray:
        rel = (X - self._lows) / self._spacing
        np.maximum(rel, 0.0, out=rel)
        return np.minimum(rel, self._top, out=rel)

    def index(self, X: np.ndarray, t: float) -> np.ndarray:
        rel = self._clipped_coords(X)
        np.rint(rel, out=rel)
        return (rel @ self._strides).astype(np.intp)

    def controls(self, X: np.ndarray, t: float):
        if not self.blend:
            return _table_controls(self, X, t)
        rel = self._clipped_coords(np.asarray(X, dtype=float))
        lo = np.floor(rel).astype(int)
        lo = np.minimum(lo, self._counts - 2)
        frac = rel - lo
        dims = len(self._counts)
        u = np.zeros((len(X), self.field.u.shape[1]))
        v = np.zeros((len(X), self.field.v.shape[1]))
        for corner in range(1 << dims):
            offs = np.array([(corner >> d) & 1 for d in range(dims)])
            weight = np.prod(np.where(offs, frac, 1.0 - frac), axis=1)
            flat = ((lo + offs) @ self._strides).astype(np.intp)
            u += weight[:, None] * self.field.u[flat]
            v += weight[:, None] * self.field.v[flat]
        return u, v


# -- path simulation ---------------------------------------------------------


@dataclass(frozen=True)
class SimPath:
    """One realized path: states, controls, and the driving noise."""

    dt: float
    x: np.ndarray      # (n+1, I)
    u: np.ndarray      # (n, I)
    v: np.ndarray      # (n, J)
    noise: np.ndarray  # (n+1, I) standard Brownian path

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.x))

    def to_csv(self, path) -> None:
        I = self.x.shape[1]
        J = self.v.shape[1]
        n = len(self.u)
        cols = ["t"] + [f"x{i}" for i in range(I)]
        cols += [f"u{i}" for i in range(I)] + [f"v{j}" for j in range(J)]
        cols += [f"W{i}" for i in range(I)]
        pad_u = np.vstack([self.u, self.u[-1:]]) if n else np.zeros((1, I))
        pad_v = np.vstack([self.v, self.v[-1:]]) if n else np.zeros((1, J))
        data = np.column_stack([self.times, self.x, pad_u, pad_v, self.noise])
        np.savetxt(path, data, delimiter=",", header=",".join(cols), comments="", fmt="%.17g")


def simulate_path(
    model: TreeModel,
    x0,
    policy,
    horizon: float,
    dt: float = 1e-3,
    seed: int = 0,
) -> SimPath:
    """One controlled path: the single path of ``ensemble(..., seed, stream=0)``."""
    if dt <= 0 or horizon <= 0:
        raise ValueError("horizon and dt must be positive")
    n = int(round(horizon / dt))
    I = model.classes
    u, v, xi = np.empty((n, I)), np.empty((n, model.stations)), np.empty((n, I))
    rng = np.random.default_rng([int(seed), 0])
    x0s = np.asarray(x0, dtype=float)[None, :]
    _, snaps = _run_chunk(model, x0s, policy, n, dt, rng, None, range(n + 1), (u, v, xi))
    noise = np.zeros((n + 1, I))
    noise[1:] = np.sqrt(dt) * xi
    np.cumsum(noise, axis=0, out=noise)
    return SimPath(dt=dt, x=snaps.reshape(n + 1, I), u=u, v=v, noise=noise)


def _columns(model, cost, U, V):
    """Drift and cost coefficients of the control rows ``U`` ``(n, I)`` and ``V`` ``(n, J)``.

    The drift is ``-X Rx^T + s^+ (U Rx^T - theta U) + s^- (V Rb^T) + ell`` and
    the cost ``s^+^p sum c u^p + s^-^q sum d v^q + kappa |x|^m + constant``,
    so each row enters a step through two coefficient columns.  Returns
    ``(Q, Z)``, each ``(I + 1, n)``: ``Q[:I]`` is the queue-side drift and
    ``Q[I]`` the queue cost weight, ``Z[:I]`` and ``Z[I]`` the idle-side ones
    (zero weights when ``cost`` is None).  The float operations are those of
    ``drift_batch`` and ``RunningCostSpec.evaluate`` on the same rows.
    """
    RxT, _, RbT = _drift_maps(model)
    queue = U @ RxT
    if model.theta.any():
        queue = queue - model.theta * U
    cu = dv = np.zeros(len(U))
    if cost is not None:
        cu = U @ cost.c if cost.p == 1.0 else (cost.c * U**cost.p).sum(axis=-1)
        dv = V @ cost.d if cost.q == 1.0 else (cost.d * V**cost.q).sum(axis=-1)
    return np.column_stack([queue, cu]).T, np.column_stack([V @ RbT, dv]).T


def _row_sum(A):
    """Sum over the rows of ``A``, added in row order: the order in which
    ``drift_batch`` and ``evaluate`` sum the coordinates of ``(B, I)`` states."""
    out = A[0]
    for row in A[1:]:
        out = out + row
    return out


def _run_chunk(model, x0s, policy, n_steps, dt, rng, cost=None, snap_idx=(), record=None):
    """Advance a batch of paths: the one Euler loop of the package.

    ``x0s`` is the ``(B, I)`` batch of initial states.  Returns the per-path
    running-cost integrals discounted at ``model.gamma`` (when ``cost`` is
    given, else ``None``) and the ``(len(snap_idx), B, I)`` states at the
    requested step indices.  ``record``, when given, is a ``(u, v, xi)``
    triple of arrays with ``n_steps`` rows into which each step writes its
    controls and its raw standard normal draw.

    The state is kept class-major, ``(I, B)``.  A tabulated policy's rows are
    turned into coefficient columns once (``_columns``); each step then takes
    the columns of the rows ``policy.index`` picks.  A policy with only
    ``controls`` has its rows turned into columns at every step.
    """
    X = np.array(x0s, dtype=float).T.copy()
    I, B = X.shape
    table = getattr(policy, "table", None)
    if table is not None:
        Q, Z = (np.ascontiguousarray(a) for a in _columns(model, cost, *table))
        # the (I + 1, 1) column of each row, for an index shared by all paths
        Qk, Zk = Q.T[:, :, None], Z.T[:, :, None]
    # lin @ X is (X.T @ -Rx^T).T; the transposed view, not a copy, makes BLAS
    # round it as drift_batch does (a copy differs for a single path)
    lin = _drift_maps(model)[1].T
    ell = model.ell[:, None] if model.ell.any() else None
    noise_scale = model.r * np.sqrt(dt)
    costs = np.zeros(B) if cost is not None else None
    if cost is not None:
        c_on, d_on = cost.c.any(), cost.d.any()
    snaps = np.empty((len(snap_idx), B, I))
    # snapshot slots in step order, with a sentinel past the last step
    order = np.argsort(snap_idx, kind="stable")
    due = np.append(np.asarray(snap_idx, dtype=int)[order], n_steps + 1)
    p = 0
    while due[p] == 0:
        snaps[order[p]] = X.T
        p += 1
    disc = 1.0
    decay = np.exp(-model.gamma * dt)
    for k in range(n_steps):
        t = k * dt
        s = _row_sum(X)
        pos = np.maximum(s, 0.0)
        neg = pos - s
        if table is None:
            U, V = policy.controls(X.T, t)
            qa, za = _columns(model, cost, U, V)
        else:
            idx = policy.index(X.T, t)
            if isinstance(idx, np.ndarray):
                qa, za = Q.take(idx, axis=1), Z.take(idx, axis=1)
            else:
                qa, za = Qk[idx], Zk[idx]
            if record is not None:
                U, V = table[0][idx], table[1][idx]
        if cost is not None:
            # the terms in RunningCostSpec.evaluate's order; x + constant is constant + x
            if c_on:
                step_cost = (pos if cost.p == 1.0 else pos**cost.p) * qa[I]
                if cost.constant:
                    step_cost += cost.constant
            else:
                step_cost = np.full(B, cost.constant)
            if d_on:
                step_cost += (neg if cost.q == 1.0 else neg**cost.q) * za[I]
            if cost.kappa:
                norm = _row_sum(np.abs(X))
                step_cost += cost.kappa * (norm if cost.m == 1.0 else norm**cost.m)
            step_cost *= disc * dt
            costs += step_cost
            disc *= decay
        b = lin @ X
        b += pos * qa[:I]
        b += neg * za[:I]
        if ell is not None:
            b += ell
        b *= dt
        X += b
        xi = rng.standard_normal((B, I))
        if record is not None:
            record[0][k], record[1][k], record[2][k] = U, V, xi
        xi *= noise_scale
        X += xi.T
        while due[p] == k + 1:
            snaps[order[p]] = X.T
            p += 1
    return costs, snaps


def ensemble(model: TreeModel, x0s, policy, n_paths: int, n_steps: int, dt: float, seed: int,
             reduce, *, cost=None, snap_idx=(), stream: int = 0, threads: int = 1) -> list:
    """Run ``n_paths`` Euler paths from every row of ``x0s``, chunk by chunk.

    Chunk ``c`` holds ``max(1, CHUNK // B)`` paths per start (fewer in the
    last chunk) as the rows ``np.repeat(x0s, size, 0)`` and draws from
    ``default_rng([seed, stream + c])``.  Each worker returns
    ``reduce(costs, snaps, size)`` on the output of ``_run_chunk``; the
    results come back in chunk order, so a reduction summed over them is
    byte-identical for any ``threads``.
    """
    snap_idx = [int(k) for k in snap_idx]
    if n_paths < 1 or dt <= 0 or n_steps < 0:
        raise ValueError("n_paths and dt must be positive and n_steps nonnegative")
    if any(not 0 <= k <= n_steps for k in snap_idx):
        raise ValueError(f"snapshot steps must lie in [0, {n_steps}]")
    x0s = np.asarray(x0s, dtype=float)
    size = max(1, CHUNK // len(x0s))

    def work(c):
        n = min(size, n_paths - c * size)
        rng = np.random.default_rng([int(seed), stream + c])
        costs, snaps = _run_chunk(model, np.repeat(x0s, n, axis=0), policy, n_steps, dt, rng,
                                  cost, snap_idx)
        return reduce(costs, snaps, n)

    chunks = range(-(-n_paths // size))
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(work, chunks))
    return [work(c) for c in chunks]


def path_snapshots(costs, snaps, size):
    """``ensemble`` reducer keeping every path's snapshots, ``(size, len(snap_idx), I)``;
    ``np.concatenate`` of the results stacks all paths in chunk order."""
    return snaps.swapaxes(0, 1).copy()


def _mean_stderr(total, total_sq, n):
    """Sample mean and its standard error from a sum and a sum of squares."""
    mean = total / n
    var = np.maximum(total_sq / n - mean**2, 0.0) * n / max(n - 1, 1)
    return mean, np.sqrt(var / n)


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo discounted-cost estimate with a truncation tail bound.

    ``mean`` integrates the discounted running cost up to the horizon; the
    tail beyond it is bounded by the cost growth envelope against the
    fitted polynomial moment curve and reported separately.
    """

    mean: float
    stderr: float
    n_paths: int
    horizon: float
    dt: float
    tail_bound: float
    moment_exponent: float


def _tail_bound(cost, gamma, horizon, times, moments):
    """Bound the discounted cost beyond the horizon.

    Fits ``log E||X||^m`` against ``log(1+t)`` and integrates the cost
    envelope ``scale * (1 + moment(t))`` under the discount from the horizon
    on.
    """
    # imported here, like pathops' scipy.signal, to keep `import hwsched` light
    from scipy.integrate import quad

    mom = np.maximum(np.asarray(moments, dtype=float), 1e-300)
    if mom.max() < 1e-12:
        poly = lambda t: 0.0
    else:
        A = np.column_stack([np.ones_like(times), np.log1p(times)])
        coef, *_ = np.linalg.lstsq(A, np.log(mom), rcond=None)
        poly = lambda t: np.exp(coef[0]) * (1.0 + t) ** min(coef[1], 50.0)
    integrand = lambda t: np.exp(-gamma * t) * (1.0 + poly(t))
    val, _ = quad(integrand, horizon, np.inf, limit=200)
    return cost.growth_scale * val


def mc_cost(
    model: TreeModel,
    cost: RunningCostSpec,
    x0,
    policy,
    n_paths: int,
    horizon: float | None = None,
    dt: float = 1e-3,
    seed: int = 0,
    threads: int = 1,
) -> CostEstimate:
    """Estimate the discounted running cost from one starting state.

    The default horizon is ``12 / gamma`` so the neglected discount mass is
    below ``1e-5``; the reported tail bound makes the truncation auditable.
    """
    means, ses, tails = mc_cost_batch(
        model, cost, np.asarray(x0, dtype=float)[None, :], policy,
        n_paths, horizon=horizon, dt=dt, seed=seed, threads=threads,
    )
    T = horizon if horizon is not None else 12.0 / model.gamma
    return CostEstimate(
        mean=float(means[0]),
        stderr=float(ses[0]),
        n_paths=n_paths,
        horizon=T,
        dt=dt,
        tail_bound=float(tails[0]),
        moment_exponent=cost.growth_exponent,
    )


def mc_cost_batch(
    model: TreeModel,
    cost: RunningCostSpec,
    x0s: np.ndarray,
    policy,
    n_paths: int,
    horizon: float | None = None,
    dt: float = 1e-3,
    seed: int = 0,
    threads: int = 1,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cost estimates for many starting states in one vectorized run.

    Each of the ``B`` rows of ``x0s`` gets ``n_paths`` independent paths;
    returns per-state means, standard errors, and tail bounds.
    """
    if model.gamma <= 0:
        raise ValueError("discount rate must be positive")
    bad = cost.check()
    if bad:
        raise ValueError("invalid cost spec: " + "; ".join(bad))
    x0s = np.asarray(x0s, dtype=float)
    B = len(x0s)
    T = horizon if horizon is not None else 12.0 / model.gamma
    n_steps = int(round(T / dt))

    # moment snapshots for the tail fit
    fit_times = np.geomspace(max(8 * dt, T / 16.0), T, 6)
    fit_idx = sorted(set(int(round(t / dt)) for t in fit_times))
    fit_idx = [min(k, n_steps) for k in fit_idx]
    m_exp = cost.growth_exponent

    def reduce(costs, snaps, size):
        costs = costs.reshape(B, size)
        mom = (np.abs(snaps).sum(axis=2) ** m_exp).reshape(len(fit_idx), B, size).sum(axis=2)
        return costs.sum(axis=1), (costs**2).sum(axis=1), mom

    parts = ensemble(model, x0s, policy, n_paths, n_steps, dt, seed, reduce,
                     cost=cost, snap_idx=fit_idx, threads=threads)
    total, total_sq, mom_sum = map(sum, zip(*parts))
    mean, se = _mean_stderr(total, total_sq, n_paths)
    tails = np.array(
        [
            _tail_bound(cost, model.gamma, T, dt * np.array(fit_idx), mom_sum[:, b] / n_paths)
            for b in range(B)
        ]
    )
    return mean, se, tails


@dataclass(frozen=True)
class MomentCurve:
    times: np.ndarray
    means: np.ndarray
    stderrs: np.ndarray
    exponent: float


def moment_curve(
    model: TreeModel,
    policy,
    x0,
    exponent: float,
    times,
    n_paths: int,
    dt: float = 1e-3,
    seed: int = 0,
    threads: int = 1,
) -> MomentCurve:
    """Monte Carlo estimates of the state-norm moment at the given times."""
    times = np.asarray(times, dtype=float)
    if exponent < 1:
        raise ValueError("moment exponent must be at least 1")
    idx = [int(round(t / dt)) for t in times]

    def reduce(costs, snaps, size):
        vals = np.abs(snaps).sum(axis=2) ** exponent
        return vals.sum(axis=1), (vals**2).sum(axis=1)

    parts = ensemble(model, np.asarray(x0, dtype=float)[None, :], policy, n_paths, max(idx), dt,
                     seed, reduce, snap_idx=idx, threads=threads)
    mean, se = _mean_stderr(*map(sum, zip(*parts)), n_paths)
    return MomentCurve(times, mean, se, exponent)
