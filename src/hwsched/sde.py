"""Euler simulation of the controlled state diffusion and cost estimation.

Paths follow ``X_{k+1} = X_k + b(X_k, U_k) dt + r sqrt(dt) xi_k`` with the
control read from a pluggable policy at the left endpoint, by one Euler
loop (``_run_chunk``) under one ensemble driver (``ensemble``).

Policies are tabulated: each keeps its controls as the rows of a fixed
table ``table = (Ut, Vt)`` and picks rows with ``index(X, t)``, which
returns an int (one row for every state) or an integer array (one row per
state); ``controls(X, t)`` is the public view of the same choice.  With the
imbalance ``s`` the drift ``-X Rx^T + s^+ (U Rx^T - theta U) + s^- V Rb^T +
ell`` and the running cost are affine in one coefficient column per row and
side of ``s``, so the loop builds one table of those columns once
(``flows._columns``, which the grid solver shares) and a step gathers one
column per path, the idle-side one when ``s < 0``, and scales it by ``|s|``.
Only one of ``s^+`` and ``s^-`` is nonzero, so this adds the same floats as
the two-term formula.  A table whose rows all have the bytes of its first
(a fixed control, or a grid field that does not vary) is simulated as that
one row, with no call to ``index``.  A user policy with only ``controls``
(or with ``table = None``) is simulated by the same loop, its rows of the
step serving as the table.  Either way, below 8 classes, the floats are
those of ``drift_batch`` and ``RunningCostSpec.evaluate`` on the same
rows; from 8 classes on, numpy sums the coordinates in those two pairwise,
and the results can differ from the loop's in the last bit.  Normal draws
come in blocks of several steps, which a generator fills with the same
values as one draw per step; each block is drawn into one preallocated
buffer and scaled once into a class-major copy, so a step adds a
contiguous slice to the class-major state.  When a chunk is stepped on its
own (``ensemble`` at one worker thread, or with one chunk) and spans
several blocks of enough rows, one producer thread draws the next block
while the loop steps the current one, from the same generator and in the
same order, so the draws are the same bytes.

Reproducibility is counter-based: path chunks of a fixed layout draw from
generators seeded ``(seed, stream + chunk_index)`` and are reduced in chunk
order, so results are byte-identical for a given seed regardless of the
worker count.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

# drift_batch stays importable here: it is the batch form of what _columns tabulates
from .flows import _columns, _drift_maps, drift_batch  # noqa: F401
from .model import ControlPoint, RunningCostSpec, TreeModel, check_simplex, write_csv

# state rows per simulation chunk; fixed so runs reproduce across workers
CHUNK = 65536
# the most steps or slots a run may store: simulate_path stores 120 B a step,
# counterexample_flow 170 B a step, and a SwitchingControl 48 B a slot, 96 B
# while it is simulated (n_model, 10^5 to 4 10^5 steps), so about 1.7 GB;
# runs that reduce their paths as they go store no step
MAX_STEPS = 10**7


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
    """First edge of ``TreeModel.dominated``: its service rate is at least
    the class abandonment rate.

    Such an edge makes the static-priority policy keep the state on a
    polynomial leash; falls back to the first edge when none qualifies.
    """
    return next((e for e in model.edges if model.dominated[e]), model.edges[0])


class SwitchingControl:
    """Deterministic time-dependent control hopping between vertex pairs.

    Switch targets are drawn once from a seeded generator, slot by slot, so
    the control is a fixed function of time whatever horizon it is sized
    for; exercises non-Markov admissible behavior.
    The table holds one vertex pair per time slot of length ``period``,
    ``ceil(horizon / period) + 2`` slots, at most ``MAX_STEPS``.
    """

    def __init__(self, model: TreeModel, period: float, horizon: float, seed: int = 0):
        if period <= 0:
            raise ValueError(f"switch period must be positive, got {period:g}")
        count = np.ceil(horizon / period) + 2
        if count > MAX_STEPS:
            raise ValueError(f"switch period {period:g} gives more than MAX_STEPS = "
                             f"{MAX_STEPS:g} slots in {horizon:g}")
        rng = np.random.default_rng([seed, 2718])
        self.period = period
        # one (class, station) row per slot, so a longer horizon appends slots
        pairs = rng.integers(0, [model.classes, model.stations], size=(int(count), 2))
        self.table = (np.eye(model.classes)[pairs[:, 0]], np.eye(model.stations)[pairs[:, 1]])

    def index(self, X: np.ndarray, t: float) -> int:
        return min(int(t / self.period), len(self.table[0]) - 1)

    controls = _table_controls


class GridMarkov:
    """Markov policy read off a grid-sampled policy field.

    Accepts any object with a ``Grid`` ``grid`` and ``u``, ``v`` attributes
    (a ``PolicyField`` of the grid solver module) whose rows lie on the
    control simplex (``check_simplex``).  The table is the field's rows and
    ``index`` the flat index of the nearest grid point, with states outside
    the box clipped onto it.
    """

    def __init__(self, field):
        check_simplex(field.u, field.v)
        g = field.grid
        # unused here; perfbench/layers.py reads them
        self._lows, self._spacing, self._counts = g.lows, g.spacing, g.counts
        # flat (C-order) index of grid point n is _strides @ n
        self._strides = g.strides.astype(float)
        # (I, 1) columns: index works class-major, on the (I, B) transpose of X
        self._lows_i, self._spacing_i = g.lows[:, None], g.spacing[:, None]
        self._top_i = g.counts[:, None] - 1.0
        self.table = (field.u, field.v)

    def index(self, X: np.ndarray, t: float) -> np.ndarray:
        rel = X.T - self._lows_i
        rel /= self._spacing_i
        np.maximum(rel, 0.0, out=rel)
        np.minimum(rel, self._top_i, out=rel)
        np.rint(rel, out=rel)
        return (self._strides @ rel).astype(np.intp)

    controls = _table_controls


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
        write_csv(path, data, ",".join(cols))


def _n_steps(horizon, dt):
    """The number of ``dt`` Euler steps in ``horizon``: both must be positive
    and finite, and span at least one step."""
    if not (0.0 < dt < np.inf):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if not (0.0 < horizon < np.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    n = int(round(horizon / dt))
    if n == 0:
        raise ValueError(f"horizon must be at least dt / 2, one step, got {horizon!r} at dt {dt!r}")
    return n


def _stored_steps(horizon, dt):
    """``_n_steps`` for a run that stores every step: at most ``MAX_STEPS``."""
    n = _n_steps(horizon, dt)
    if n > MAX_STEPS:
        raise ValueError(f"horizon {horizon:g} spans {n} steps of dt {dt:g}, more than "
                         f"MAX_STEPS = {MAX_STEPS:g}")
    return n


def simulate_path(
    model: TreeModel,
    x0,
    policy,
    horizon: float,
    dt: float = 1e-3,
    seed: int = 0,
) -> SimPath:
    """One controlled path: the single path of ``ensemble(..., seed, stream=0)``,
    of at most ``MAX_STEPS`` steps."""
    n = _stored_steps(horizon, dt)
    I = model.classes
    u, v, xi = np.empty((n, I)), np.empty((n, model.stations)), np.empty((n, I))
    rng = np.random.default_rng([int(seed), 0])
    x0s = np.asarray(x0, dtype=float)[None, :]
    _, snaps = _run_chunk(model, x0s, policy, n, dt, rng, None, range(n + 1), (u, v, xi))
    noise = np.zeros((n + 1, I))
    noise[1:] = np.sqrt(dt) * xi
    np.cumsum(noise, axis=0, out=noise)
    return SimPath(dt=dt, x=snaps.reshape(n + 1, I), u=u, v=v, noise=noise)


def _row_sum(A, out):
    """Sum the rows of ``A`` (an array, or a sequence of row views) into
    ``out``, added in row order.

    Below 8 rows this is the order in which ``drift_batch`` and ``evaluate``
    sum the coordinates of ``(B, I)`` states; from 8 on, numpy sums those
    pairwise, so the sums can differ in the last bit."""
    if len(A) == 1:
        np.copyto(out, A[0])
        return out
    np.add(A[0], A[1], out=out)
    for row in A[2:]:
        out += row
    return out


def _same_rows(T):
    """Whether every row of the table ``T`` has the bytes of its first."""
    rows = np.ascontiguousarray(T).view(np.uint8).reshape(len(T), -1)
    return bool((rows == rows[0]).all())


# values per block of normal draws; a block is (K, B, I) with K = max(1, _BLOCK // (B I))
_BLOCK = 2**15
# fewest values per step (B I) for which a producer thread draws the next
# block: below it, handing a block over costs more than the overlap saves
_DRAW_AHEAD_MIN = 256


def _run_chunk(model, x0s, policy, n_steps, dt, rng, cost=None, snap_idx=(), record=None,
               draw_ahead=True):
    """Advance a batch of paths: the one Euler loop of the package.

    ``x0s`` is the ``(B, I)`` batch of initial states.  Returns the per-path
    running-cost integrals discounted at ``model.gamma`` (when ``cost`` is
    given, else ``None``) and the ``(len(snap_idx), B, I)`` states at the
    requested step indices, each in ``[0, n_steps]`` (else ``ValueError``).
    ``record``, when given, is a ``(u, v, xi)`` triple of arrays with
    ``n_steps`` rows into which each step writes its controls and its raw
    standard normal draw.

    The state is kept class-major, ``(I, B)``.  A tabulated policy's ``R``
    rows are turned once into one ``(I + 1, 2R)`` table of coefficient
    columns (``_columns``): the queue-side columns, then the idle-side ones.
    A path at imbalance ``s`` reads column ``row + R [s < 0]``, so one gather
    and one multiply by ``|s|`` give its drift correction ``s^+ q + s^- z``
    and, for linear costs, its cost weight; otherwise the weight is scaled
    by ``|s|^p`` or ``|s|^q``, chosen by side.  Exactly one of ``s^+`` and
    ``s^-`` is nonzero, so each sum has the same floats as adding both
    terms.  When every row of the table has the bytes of the first, the
    table is that row alone, so ``R = 1`` and ``index`` is never called: the
    gathered columns are the same floats, as they come from the same row,
    and ``record`` gets that row at every step.  The imbalance is summed in
    class order (``_row_sum`` over views of the state's rows, built once:
    the state changes only in place), as numpy sums fewer than 8 classes,
    so below 8 classes the drifts and costs are the floats of
    ``drift_batch`` and ``RunningCostSpec.evaluate``; from 8 classes on
    they can differ in the last bit.  The built-in policies are all
    tabulated; a user policy with only ``controls`` (or ``table = None``)
    has its rows of the step as the table, with row ``b`` for path ``b``.

    Normals are drawn in blocks of ``K`` steps into one preallocated
    ``(K, B, I)`` buffer of at most ``_BLOCK`` values (``record`` stores
    these raw draws), then scaled once per block into a preallocated
    class-major ``(K, I, B)`` buffer, so a step adds one contiguous
    ``(I, B)`` slice to the state.  A generator fills a block with the
    values that ``K`` draws of ``(B, I)`` would give in turn, so the paths,
    costs and ``record`` are the same bytes for any block size.  With
    ``draw_ahead``, more than one block and at least ``_DRAW_AHEAD_MIN``
    values a step, the raw draws alternate between two buffers: while the
    loop steps block ``j``, one producer thread fills block ``j + 1``, with
    the fill call alone, which runs without the GIL.  The blocks are still
    filled one after another from ``rng``, so nothing changes in the bytes;
    the thread is shut down before the call returns or raises.  The side of
    ``s`` is a bool array, and the gathered columns and the drift go into
    buffers allocated once.
    """
    X = np.array(x0s, dtype=float).T.copy()
    I, B = X.shape
    # views of X's class rows; X changes only in place, so they stay valid
    X_rows = tuple(X)
    table = getattr(policy, "table", None)
    if table is not None:
        if all(_same_rows(T) for T in table):
            table = tuple(T[:1] for T in table)
            U, V = table[0][0], table[1][0]
        # C order: take would copy a Fortran-ordered table at every step
        W = np.ascontiguousarray(np.hstack(_columns(model, cost, *table)))
        R = W.shape[1] // 2
    else:
        R, idx = B, np.arange(B)
    # lin @ X is (X.T @ -Rx^T).T; the transposed view, not a copy, makes BLAS
    # round it as drift_batch does (a copy differs for a single path)
    lin = _drift_maps(model)[1].T
    ell = model.ell[:, None] if model.ell.any() else None
    noise_scale = (model.r * np.sqrt(dt))[:, None]
    costs = np.zeros(B) if cost is not None else None
    linear = cost is None or (cost.p == 1.0 and cost.q == 1.0)
    snaps = np.empty((len(snap_idx), B, I))
    # snapshot slots in step order, with a sentinel past the last step
    order = np.argsort(snap_idx, kind="stable")
    due = [int(k) for k in np.asarray(snap_idx, dtype=int)[order]]
    if due and not 0 <= due[0] <= due[-1] <= n_steps:
        raise ValueError(f"snapshot steps must lie in [0, {n_steps}]")
    due.append(n_steps + 1)
    p = 0
    while due[p] == 0:
        snaps[order[p]] = X.T
        p += 1
    disc = 1.0
    decay = np.exp(-model.gamma * dt)
    s, a, norm = np.empty(B), np.empty(B), np.empty(B)
    # the gathered columns, with views of their drift and cost rows, and the
    # drift; every step rewrites them
    g, b = np.empty((I + 1, B)), np.empty((I, B))
    g_drift, g_cost = g[:I], g[I]
    side = np.empty(B, dtype=bool)
    # a path's column is row + R side; with one row it is its side
    col = side if R == 1 else np.empty(B, dtype=np.intp)
    K = max(1, _BLOCK // (B * I))
    producer = (ThreadPoolExecutor(1) if draw_ahead and n_steps > K and B * I >= _DRAW_AHEAD_MIN
                else None)
    # raw draws in generator order (with a producer, two buffers used in
    # turn), and the same draws scaled, class-major
    raws, noise = np.empty((1 if producer is None else 2, K, B, I)), np.empty((K, I, B))
    filling = None
    try:
        for j, start in enumerate(range(0, n_steps, K)):
            m = min(K, n_steps - start)
            raw = raws[j % len(raws)]
            if filling is None:
                rng.standard_normal(out=raw[:m])
            else:  # the producer filled this block while the last one was stepped
                filling.result()
            if producer is not None and start + K < n_steps:
                # the fill call alone: it runs without the GIL
                nxt = raws[(j + 1) % 2][:min(K, n_steps - start - K)]
                filling = producer.submit(rng.standard_normal, out=nxt)
            np.multiply(raw[:m].transpose(0, 2, 1), noise_scale, out=noise[:m])
            for k, xi in enumerate(noise[:m], start):
                t = k * dt
                _row_sum(X_rows, s)
                np.abs(s, out=a)
                np.less(s, 0.0, out=side)
                if table is None:
                    U, V = policy.controls(X.T, t)
                    W = np.hstack(_columns(model, cost, U, V))
                elif R > 1:
                    idx = policy.index(X.T, t)
                    if record is not None:
                        U, V = table[0][idx], table[1][idx]
                if R > 1:
                    np.multiply(side, R, out=col)
                    col += idx
                # indices are in range; mode "raise" would buffer the output
                W.take(col, axis=1, out=g, mode="clip")
                if linear:
                    g *= a
                else:
                    g_drift *= a
                    pos_w = a if cost.p == 1.0 else a**cost.p
                    neg_w = a if cost.q == 1.0 else a**cost.q
                    g_cost *= np.where(side, neg_w, pos_w)
                if cost is not None:
                    # evaluate adds constant + s^+ term + s^- term; one term is
                    # zero and x + constant is constant + x
                    if cost.constant:
                        g_cost += cost.constant
                    if cost.kappa:
                        _row_sum(np.abs(X), norm)
                        g_cost += cost.kappa * (norm if cost.m == 1.0 else norm**cost.m)
                    g_cost *= disc * dt
                    costs += g_cost
                    disc *= decay
                np.matmul(lin, X, out=b)
                b += g_drift
                if ell is not None:
                    b += ell
                b *= dt
                X += b
                if record is not None:
                    record[0][k], record[1][k], record[2][k] = U, V, raw[k - start]
                X += xi
                while due[p] == k + 1:
                    snaps[order[p]] = X.T
                    p += 1
    finally:
        if producer is not None:
            producer.shutdown(cancel_futures=True)
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

    ``threads`` counts chunk workers.  Chunks stepped one at a time (one
    thread, or one chunk) each draw their next block of normals on one more
    thread (``_run_chunk``'s ``draw_ahead``); with several workers the cores
    are already busy, and the chunks draw inline.
    """
    snap_idx = [int(k) for k in snap_idx]
    if n_paths < 1 or not (0.0 < dt < np.inf) or n_steps < 0:
        raise ValueError("n_paths and dt must be positive and n_steps nonnegative")
    x0s = np.asarray(x0s, dtype=float)
    size = max(1, CHUNK // len(x0s))
    chunks = range(-(-n_paths // size))
    alone = threads <= 1 or len(chunks) == 1

    def work(c):
        n = min(size, n_paths - c * size)
        rng = np.random.default_rng([int(seed), stream + c])
        costs, snaps = _run_chunk(model, np.repeat(x0s, n, axis=0), policy, n_steps, dt, rng,
                                  cost, snap_idx, draw_ahead=alone)
        return reduce(costs, snaps, n)

    if alone:
        return [work(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(work, chunks))


def path_snapshots(costs, snaps, size):
    """``ensemble`` reducer keeping every path's snapshots, ``(size, len(snap_idx), I)``;
    ``np.concatenate`` of the results stacks all paths in chunk order."""
    return snaps.swapaxes(0, 1).copy()


def _mean_stderr(total, total_sq, n):
    """Sample mean and its standard error from a sum and a sum of squares;
    the error is NaN for one sample, which gives no estimate of it."""
    mean = total / n
    if n < 2:
        return mean, np.full_like(mean, np.nan)
    var = np.maximum(total_sq / n - mean**2, 0.0) * n / (n - 1)
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


# Taylor coefficients of (Γ(1 + t) - 1) / t at t = 0 (the first is minus
# Euler's constant); below t = 0.01 they leave an error under 1e-16
_GAMMA1_TAYLOR = (-0.5772156649015329, 0.9890559953279725, -0.9074790760808863,
                  0.9817280868344002, -0.9819950689031453, 0.9931491146212762,
                  -0.9960017604424315, 0.998105693783129)
# Lentz's floor for a vanishing denominator
_TINY = 1e-300


def _upper_gamma(s, x):
    """The upper incomplete gamma function ``Γ(s, x)``, the integral of
    ``t^(s-1) e^-t`` from ``x`` to infinity, for real ``s`` and ``x > 0``.

    Where ``x >= max(1, s + 1)`` it evaluates Legendre's continued fraction by
    Lentz's method.  Elsewhere, for ``s >= 1``, it is ``Γ(s)`` minus the power
    series of the lower function.  Below 1 it starts from ``Γ(r, x)`` at
    ``r = s + k`` in ``[-1/2, 1)``, with ``k`` the nearest nonnegative
    integer to ``-s``: ``(Γ(1 + r) - x^r) / r - x^r sum_{n >= 1} (-x)^n /
    (n! (r + n))``, whose quotients by ``r`` are formed without cancellation
    near ``r = 0``, where the sum is ``E1(x)``.  It then takes ``k`` steps of
    ``Γ(t, x) = (Γ(t + 1, x) - x^t e^-x) / t`` down to ``s``; each divides by
    ``|t| >= 1/2``.  Every ``x^t e^-x`` is formed as ``exp(t log x - x)``, so
    that it cannot overflow where the result does not.
    """
    lx = math.log(x)
    if x >= max(1.0, s + 1.0):
        b = x + 1.0 - s
        c, d = 1.0 / _TINY, 1.0 / b
        h = d
        # a NaN s never converges; the cap returns it as NaN
        for i in range(1, 10_000):
            an = -i * (i - s)
            b += 2.0
            d = an * d + b
            d = 1.0 / (d if abs(d) > _TINY else _TINY)
            c = b + an / c
            if abs(c) < _TINY:
                c = _TINY
            delta = c * d
            h *= delta
            if abs(delta - 1.0) < 1e-16:
                break
        return math.exp(s * lx - x) * h
    if s >= 1.0:
        # the lower function is x^s e^-x sum_n x^n / (s (s + 1) ... (s + n))
        term = total = 1.0 / s
        n = 0
        while term > 1e-16 * total:
            n += 1
            term *= x / (s + n)
            total += term
        return math.gamma(s) - math.exp(s * lx - x) * total
    k = max(0, round(-s))
    r = s + k
    # x < 2 here, so the alternating sum cancels at most a digit
    term, total, n = 1.0, 0.0, 0
    while abs(term) > 1e-17:
        n += 1
        term *= -x / n
        total += term / (r + n)
    if abs(r) < 0.01:
        gm1 = 0.0
        for coef in reversed(_GAMMA1_TAYLOR):
            gm1 = gm1 * r + coef
    else:
        gm1 = (math.gamma(1.0 + r) - 1.0) / r
    g = gm1 - (math.expm1(r * lx) / r if r else lx) - math.exp(r * lx) * total
    for j in range(k - 1, -1, -1):
        g = (g - math.exp((s + j) * lx - x)) / (s + j)
    return g


def _tail_bound(cost, gamma, horizon, times, moments):
    """Bound the discounted cost beyond the horizon.

    Fits ``log E||X||^m`` against ``log t`` (a power law in time, which also
    holds at short horizons, where ``log(1 + t)`` is nearly ``t`` and the
    fitted exponent blows up) and integrates the cost envelope
    ``scale * (1 + moment(t))`` under the discount from the horizon on, in
    closed form: ``e^(-gamma T) / gamma`` for the 1, and for a moment
    ``e^c0 t^a`` (``a`` capped at 50) ``e^c0 Γ(a + 1, gamma T) /
    gamma^(a + 1)``.  Snapshots all at one time (a run of fewer than 8
    steps, or of none) fit a constant moment.  Moments that are not finite
    give NaN, and a bound past the float range gives infinity.
    """
    times = np.asarray(times, dtype=float)
    mom = np.maximum(np.asarray(moments, dtype=float), 1e-300)
    tail = math.exp(-gamma * horizon) / gamma
    if mom.max() < 1e-12:
        return cost.growth_scale * tail
    if np.ptp(times) == 0.0:
        tail *= 1.0 + math.exp(np.log(mom).mean())
    else:
        A = np.column_stack([np.ones_like(times), np.log(times)])
        coef, *_ = np.linalg.lstsq(A, np.log(mom), rcond=None)
        if not np.isfinite(coef).all():
            return math.nan  # moments that are not finite fit no envelope
        s = min(coef[1], 50.0) + 1.0
        try:
            tail += math.exp(coef[0] - s * math.log(gamma)) * _upper_gamma(s, gamma * horizon)
        except OverflowError:
            return math.inf
    return cost.growth_scale * tail


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
    T = horizon if horizon is not None else 12.0 / model.gamma
    n_steps = _n_steps(T, dt)
    x0s = np.asarray(x0s, dtype=float)
    B = len(x0s)

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
    if not (0.0 < dt < np.inf):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    if times.ndim != 1 or not times.size or not (np.isfinite(times) & (times >= 0.0)).all():
        raise ValueError("times must be a nonempty list of finite nonnegative values, "
                         f"got {times.tolist()}")
    idx = [int(round(t / dt)) for t in times]

    def reduce(costs, snaps, size):
        vals = np.abs(snaps).sum(axis=2) ** exponent
        return vals.sum(axis=1), (vals**2).sum(axis=1)

    parts = ensemble(model, np.asarray(x0, dtype=float)[None, :], policy, n_paths, max(idx), dt,
                     seed, reduce, snap_idx=idx, threads=threads)
    mean, se = _mean_stderr(*map(sum, zip(*parts)), n_paths)
    return MomentCurve(times, mean, se, exponent)
