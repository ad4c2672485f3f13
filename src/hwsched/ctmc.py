"""Discrete-event simulation of the n-server pre-limit queueing system.

The n-th system has Poisson arrivals, exponential services and abandonment,
and a preemptive assignment rule that recomputes the in-service matrix as a
pure function of the headcounts after every event.  All replications of a
run step together in one event loop, each on its own clock and random
stream.  Emitted paths are the centered, root-n-scaled processes, directly
comparable with the diffusion simulator output.

A target rule's lift is linear, so the rule keeps a table with one row per
aggregate headcount, ``Psi = X @ Lx + K[X.sum(1)]`` in exact integers, built
once, when the rule is made, for every aggregate below ``2 * caps.sum() +
1``.  The event loop folds that table into its check map once per run, so
each event's whole check vector (assignment, queues, idleness,
non-activities) is one float product of the headcounts plus one table row.
Only rows whose assignment part is negative, which includes every aggregate
past the table, call the rule's ``assign_batch``: the exact path of capped
targets, lift and greedy fill, which gives the table's integers wherever the
table row is nonnegative.  One minimum over the batch checks every
invariant, the broken one is named only when that minimum is negative, and
all event rates come from one more float product.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .flows import lift_matrix
from .model import ControlPoint, TreeModel

# the largest scale n: a rule's lift table has 2 caps.sum() + 1 rows, 420 to
# 480 B per unit of n (n_model, n = 10^4 to 10^6, greedy and tracking rules),
# so about 480 MB
MAX_N = 10**6
# the most replications a run may take: each holds a generator and a block of
# uniforms, 5.3 kB (n_model, R = 2000 to 4000), so about 530 MB
MAX_REPS = 10**5
# the most samples, replications times sample times, a run may store: 64 B a
# replication sample in the CLI's prelimit, and 48 B a path sample in its
# compare (n_model, R 500 to 1000, 2000 to 4000 paths, 100 to 1000 samples),
# so about 640 MB
MAX_SAMPLES = 10**7


@dataclass(frozen=True)
class ScalingSpec:
    """System-size parametrization around the fluid operating point; ``n``
    is at most ``MAX_N``."""

    n: int
    lam_hat: np.ndarray
    mu_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "lam_hat", np.asarray(self.lam_hat, dtype=float))
        object.__setattr__(self, "mu_hat", np.asarray(self.mu_hat, dtype=float))
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if self.n > MAX_N:
            raise ValueError(f"n {self.n} is more than MAX_N = {MAX_N:g}")

    @classmethod
    def centered(cls, model: TreeModel, n: int) -> "ScalingSpec":
        return cls(n, np.zeros(model.classes), np.zeros((model.classes, model.stations)))

    def arrival_rates(self, model: TreeModel) -> np.ndarray:
        return self.n * model.lam + np.sqrt(self.n) * self.lam_hat

    def service_rates(self, model: TreeModel) -> np.ndarray:
        rates = model.mu + self.mu_hat / np.sqrt(self.n)
        return np.where(model.edge_mask, rates, 0.0)

    def server_counts(self, model: TreeModel) -> np.ndarray:
        return np.rint(self.n * model.nu).astype(int)


def initial_headcounts(model: TreeModel, scaling: ScalingSpec, x_hat0):
    """Headcounts matching a scaled initial state, and the state realized
    after integer rounding."""
    x_hat0 = np.asarray(x_hat0, dtype=float)
    sqn = np.sqrt(scaling.n)
    X = np.rint(scaling.n * model.x_star + sqn * x_hat0).astype(int)
    X = np.maximum(X, 0)
    realized = (X - scaling.n * model.x_star) / sqn
    return X, realized


def _augment_work(model: TreeModel, X, Psi, caps):
    """Shuffle assignments along tree paths until no queued customer can
    reach idle capacity (preemption allowed).  Mutates ``Psi``.

    The search runs breadth-first over node ids (class ``i``, station
    ``I + j``) from every class with a queue: a class reaches its stations,
    a station only the classes it serves, until a station with idle room."""
    I = model.classes
    while True:
        Y = X - Psi.sum(axis=1)
        Z = caps - Psi.sum(axis=0)
        if Y.sum() == 0 or Z.sum() == 0:
            return
        parent = {i: None for i in range(I) if Y[i] > 0}
        queue = deque(parent)
        found = None
        while queue and found is None:
            a = queue.popleft()
            for b in model.adjacency[a]:
                if b in parent or (a >= I and Psi[b, a - I] <= 0):
                    continue
                parent[b] = a
                if b >= I and Z[b - I] > 0:
                    found = b
                    break
                queue.append(b)
        if found is None:
            return
        path = [found]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        path.reverse()  # class with queue, station, class, ..., station with idle room
        cls, st = path[::2], [b - I for b in path[1::2]]
        delta = min(Y[cls[0]], Z[st[-1]], *Psi[cls[1:], st[:-1]])
        Psi[cls, st] += delta
        Psi[cls[1:], st[:-1]] -= delta


class _TargetRule:
    """An assignment rule that names queue and idle targets for each state.

    The aggregate queue ``s^+`` (or idleness ``s^-``) is forced by the
    headcounts; a rule's ``_split`` splits it across classes (stations), and
    one exact integer contraction with the lifting map turns the targets into
    the in-service matrix.  ``assign_batch`` is that exact path: the rule's
    capped ``_targets``, their lift, and the greedy fill where that lift is
    negative (a target above a headcount, or targets the tree cannot hold).
    The lift is linear, so the rule also builds one table ``K[a]``, one row
    per aggregate ``a = s + caps.sum()`` below ``2 * caps.sum() + 1``, of
    ``(caps - Z) @ Lz - Y @ Lx`` for the uncapped targets of ``a``; the event
    loop folds ``table = (Lx, K)`` into its check product.  ``X @ Lx +
    K[X.sum(1)]`` is the exact path's answer wherever it is nonnegative (the
    class totals ``X - Y`` are then nonnegative, so the cap by ``X`` changes
    nothing), and an aggregate past the table reads a last row far below any
    real lift.  The rule is never mutated after construction.
    """

    def __init__(self, model: TreeModel, scaling: ScalingSpec, queue_class: int = 0,
                 idle_station: int = 0):
        self.model = model
        self.caps = scaling.server_counts(model)
        self.queue_class = queue_class
        self.idle_station = idle_station
        self.class_order = [i for i in range(model.classes) if i != queue_class] + [queue_class]
        self.station_order = [j for j in range(model.stations) if j != idle_station]
        self.station_order.append(idle_station)
        # the lifting map has entries 0 and +-1, so the integer map is exact
        self._lift = lift_matrix(model).reshape(model.classes * model.stations, -1).T.astype(int)
        s = np.arange(-self.caps.sum(), self.caps.sum() + 1)
        Y, Z = self._split(np.maximum(s, 0), np.maximum(-s, 0))
        table = np.concatenate([-Y, self.caps - Z], axis=1) @ self._lift
        # the last row, read by every aggregate past the table, is halved so
        # that adding X @ Lx to it cannot wrap around
        self._table = np.vstack([table, np.full(table.shape[1], np.iinfo(int).min // 2)])
        self._table.flags.writeable = False
        self.table = (self._lift[:model.classes], self._table)

    def assign_batch(self, X: np.ndarray) -> np.ndarray:
        """In-service counts ``Psi[R, I, J]`` for the headcounts ``X[R, I]``
        by the exact path (see the class docstring)."""
        X = np.asarray(X)
        s = np.add.reduce(X, axis=1) - self.caps.sum()
        Y, Z = self._targets(X, np.maximum(s, 0), np.maximum(-s, 0))
        Psi = np.concatenate([X - Y, self.caps - Z], axis=1) @ self._lift
        for r in np.flatnonzero(np.minimum.reduce(Psi, axis=1) < 0):
            Psi[r] = self._greedy_fill(X[r]).ravel()
        return Psi.reshape(len(X), self.model.classes, self.model.stations)

    def _targets(self, X, pos, neg):
        """Queue and idle targets of the headcounts ``X``; by default the
        uncapped split of their aggregates."""
        return self._split(pos, neg)

    def _greedy_fill(self, x: np.ndarray) -> np.ndarray:
        """One state's greedy assignment: the classes in ``class_order`` take
        free servers at the stations in ``station_order``, then the
        rebalancing pass moves service until no queued customer can reach
        idle capacity."""
        model = self.model
        Psi = np.zeros((model.classes, model.stations), dtype=int)
        free = self.caps.copy()
        for i in self.class_order:
            remaining = int(x[i])
            for j in self.station_order:
                if not model.edge_mask[i, j] or remaining == 0:
                    continue
                take = min(remaining, int(free[j]))
                Psi[i, j] = take
                free[j] -= take
                remaining -= take
        _augment_work(model, x, Psi, self.caps)
        return Psi

    def assign(self, X: np.ndarray) -> np.ndarray:
        return self.assign_batch(np.asarray(X)[None])[0]


class GreedyPriority(_TargetRule):
    """Preemptive assignment concentrating queueing on ``queue_class`` and
    idleness at ``idle_station``: the control-vertex targets ``s^+ e_qc`` and
    ``s^- e_is``.  Where the tree cannot hold them, a greedy fill with that
    class served last and that station filled last, then a rebalancing pass
    that moves service along the tree while queued work could fill idle room."""

    assign = _TargetRule.assign  # an attribute of its own, which perfbench's traced mode wraps

    def _split(self, pos, neg):
        Y = np.zeros((len(pos), self.model.classes), dtype=int)
        Y[:, self.queue_class] = pos
        Z = np.zeros((len(neg), self.model.stations), dtype=int)
        Z[:, self.idle_station] = neg
        return Y, Z


def _largest_remainder(weights: np.ndarray, total) -> np.ndarray:
    """Integer split of ``total`` proportional to ``weights``; an array of
    totals gives one split per entry.  Remainder ties go to the lower index."""
    raw = np.multiply.outer(total, weights)
    base = np.floor(raw).astype(int)
    frac = raw - base
    short = np.asarray(total - base.sum(axis=-1))
    # rank[k]: entries with a larger remainder, or an equal one at a lower index
    lower = np.tri(len(weights), k=-1, dtype=bool)
    ahead = (frac[..., None, :] > frac[..., :, None]) | (
        (frac[..., None, :] == frac[..., :, None]) & lower)
    return base + (ahead.sum(axis=-1) < short[..., None])


def _cap_targets(targets: np.ndarray, caps: np.ndarray) -> np.ndarray:
    """Clamp integer targets to per-entry caps, redistributing the overflow
    to entries with headroom in index order (one row per leading index)."""
    out = np.minimum(targets, caps)
    overflow = targets.sum(axis=-1) - out.sum(axis=-1)
    if not overflow.any():
        return out
    for k in range(out.shape[-1]):
        take = np.minimum(caps[..., k] - out[..., k], overflow)
        out[..., k] += take
        overflow -= take
    return out


class ImbalanceTracking(_TargetRule):
    """Assignment targeting a fixed control point's queue and idle splits.

    The rule splits the aggregate queue (or idleness) across classes
    (stations) by the control weights with largest-remainder rounding,
    capped by the headcounts (capacities), and lifts the targets through the
    tree flow equations.  When the targets are infeasible on the tree it
    falls back to the greedy fill of ``GreedyPriority(model, scaling)`` with
    the work-conserving rebalancing pass.  The lift table holds the splits
    before the headcount cap, so a row whose queue target exceeds a
    headcount reads a negative lift and is recomputed with the cap.
    """

    def __init__(self, model: TreeModel, scaling: ScalingSpec, point: ControlPoint):
        self.point = point  # the table built by the base class splits by it
        super().__init__(model, scaling)

    assign = _TargetRule.assign

    def _split(self, pos, neg):
        return (_largest_remainder(self.point.u, pos),
                _cap_targets(_largest_remainder(self.point.v, neg), self.caps))

    def _targets(self, X, pos, neg):
        Y, Z = self._split(pos, neg)
        return _cap_targets(Y, X), Z


@dataclass(frozen=True)
class CtmcPath:
    """Scaled sample path of one replication."""

    times: np.ndarray
    x_hat: np.ndarray  # (S, I)
    y_hat: np.ndarray  # (S, I)
    z_hat: np.ndarray  # (S, J)
    x_hat0: np.ndarray
    events: int


def _invalid_assignment(model, X, Psi) -> ValueError:
    """The first invariant that a batch of assignments ``Psi[R, I, J]``
    breaks, as the error to raise."""
    if Psi.min() < 0:
        return ValueError("assignment rule produced negative in-service counts")
    if Psi[:, ~model.edge_mask].any():
        return ValueError("assignment rule used a non-activity")
    if (X - Psi.sum(axis=2)).min() < 0:
        return ValueError("assignment rule violated the class headcount identity")
    return ValueError("assignment rule violated the station capacity identity")


# uniforms are drawn per replication in blocks of this many steps: 2 KB per
# replication, so 10 000 replications hold 20 MB of them; at 1000
# replications a block of 32 steps spent a sixth of the loop on the draw calls
_BLOCK_STEPS = 128


def _simulate(model, scaling, rule, x_hat0, horizon, seeds, sample_times):
    """Step one replication per seed key together: Gillespie's direct method
    over arrays, racing arrivals, per-activity completions and abandonments.

    Row r draws two uniforms per event from ``default_rng(seeds[r] + [31])``:
    the holding time is ``-log(u1) / total`` and the event is the first whose
    cumulative rate exceeds ``u2 * total``.  After every event each row's
    check vector ``[Psi | Y | Z | -Psi_off | 1]`` is one product and one
    table row, ``X @ A + T[X.sum(1)]``: a rule's ``table = (Lx, K)`` gives
    ``Psi_flat = X @ Lx + K[X.sum(1)]``, so ``A`` is ``Lx`` times the check
    map plus the embedding of ``X``, and ``T`` is ``K`` times the check map
    plus ``[0 | 0 | caps | 0 | 1]``.  Only rows whose ``Psi`` part is
    negative (targets the table cannot serve) call ``rule.assign_batch``,
    which takes the rule's exact path.  A rule without a table (say, a
    user's) reads ``A`` as the embedding alone and one row of ``T`` whose
    ``Psi`` part is negative, so every row calls ``assign_batch`` in the same
    loop.  One minimum over the batch must not be negative (on failure the
    first broken invariant is named).  The state, ``A``, ``T`` and the check
    vectors are float64 holding small integers, so every sum is exact and
    the aggregate ``X.sum(1)`` is kept as an integer beside them.  The rates
    ``[arrivals | completions | abandonments]`` are one float product of the
    check vector; each entry is one rate times one count plus exact zeros,
    so it is the bare product.  A row leaves the batch once its next event
    falls past ``horizon`` or its last sample is taken, so its path does not
    depend on the other rows.  Returns the sample times (default: 11 over
    the horizon), the integer samples ``(X, Y, Z)``, each row's event count
    and the realized start.  At most ``MAX_REPS`` seeds and ``MAX_SAMPLES``
    samples in all.
    """
    if not (0.0 < horizon < np.inf):
        raise ValueError(f"horizon must be positive and finite, got {horizon!r}")
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, 11)
    sample_times = np.asarray(sample_times, dtype=float)
    if not (np.isfinite(sample_times) & (sample_times >= 0.0)).all():
        raise ValueError("sample_times must be finite and nonnegative, "
                         f"got {sample_times.tolist()}")
    R, S, I, J = len(seeds), len(sample_times), model.classes, model.stations
    if R > MAX_REPS:
        raise ValueError(f"{R} replications are more than MAX_REPS = {MAX_REPS:g}")
    if R * S > MAX_SAMPLES:
        raise ValueError(f"{R} replications of {S} samples store more than "
                         f"MAX_SAMPLES = {MAX_SAMPLES:g} samples")
    IJ = I * J
    caps = scaling.server_counts(model)
    ei, ej = np.array(model.edges).T
    E = len(ei)
    off = np.flatnonzero(~model.edge_mask.ravel())
    # columns of the check vector: Psi, Y, Z, -Psi_off and the constant 1
    ys, zs = slice(IJ, IJ + I), slice(IJ + I, IJ + I + J)
    width = IJ + I + J + len(off) + 1
    check = np.zeros((IJ, width))
    check[:, :IJ] = np.eye(IJ)
    check[:, ys] = -np.kron(np.eye(I), np.ones((J, 1)))
    check[:, zs] = -np.tile(np.eye(J), (I, 1))
    check[off, IJ + I + J + np.arange(len(off))] = -1
    embed = np.zeros((I, width))  # X @ embed + const is [0 | X | caps | 0 | 1]
    embed[:, ys] = np.eye(I)
    const = np.zeros(width)
    const[zs], const[-1] = caps, 1
    table = getattr(rule, "table", None)
    if table is None:
        A, T = embed, const.copy()[None]
        T[:, :IJ] = -1
    else:
        Lx, K = table
        # the rule's last row of K, far below any real lift, stays far below
        A, T = embed + Lx @ check, K @ check + const
    rate_map = np.zeros((width, I + E + I))
    rate_map[-1, :I] = scaling.arrival_rates(model)
    rate_map[ei * J + ej, I + np.arange(E)] = scaling.service_rates(model)[ei, ej]
    rate_map[ys, I + E:] = np.diag(model.theta)
    unit = np.eye(I, dtype=int)
    moves = np.concatenate([unit, -unit[ei], -unit])  # arrivals, completions, abandonments
    agg_moves = moves.sum(axis=1)
    moves = moves.astype(float)
    X0, realized = initial_headcounts(model, scaling, x_hat0)
    gens = [np.random.default_rng(key + [31]) for key in seeds]
    due_at = np.append(sample_times, np.inf)
    end = horizon + 1e-12
    rec = (np.empty((R, S, I), int), np.empty((R, S, I), int), np.empty((R, S, J), int))
    events = np.zeros(R, dtype=int)
    rows = np.arange(R)  # replication of each active row
    X = np.tile(X0.astype(float), (R, 1))
    agg = np.full(R, X0.sum())
    t = np.zeros(R)
    si = np.zeros(R, dtype=int)
    limit = np.full(R, -np.inf)  # a row needs attention once its next event passes this
    step = 0
    with np.errstate(divide="ignore"):  # a row with no possible event waits forever
        while rows.size:
            V = X @ A
            V += T.take(agg, axis=0, mode="clip")
            if np.minimum.reduce(V, axis=None) < 0:
                Xi = X.astype(int)
                bad = np.flatnonzero(np.minimum.reduce(V[:, :IJ], axis=1) < 0)
                if bad.size:
                    Psi = rule.assign_batch(Xi[bad]).reshape(len(bad), IJ)
                    V[bad] = X[bad] @ embed + const + Psi @ check
                if np.minimum.reduce(V, axis=None) < 0:
                    raise _invalid_assignment(model, Xi, V[:, :IJ].reshape(-1, I, J))
            cum = np.add.accumulate(V @ rate_map, axis=1)
            total = cum[:, -1]
            k = step % _BLOCK_STEPS
            if k == 0:
                u = np.empty((rows.size, _BLOCK_STEPS, 2))
                for a, r in enumerate(rows):
                    gens[r].random(out=u[a])
            t_next = t - np.log(u[:, k, 0]) / total
            if np.logical_or.reduce(t_next > limit):
                Y, Z = V[:, ys], V[:, zs]
                due = due_at[si] < t_next
                while np.logical_or.reduce(due):
                    d = np.flatnonzero(due)
                    for out, val in zip(rec, (X, Y, Z)):
                        out[rows[d], si[d]] = val[d]
                    si += due
                    due = due_at[si] < t_next
                done = (si == S) | (t_next > end)
                if np.logical_or.reduce(done):
                    d = np.flatnonzero(done)
                    tail = (np.arange(S) >= si[d, None])[..., None]
                    for out, val in zip(rec, (X, Y, Z)):
                        out[rows[d]] = np.where(tail, val[d, None], out[rows[d]])
                    events[rows[d]] = step
                    keep = ~done
                    rows, X, agg, cum, total, t_next, si, u = (
                        rows[keep], X[keep], agg[keep], cum[keep], total[keep], t_next[keep],
                        si[keep], u[keep])
                limit = np.minimum(due_at[si], end)
            t = t_next
            # u2 < 1 keeps u2 * total below the last cumulative rate, so the
            # first rate to exceed it is an event of positive rate
            pick = (cum > (u[:, k, 1] * total)[:, None]).argmax(axis=1)
            X += moves.take(pick, axis=0)
            agg += agg_moves.take(pick)
            step += 1
    return sample_times, rec, events, realized


def simulate_ctmc(
    model: TreeModel,
    scaling: ScalingSpec,
    rule,
    x_hat0,
    horizon: float,
    seed: int = 0,
    sample_times=None,
) -> CtmcPath:
    """Run one replication of the n-th system and emit scaled samples.

    A batch of one in the event loop of :func:`run_replications`; ``seed``
    is an integer or a sequence of integers.
    """
    seed_key = [int(seed)] if np.isscalar(seed) else [int(s) for s in seed]
    times, (X, Y, Z), events, realized = _simulate(model, scaling, rule, x_hat0, horizon,
                                                   [seed_key], sample_times)
    sqn = np.sqrt(scaling.n)
    return CtmcPath(times, (X[0] - scaling.n * model.x_star) / sqn, Y[0] / sqn, Z[0] / sqn,
                    realized, int(events[0]))


def run_replications(
    model: TreeModel,
    scaling: ScalingSpec,
    rule,
    x_hat0,
    horizon: float,
    n_reps: int,
    seed: int = 0,
    sample_times=None,
) -> np.ndarray:
    """Scaled state samples across independent replications, ``(R, S, I)``.

    Replication r is the path of ``simulate_ctmc(..., seed=[seed, r])``,
    byte for byte, whatever ``n_reps``.
    """
    if n_reps > MAX_REPS:  # before the keys are listed; _simulate checks the rest
        raise ValueError(f"{n_reps} replications are more than MAX_REPS = {MAX_REPS:g}")
    seeds = [[int(seed), rep] for rep in range(n_reps)]
    _, (X, _, _), _, _ = _simulate(model, scaling, rule, x_hat0, horizon, seeds, sample_times)
    return (X - scaling.n * model.x_star) / np.sqrt(scaling.n)


# -- comparison ---------------------------------------------------------------


def _safe_z(delta: np.ndarray, se: np.ndarray) -> np.ndarray:
    """Z-scores; a zero standard error counts as agreement only at zero gap."""
    delta = np.abs(delta)
    with np.errstate(divide="ignore", invalid="ignore"):
        z = delta / se
    return np.where(se > 0, z, np.where(delta > 0, np.inf, 0.0))


def _var_se(samples: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sample variance and its standard error, along axis 0."""
    n = len(samples)
    mean = samples.mean(axis=0)
    dev = samples - mean
    s2 = (dev**2).sum(axis=0) / (n - 1)
    m4 = (dev**4).mean(axis=0)
    var_of_var = np.maximum(m4 - (n - 3) / (n - 1) * s2**2, 0.0) / n
    return s2, np.sqrt(var_of_var)


@dataclass(frozen=True)
class ComparisonReport:
    """Per-time, per-class discrepancies between two sample ensembles."""

    times: np.ndarray
    mean_a: np.ndarray
    mean_b: np.ndarray
    mean_se: np.ndarray
    var_a: np.ndarray
    var_b: np.ndarray
    var_se: np.ndarray

    @property
    def mean_z(self) -> np.ndarray:
        return _safe_z(self.mean_a - self.mean_b, self.mean_se)

    @property
    def var_z(self) -> np.ndarray:
        return _safe_z(self.var_a - self.var_b, self.var_se)

    @property
    def max_mean_z(self) -> float:
        return float(self.mean_z.max())

    @property
    def max_var_z(self) -> float:
        return float(self.var_z.max())

    def to_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "mean_a": self.mean_a.tolist(),
            "mean_b": self.mean_b.tolist(),
            "mean_z": self.mean_z.tolist(),
            "var_a": self.var_a.tolist(),
            "var_b": self.var_b.tolist(),
            "var_z": self.var_z.tolist(),
        }


def compare_samples(samples_a: np.ndarray, samples_b: np.ndarray, times) -> ComparisonReport:
    """Tabulate mean and variance discrepancies with combined errors.

    Both inputs have shape ``(replications, len(times), classes)``; the two
    replication counts may differ.
    """
    times = np.asarray(times, dtype=float)
    if samples_a.shape[1:] != samples_b.shape[1:]:
        raise ValueError("sample ensembles do not match in times or classes")
    if samples_a.shape[1] != len(times):
        raise ValueError("times do not match the sample arrays")
    na, nb = len(samples_a), len(samples_b)
    mean_a = samples_a.mean(axis=0)
    mean_b = samples_b.mean(axis=0)
    se_a = samples_a.std(axis=0, ddof=1) / np.sqrt(na)
    se_b = samples_b.std(axis=0, ddof=1) / np.sqrt(nb)
    var_a, vse_a = _var_se(samples_a)
    var_b, vse_b = _var_se(samples_b)
    return ComparisonReport(
        times=times,
        mean_a=mean_a,
        mean_b=mean_b,
        mean_se=np.sqrt(se_a**2 + se_b**2),
        var_a=var_a,
        var_b=var_b,
        var_se=np.sqrt(vse_a**2 + vse_b**2),
    )
