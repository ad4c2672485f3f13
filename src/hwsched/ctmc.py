"""Discrete-event simulation of the n-server pre-limit queueing system.

The n-th system has Poisson arrivals, exponential services and abandonment,
and a preemptive assignment rule that recomputes the in-service matrix as a
pure function of the headcounts after every event.  All replications of a
run step together in one event loop, each on its own clock and random
stream.  Emitted paths are the centered, root-n-scaled processes, directly
comparable with the diffusion simulator output.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from .flows import lift_matrix
from .model import ControlPoint, TreeModel


@dataclass(frozen=True)
class ScalingSpec:
    """System-size parametrization around the fluid operating point."""

    n: int
    lam_hat: np.ndarray
    mu_hat: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "lam_hat", np.asarray(self.lam_hat, dtype=float))
        object.__setattr__(self, "mu_hat", np.asarray(self.mu_hat, dtype=float))
        if self.n < 1:
            raise ValueError("n must be at least 1")

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
    reach idle capacity (preemption allowed).  Mutates ``Psi``."""
    while True:
        Y = X - Psi.sum(axis=1)
        Z = caps - Psi.sum(axis=0)
        if Y.sum() == 0 or Z.sum() == 0:
            return
        parent: dict = {}
        found = None
        queue = deque(("c", i) for i in range(model.classes) if Y[i] > 0)
        seen = set(queue)
        while queue and found is None:
            kind, a = queue.popleft()
            if kind == "c":
                for j in range(model.stations):
                    if model.edge_mask[a, j] and ("s", j) not in seen:
                        seen.add(("s", j))
                        parent[("s", j)] = a
                        if Z[j] > 0:
                            found = j
                            break
                        queue.append(("s", j))
            else:
                for i in range(model.classes):
                    if Psi[i, a] > 0 and ("c", i) not in seen:
                        seen.add(("c", i))
                        parent[("c", i)] = a
                        queue.append(("c", i))
        if found is None:
            return
        # walk back: station, class, station, ..., class with queue
        path = [("s", found)]
        while True:
            kind, a = path[-1]
            p = parent[path[-1]]
            path.append(("c", p) if kind == "s" else ("s", p))
            if kind == "s" and Y[p] > 0 and ("c", p) not in parent:
                break
        path.reverse()  # class, station, class, ..., station with idle room
        delta = min(Y[path[0][1]], Z[found])
        for k in range(1, len(path) - 1, 2):
            j = path[k][1]
            i_next = path[k + 1][1]
            delta = min(delta, Psi[i_next, j])
        for k in range(0, len(path) - 1, 2):
            i = path[k][1]
            j = path[k + 1][1]
            Psi[i, j] += delta
            if k + 2 < len(path):
                Psi[path[k + 2][1], j] -= delta


class _TargetRule:
    """An assignment rule that names queue and idle targets for each state.

    The aggregate queue ``s^+`` (or idleness ``s^-``) is forced by the
    headcounts; a rule's ``_targets`` splits it across classes (stations),
    and one exact integer contraction with the lifting map turns the targets
    into the in-service matrix.  Rows whose lift has a negative entry
    (targets infeasible on the tree) take the greedy fill instead.
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

    def assign_batch(self, X: np.ndarray) -> np.ndarray:
        """In-service counts ``Psi[R, I, J]`` for the headcounts ``X[R, I]``."""
        X = np.asarray(X)
        s = X.sum(axis=1) - self.caps.sum()
        Y, Z = self._targets(X, np.maximum(s, 0), np.maximum(-s, 0))
        Psi = (np.concatenate([X - Y, self.caps - Z], axis=1) @ self._lift).reshape(
            len(X), self.model.classes, self.model.stations)
        if Psi.min(initial=0) < 0:
            for r in np.flatnonzero((Psi < 0).any(axis=(1, 2))):
                Psi[r] = self._greedy_fill(X[r])
        return Psi

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

    def _targets(self, X, pos, neg):
        Y = np.zeros_like(X)
        Y[:, self.queue_class] = pos
        Z = np.zeros((len(X), self.model.stations), dtype=int)
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
    the work-conserving rebalancing pass.  The splits are tabulated by
    aggregate: idleness up to the capacity, queues up to the largest seen.
    """

    def __init__(self, model: TreeModel, scaling: ScalingSpec, point: ControlPoint):
        super().__init__(model, scaling)
        self.point = point
        self._idle = _cap_targets(
            _largest_remainder(point.v, np.arange(self.caps.sum() + 1)), self.caps)
        self._queue = _largest_remainder(point.u, np.arange(self.caps.sum() + 1))

    assign = _TargetRule.assign

    def _targets(self, X, pos, neg):
        if pos.max(initial=0) >= len(self._queue):
            self._queue = _largest_remainder(self.point.u, np.arange(2 * pos.max() + 1))
        return _cap_targets(self._queue[pos], X), self._idle[neg]


@dataclass(frozen=True)
class CtmcPath:
    """Scaled sample path of one replication."""

    times: np.ndarray
    x_hat: np.ndarray  # (S, I)
    y_hat: np.ndarray  # (S, I)
    z_hat: np.ndarray  # (S, J)
    x_hat0: np.ndarray
    events: int


def _check_state(model, X, Psi, caps):
    """Queue and idle counts ``(Y[R, I], Z[R, J])`` of a batch of assignments;
    raises unless every assignment is valid."""
    Y = X - Psi.sum(axis=2)
    Z = caps - Psi.sum(axis=1)
    if Psi.min() < 0:
        raise ValueError("assignment rule produced negative in-service counts")
    if Psi[:, ~model.edge_mask].any():
        raise ValueError("assignment rule used a non-activity")
    if Y.min() < 0:
        raise ValueError("assignment rule violated the class headcount identity")
    if Z.min() < 0:
        raise ValueError("assignment rule violated the station capacity identity")
    return Y, Z


# uniforms are drawn per replication in blocks of this many steps: 512 bytes
# per replication, so 10 000 replications hold 5 MB of them
_BLOCK_STEPS = 32


def _simulate(model, scaling, rule, x_hat0, horizon, seeds, sample_times):
    """Step one replication per seed key together: Gillespie's direct method
    over arrays, racing arrivals, per-activity completions and abandonments.

    Row r draws two uniforms per event from ``default_rng(seeds[r] + [31])``:
    the holding time is ``-log(u1) / total`` and the event is the first whose
    cumulative rate exceeds ``u2 * total``.  After every event the rule
    reassigns all servers and the assignment is checked.  A row leaves the
    batch once its next event falls past ``horizon`` or its last sample is
    taken, so its path does not depend on the other rows.  Returns the sample
    times (default: 11 over the horizon), the integer samples ``(X, Y, Z)``,
    each row's event count and the realized start.
    """
    if sample_times is None:
        sample_times = np.linspace(0.0, horizon, 11)
    sample_times = np.asarray(sample_times, dtype=float)
    R, S, I = len(seeds), len(sample_times), model.classes
    caps = scaling.server_counts(model)
    ei, ej = np.array(model.edges).T
    flat = ei * model.stations + ej
    mu = scaling.service_rates(model)[ei, ej]
    unit = np.eye(I, dtype=int)
    moves = np.concatenate([unit, -unit[ei], -unit])  # arrivals, completions, abandonments
    svc, ab = slice(I, I + len(flat)), slice(I + len(flat), None)
    X0, realized = initial_headcounts(model, scaling, x_hat0)
    gens = [np.random.default_rng(key + [31]) for key in seeds]
    due_at = np.append(sample_times, np.inf)
    end = horizon + 1e-12
    rec = (np.empty((R, S, I), int), np.empty((R, S, I), int),
           np.empty((R, S, model.stations), int))
    events = np.zeros(R, dtype=int)
    rows = np.arange(R)  # replication of each active row
    X = np.tile(X0, (R, 1))
    rates = np.zeros((R, len(moves)))
    rates[:, :I] = scaling.arrival_rates(model)
    t = np.zeros(R)
    si = np.zeros(R, dtype=int)
    limit = np.full(R, -np.inf)  # a row needs attention once its next event passes this
    step = 0
    with np.errstate(divide="ignore"):  # a row with no possible event waits forever
        while rows.size:
            Psi = rule.assign_batch(X)
            Y, Z = _check_state(model, X, Psi, caps)
            np.multiply(Psi.reshape(len(X), -1)[:, flat], mu, out=rates[:, svc])
            np.multiply(model.theta, Y, out=rates[:, ab])
            cum = rates.cumsum(axis=1)
            k = step % _BLOCK_STEPS
            if k == 0:
                u = np.empty((rows.size, _BLOCK_STEPS, 2))
                for a, r in enumerate(rows):
                    gens[r].random(out=u[a])
            t_next = t - np.log(u[:, k, 0]) / cum[:, -1]
            if (t_next > limit).any():
                due = due_at[si] < t_next
                while due.any():
                    d = np.flatnonzero(due)
                    for out, val in zip(rec, (X, Y, Z)):
                        out[rows[d], si[d]] = val[d]
                    si += due
                    due = due_at[si] < t_next
                done = (si == S) | (t_next > end)
                if done.any():
                    d = np.flatnonzero(done)
                    tail = (np.arange(S) >= si[d, None])[..., None]
                    for out, val in zip(rec, (X, Y, Z)):
                        out[rows[d]] = np.where(tail, val[d, None], out[rows[d]])
                    events[rows[d]] = step
                    keep = ~done
                    rows, X, rates, cum, t_next, si, u = (
                        rows[keep], X[keep], rates[keep], cum[keep], t_next[keep], si[keep], u[keep])
                limit = np.minimum(due_at[si], end)
            t = t_next
            # u2 < 1 keeps u2 * total below the last cumulative rate, so the
            # pick is an event of positive rate
            X += moves[(cum <= (u[:, k, 1] * cum[:, -1])[:, None]).sum(axis=1)]
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
