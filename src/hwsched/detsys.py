"""Forward integration of the deterministic flow system.

Given per-class driving paths (which carry the initial condition at time
zero) and a control path, steps the state of the coupled
state/queue/idleness/flow system explicitly, through the accumulated flow
and abandonment integrals with left-endpoint accumulation (controls act
without look-ahead).  The integrand is linear in the state on each side of
zero imbalance, so the loop carries the state alone; the queue split,
idleness split and edge flows at every grid point come from the control
lift afterwards, in one pass.

Also houses the nonidling measurement, the closed-form counterexample on
the complete bipartite two-by-two system, and growth-exponent fitting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import lift_batch, lift_matrix
from .model import ControlPoint, TreeModel, check_simplex, write_csv
from .sde import _stored_steps


@dataclass(frozen=True)
class ControlPath:
    """Sampled control path: one simplex pair per grid point."""

    dt: float
    u: np.ndarray  # (n, I)
    v: np.ndarray  # (n, J)

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 2 or v.ndim != 2 or len(u) != len(v) or not len(u):
            raise ValueError("u and v must be 2-D with matching lengths of at least one")
        check_simplex(u, v)
        object.__setattr__(self, "u", u)
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "dt", float(self.dt))

    def __len__(self):
        return len(self.u)

    @classmethod
    def constant(cls, point: ControlPoint, n: int, dt: float) -> "ControlPath":
        return cls(dt, np.tile(point.u, (n, 1)), np.tile(point.v, (n, 1)))

    @classmethod
    def from_function(cls, fn, n: int, dt: float) -> "ControlPath":
        """Sample ``fn(t) -> (u, v)`` on the grid ``0, dt, ..., (n-1) dt``."""
        us, vs = [], []
        for k in range(n):
            u, v = fn(k * dt)
            us.append(np.asarray(u, dtype=float))
            vs.append(np.asarray(v, dtype=float))
        return cls(dt, np.stack(us), np.stack(vs))


@dataclass(frozen=True)
class DetTrajectory:
    """Grid-sampled solution of the deterministic flow system."""

    dt: float
    w: np.ndarray    # (n+1, I) driving paths
    x: np.ndarray    # (n+1, I) state
    y: np.ndarray    # (n+1, I) queue split
    z: np.ndarray    # (n+1, J) idleness split
    psi: np.ndarray  # (n+1, I, J) edge flows

    @property
    def times(self) -> np.ndarray:
        return self.dt * np.arange(len(self.x))

    def max_idleness(self) -> float:
        return float(np.abs(self.z).sum(axis=1).max())

    def to_csv(self, path) -> None:
        I = self.x.shape[1]
        J = self.z.shape[1]
        cols = ["t"]
        cols += [f"w{i}" for i in range(I)]
        cols += [f"x{i}" for i in range(I)]
        cols += [f"y{i}" for i in range(I)]
        cols += [f"z{j}" for j in range(J)]
        cols += [f"psi{i}_{j}" for i in range(I) for j in range(J)]
        data = np.column_stack(
            [self.times, self.w, self.x, self.y, self.z, self.psi.reshape(len(self.x), -1)]
        )
        write_csv(path, data, ",".join(cols))


def integrate_det(model: TreeModel, w: np.ndarray, controls: ControlPath) -> DetTrajectory:
    """Step the flow system forward under the given driver and controls.

    ``w`` has shape ``(n+1, I)`` and supplies the initial state ``x(0) =
    w(0)``; ``controls`` must provide ``n+1`` samples (left endpoints drive
    the steps, the last sample closes out the terminal split).  The output
    satisfies the split and flow-balance constraints exactly at every grid
    point and the integrated dynamics to first order in ``dt``.
    """
    w = np.asarray(w, dtype=float)
    if w.ndim != 2 or w.shape[1] != model.classes:
        raise ValueError("w must have shape (n+1, classes)")
    n = len(w) - 1
    if len(controls) != n + 1:
        raise ValueError(f"need {n + 1} control samples, got {len(controls)}")
    dt = controls.dt
    G = lift_matrix(model)
    I = model.classes
    u, v = controls.u, controls.v

    # The integrand of the dynamics is (mu * psi).sum(axis=1) + theta * y with
    # psi = G @ [x - y; -z], that is M @ [x - y; -z] + theta * y for M[i] =
    # sum_j mu[i, j] G[i, j].  With y = s+ u and z = s- v for s = x.sum(),
    # it is K+ @ x where s > 0 and K- @ x elsewhere, one pair per step;
    # k_pos and k_neg hold dt K+ and dt K- for every left endpoint.
    M = np.einsum("ij,ijm->im", model.mu, G)
    Mx, Mz = M[:, :I], M[:, I:]
    k_pos = dt * (Mx + (model.theta * u[:-1] - u[:-1] @ Mx.T)[:, :, None])
    k_neg = dt * (Mx + (v[:-1] @ Mz.T)[:, :, None])

    x = np.empty_like(w)
    x[0] = w[0]
    integral = np.zeros(I)
    for xk, x_next, w_next, kp, kn in zip(x[:-1], x[1:], w[1:], k_pos, k_neg):
        # a list sum: numpy's reduction costs more than the rest of the step
        integral += (kp if sum(xk.tolist()) > 0 else kn) @ xk
        np.subtract(w_next, integral, out=x_next)

    y, z, psi = lift_batch(model, x, u, v)
    return DetTrajectory(dt=dt, w=w, x=x, y=y, z=z, psi=psi)


def identity_residual(seqs, traj: DetTrajectory) -> np.ndarray:
    """Residual of an operator-sequence identity along a trajectory."""
    from .pathops import integral_residual

    return integral_residual(seqs, traj.w.T, traj.y.T, traj.z.T, traj.dt)


def nonidling_hypothesis(model: TreeModel) -> list[str]:
    """Reasons the no-idleness guarantee does not apply (empty = applies).

    The guarantee needs tree diameter at most 3 and a hub station adjacent
    to every class whose service rates dominate the abandonment rates: a
    column of ``TreeModel.dominated`` that is all true.
    """
    reasons = []
    if model.diameter is None or model.diameter > 3:
        reasons.append("tree diameter exceeds 3")
    if not model.dominated.all(axis=0).any():
        reasons.append(
            "no station is adjacent to every class with service rates dominating abandonment"
        )
    return reasons


def check_nonidling(model: TreeModel, w: np.ndarray, controls: ControlPath) -> float:
    """Largest idleness accumulated along the trajectory.

    Requires every driver component to start positive and increase strictly;
    under the hypothesis reported by :func:`nonidling_hypothesis` the
    returned value is zero up to numerical tolerance for any control path.
    """
    w = np.asarray(w, dtype=float)
    if (w[0] <= 0).any():
        raise ValueError("drivers must start positive")
    if (np.diff(w, axis=0) <= 0).any():
        raise ValueError("drivers must be strictly increasing")
    return integrate_det(model, w, controls).max_idleness()


# -- closed-form counterexample on a non-tree ------------------------------


@dataclass(frozen=True)
class CounterexampleReport:
    """Closed-form flow on the complete bipartite 2x2 system.

    The system has two classes, two stations, all four activities (one
    cycle, hence not a tree), unit rates into the first station and double
    rates into the second.  With zero drivers and zero queue/idleness, the
    circulating flow of size ``k`` drives the state to norm about ``k``:
    states are not controlled by the drivers once the tree assumption
    fails.
    """

    k: float
    dt: float
    times: np.ndarray
    x: np.ndarray    # (n+1, 2)
    psi: np.ndarray  # (n+1, 2, 2)
    dynamics_residual: float
    row_residual: float
    column_residual: float
    sup_state_norm: float
    driver_sup: float

    @property
    def max_residual(self) -> float:
        return max(self.dynamics_residual, self.row_residual, self.column_residual)


def counterexample_flow(k: float, horizon: float = 5.0, dt: float = 1e-3) -> CounterexampleReport:
    """Evaluate the bipartite-cycle flow and verify it on the grid.

    All residuals are computed with exact antiderivatives, so they reflect
    the algebraic identities rather than quadrature error.  The grid has at
    most ``sde.MAX_STEPS`` steps.
    """
    if not (0.0 <= k < np.inf):
        raise ValueError(f"k must be nonnegative and finite, got {k!r}")
    n = _stored_steps(horizon, dt)
    t = dt * np.arange(n + 1)
    decay = np.exp(-2.0 * t)

    mu = np.array([[1.0, 2.0], [1.0, 2.0]])
    x = np.column_stack([k * (1 - decay) / 2, -k * (1 - decay) / 2])
    psi = np.empty((n + 1, 2, 2))
    psi[:, 0, 0] = k
    psi[:, 1, 0] = -k
    psi[:, 0, 1] = -k * (1 + decay) / 2
    psi[:, 1, 1] = k * (1 + decay) / 2

    int_psi = np.empty_like(psi)
    int_psi[:, 0, 0] = k * t
    int_psi[:, 1, 0] = -k * t
    int_psi[:, 0, 1] = -k * (t + (1 - decay) / 2) / 2
    int_psi[:, 1, 1] = k * (t + (1 - decay) / 2) / 2

    # drivers, queues and idleness are identically zero
    dyn = x + (mu * int_psi).sum(axis=2)
    row = psi.sum(axis=2) - x
    col = psi.sum(axis=1)
    return CounterexampleReport(
        k=float(k),
        dt=dt,
        times=t,
        x=x,
        psi=psi,
        dynamics_residual=float(np.abs(dyn).max()),
        row_residual=float(np.abs(row).max()),
        column_residual=float(np.abs(col).max()),
        sup_state_norm=float(np.abs(x).sum(axis=1).max()),
        driver_sup=0.0,
    )


# -- growth fitting ---------------------------------------------------------


@dataclass(frozen=True)
class GrowthFit:
    """Least-squares growth fits of a positive quantity over time.

    ``poly_exponent`` is the slope of ``log q`` against ``log(1 + t)`` and
    ``exp_rate`` the slope against ``t``; the residual sums compare how well
    polynomial versus exponential growth explains the data.
    """

    poly_exponent: float
    poly_ssr: float
    exp_rate: float
    exp_ssr: float
    n_samples: int

    @property
    def polynomial_preferred(self) -> bool:
        return self.poly_ssr < self.exp_ssr


def growth_report(times, values) -> GrowthFit:
    """Fit polynomial and exponential growth laws to sampled sup-norms."""
    t = np.asarray(times, dtype=float)
    q = np.asarray(values, dtype=float)
    if t.ndim != 1 or t.shape != q.shape:
        raise ValueError("times and values must be 1-D and matching")
    if len(t) < 4:
        raise ValueError("need at least 4 samples")
    if (np.diff(t) <= 0).any() or (t <= 0).any():
        raise ValueError("times must be positive and strictly increasing")
    if (q <= 0).any():
        raise ValueError("values must be positive")
    logq = np.log(q)

    def fit(abscissa):
        A = np.column_stack([np.ones_like(abscissa), abscissa])
        coef, *_ = np.linalg.lstsq(A, logq, rcond=None)
        resid = logq - A @ coef
        return float(coef[1]), float((resid**2).sum())

    poly_slope, poly_ssr = fit(np.log1p(t))
    exp_slope, exp_ssr = fit(t)
    return GrowthFit(poly_slope, poly_ssr, exp_slope, exp_ssr, len(t))
