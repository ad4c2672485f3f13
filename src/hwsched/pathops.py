"""Discrete calculus on uniformly sampled paths.

The building blocks are the running integral ``J`` (trapezoid rule) and the
rate operator ``T_a f = f + a * J f``.  Rate operators commute, stack into
multisets of rates, and invert stably through an exponential convolution.
Stacking them along the levels of a rooted tree produces, per model, one
linear identity tying the drivers, the queue paths, and the idleness paths
of the deterministic flow system; this module builds those rate multisets
and evaluates the identity's residual.

All operators act along the last axis, so per-node bundles can be passed as
2-D arrays.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .model import TreeCombinatorics, TreeModel, build_combinatorics


def integrate(values: np.ndarray, dt: float) -> np.ndarray:
    """Running integral by the trapezoid rule; starts at zero."""
    values = np.asarray(values, dtype=float)
    if values.shape[-1] < 2:
        raise ValueError("need at least two samples")
    if not (0.0 < dt < np.inf):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    steps = 0.5 * dt * (values[..., 1:] + values[..., :-1])
    out = np.zeros_like(values)
    np.cumsum(steps, axis=-1, out=out[..., 1:])
    return out


def apply_rate(alpha: float, values: np.ndarray, dt: float) -> np.ndarray:
    """Rate operator: the path plus ``alpha`` times its running integral."""
    return np.asarray(values, dtype=float) + alpha * integrate(values, dt)


def apply_rates(rates, values: np.ndarray, dt: float) -> np.ndarray:
    """Compose rate operators for every rate in the multiset.

    The result does not depend on the order of ``rates`` (the operators
    commute), only on multiplicities.
    """
    out = np.asarray(values, dtype=float)
    for a in rates:
        out = apply_rate(a, out, dt)
    return out


def invert_rate(mu: float, values: np.ndarray, dt: float) -> np.ndarray:
    """Solve ``x + mu * J x = w`` for ``x`` given ``w``.

    Uses the exponential-convolution closed form
    ``x(t) = w(t) - mu * int_0^t w(s) exp(-mu (t - s)) ds`` with trapezoid
    quadrature, evaluated by a stable linear recursion.  The solution obeys
    ``sup |x| <= 2 sup |w|`` up to discretization error.
    """
    # imported here: scipy.signal takes most of a second to import
    from scipy.signal import lfilter

    if not (0.0 < mu < np.inf):
        raise ValueError(f"rate must be positive and finite, got {mu!r}")
    if not (0.0 < dt < np.inf):
        raise ValueError(f"dt must be positive and finite, got {dt!r}")
    w = np.asarray(values, dtype=float)
    if w.shape[-1] < 2:
        raise ValueError("need at least two samples")
    decay = np.exp(-mu * dt)
    # g_k = trapezoid of w(s) e^{-mu (t_k - s)}; IIR form with the spurious
    # first tap removed afterwards.
    b = [0.5 * dt, 0.5 * dt * decay]
    a = [1.0, -decay]
    g = lfilter(b, a, w, axis=-1)
    k = np.arange(w.shape[-1])
    g = g - 0.5 * dt * w[..., :1] * decay**k
    return w - mu * g


def expansion_coefficients(rates) -> np.ndarray:
    """Coefficients of a rate-operator stack in powers of the integral.

    Composing the operators for ``rates`` equals
    ``sum_n e_n(rates) * J^n`` where ``e_n`` is the n-th elementary
    symmetric polynomial; the returned array starts with ``e_0 = 1``.
    """
    coeffs = np.array([1.0])
    for a in rates:
        coeffs = np.convolve(coeffs, [1.0, float(a)])
    return coeffs


@dataclass(frozen=True)
class OperatorSequences:
    """Per-node rate multisets defining the path identity of a model.

    ``driver_rates[i]`` acts on the class-``i`` driving path,
    ``queue_rates[i]`` on its queue path (the driver stack plus the class
    abandonment rate), and ``idle_rates[j]`` on the station-``j`` idleness
    path.  Multisets are stored as sorted tuples; ``root`` records which
    class node the construction was rooted at (other roots give different,
    equally valid identities).
    """

    driver_rates: tuple[tuple[float, ...], ...]
    queue_rates: tuple[tuple[float, ...], ...]
    idle_rates: tuple[tuple[float, ...], ...]
    root: int | None = None

    def to_dict(self) -> dict:
        return {
            "root": self.root,
            "driver_rates": [list(s) for s in self.driver_rates],
            "queue_rates": [list(s) for s in self.queue_rates],
            "idle_rates": [list(s) for s in self.idle_rates],
        }

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=2) + "\n")

    @classmethod
    def from_dict(cls, doc: dict) -> "OperatorSequences":
        return cls(
            driver_rates=tuple(tuple(s) for s in doc["driver_rates"]),
            queue_rates=tuple(tuple(s) for s in doc["queue_rates"]),
            idle_rates=tuple(tuple(s) for s in doc["idle_rates"]),
            root=doc.get("root"),
        )


def _remove_one(rates: list[float], value: float) -> list[float]:
    out = list(rates)
    out.remove(value)
    return out


def build_sequences(model: TreeModel, comb: TreeCombinatorics | None = None) -> OperatorSequences:
    """Rate multisets whose identity vanishes on every flow trajectory.

    Walks the rooted levels top-down: each round closes out the deepest
    classes reached so far by composing their parent-edge rates onto the
    accumulated stacks, swapping in the child-edge rate where a term crosses
    to the next level.  The root defaults to the lowest-index class node.
    """
    if comb is None:
        comb = build_combinatorics(model, root=0)
    I = model.classes
    mu = model.mu
    levels = comb.levels

    def edge_rate(cls_node: int, st_node: int) -> float:
        return float(mu[cls_node, st_node - I])

    driver: dict[int, list[float]] = {comb.root: []}
    idle: dict[int, list[float]] = {}
    cross: dict[int, list[float]] = {}
    if len(levels) > 1:
        for j in levels[1]:
            idle[j] = [edge_rate(comb.root, j)]
    if len(levels) > 2:
        for i in levels[2]:
            cross[i] = [edge_rate(comb.root, comb.parent[i])]

    k = 1
    while 2 * k < len(levels) and levels[2 * k]:
        deepest = levels[2 * k]
        parent_rates = [edge_rate(i, comb.parent[i]) for i in deepest]
        for i in driver:
            driver[i] = driver[i] + parent_rates
        for j in idle:
            idle[j] = idle[j] + parent_rates
        new_cross: dict[int, list[float]] = {}
        for i in deepest:
            rest = _remove_one(parent_rates, edge_rate(i, comb.parent[i]))
            driver[i] = cross[i] + rest
            for j2 in comb.children.get(i, ()):
                idle[j2] = cross[i] + [edge_rate(i, j2)] + rest
                for i2 in comb.children.get(j2, ()):
                    new_cross[i2] = cross[i] + [edge_rate(i, j2)] + rest
        cross = new_cross
        k += 1

    driver_rates = tuple(tuple(sorted(driver[i])) for i in range(I))
    queue_rates = tuple(
        tuple(sorted(driver[i] + [float(model.theta[i])])) for i in range(I)
    )
    idle_rates = tuple(
        tuple(sorted(idle[model.station_node(j)])) for j in range(model.stations)
    )
    return OperatorSequences(driver_rates, queue_rates, idle_rates, root=comb.root)


def _uniform_rates(model: TreeModel, axis: int, kind: str) -> list[float]:
    """``model.uniform_rates(axis)`` for a reduction: no abandonment, and
    every node of the axis has edges, all at one rate."""
    if model.theta.any():
        raise ValueError("reduction requires zero abandonment rates")
    rates = model.uniform_rates(axis)
    if rates is None or np.isnan(rates).any():
        raise ValueError(f"edge rates are not {kind}-uniform")
    return rates.tolist()


def station_uniform_sequences(model: TreeModel) -> OperatorSequences:
    """Reduced identity when edge rates depend only on the station.

    Requires zero abandonment and ``model.uniform_rates(0)`` with an edge at
    every station; the drivers and queues enter bare and each idleness path
    carries its single station rate.
    """
    rates = _uniform_rates(model, 0, "station")
    empty = tuple(() for _ in range(model.classes))
    return OperatorSequences(empty, empty, tuple((a,) for a in rates), root=None)


def class_uniform_sequences(model: TreeModel) -> OperatorSequences:
    """Reduced identity when edge rates depend only on the class.

    Requires zero abandonment and ``model.uniform_rates(1)`` with an edge at
    every class; class ``i`` carries the rates of all other classes and every
    idleness path carries the full class-rate multiset.
    """
    rates = _uniform_rates(model, 1, "class")
    driver = tuple(tuple(sorted(rates[:i] + rates[i + 1 :])) for i in range(model.classes))
    return OperatorSequences(driver, driver, (tuple(sorted(rates)),) * model.stations, root=None)


def _check_bundle(values, count, n, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (count, n):
        raise ValueError(f"{name} must have shape ({count}, {n}), got {arr.shape}")
    return arr


def integral_residual(
    seqs: OperatorSequences, w: np.ndarray, y: np.ndarray, z: np.ndarray, dt: float
) -> np.ndarray:
    """Pointwise residual of the path identity.

    ``w`` and ``y`` are per-class bundles of shape ``(I, n)`` and ``z`` a
    per-station bundle ``(J, n)``, all on one grid.  The result vanishes (to
    discretization error) on trajectories of the deterministic flow system.
    """
    w = np.asarray(w, dtype=float)
    n = w.shape[-1]
    I = len(seqs.driver_rates)
    J = len(seqs.idle_rates)
    w = _check_bundle(w, I, n, "w")
    y = _check_bundle(y, I, n, "y")
    z = _check_bundle(z, J, n, "z")
    out = np.zeros(n)
    for i in range(I):
        out += apply_rates(seqs.driver_rates[i], w[i], dt)
        out -= apply_rates(seqs.queue_rates[i], y[i], dt)
    for j in range(J):
        out += apply_rates(seqs.idle_rates[j], z[j], dt)
    return out


def series_residual(
    seqs: OperatorSequences, w: np.ndarray, y: np.ndarray, z: np.ndarray, dt: float
) -> np.ndarray:
    """Residual evaluated through the power-series form of the operators.

    Expands each rate stack into elementary-symmetric coefficients of
    iterated integrals; agrees with :func:`integral_residual` up to float
    error and exercises the coefficient expansion.
    """

    def series_apply(rates, f):
        coeffs = expansion_coefficients(rates)
        acc = coeffs[0] * f
        power = f
        for cn in coeffs[1:]:
            power = integrate(power, dt)
            acc = acc + cn * power
        return acc

    w = np.asarray(w, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    out = np.zeros(w.shape[-1])
    for i in range(len(seqs.driver_rates)):
        out += series_apply(seqs.driver_rates[i], w[i])
        out -= series_apply(seqs.queue_rates[i], y[i])
    for j in range(len(seqs.idle_rates)):
        out += series_apply(seqs.idle_rates[j], z[j])
    return out
