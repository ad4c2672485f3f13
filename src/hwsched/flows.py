"""Edge flows on buffer-station trees and the controlled drift field.

On a tree, prescribing every class total and every station total determines
the edge flows uniquely (provided the totals balance).  The solve walks the
leaf-peeling order, so it is exact up to float arithmetic.  The same linear
map, tabulated once per model, powers the vectorized drift evaluations used
by the simulators and the grid solver; ``_columns`` turns a table of control
rows into the drift and cost coefficient columns both of them read.
"""

from __future__ import annotations

import weakref

import numpy as np

from .model import BALANCE_TOL, ControlPoint, StructureError, TreeModel


class BalanceError(ValueError):
    """Class totals and station totals do not balance."""


def solve_psi(model: TreeModel, alpha, beta, tol: float = BALANCE_TOL) -> np.ndarray:
    """Unique edge flows with row sums ``alpha`` and column sums ``beta``.

    ``alpha`` has one entry per class, ``beta`` one per station, and the two
    must have (nearly) equal totals; the flow matrix is zero off the edge
    set.  Computed by backward leaf peeling.
    """
    if not model.is_tree:
        raise StructureError("activity graph is not a tree")
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    if alpha.shape != (model.classes,) or beta.shape != (model.stations,):
        raise ValueError("alpha and beta must match the class and station counts")
    scale = max(1.0, np.abs(alpha).sum(), np.abs(beta).sum())
    if abs(alpha.sum() - beta.sum()) > tol * scale:
        raise BalanceError(
            f"totals differ: sum(alpha)={alpha.sum():.12g} sum(beta)={beta.sum():.12g}"
        )
    I = model.classes
    residual = np.concatenate([alpha, beta])
    psi = np.zeros((model.classes, model.stations))
    for leaf, nb in model.elimination_order:
        value = residual[leaf]
        if leaf < I:
            psi[leaf, nb - I] = value
        else:
            psi[nb, leaf - I] = value
        residual[nb] -= value
        residual[leaf] = 0.0
    return psi


_lift_cache: "weakref.WeakKeyDictionary[TreeModel, np.ndarray]" = weakref.WeakKeyDictionary()


def lift_matrix(model: TreeModel) -> np.ndarray:
    """The lifting map as a dense tensor ``G[i, j, k]``.

    ``psi = G @ concat(alpha, beta)`` reproduces :func:`solve_psi` for every
    balanced input; the tensor is built by peeling symbolically and cached
    per model.
    """
    cached = _lift_cache.get(model)
    if cached is not None:
        return cached
    if not model.is_tree:
        raise StructureError("activity graph is not a tree")
    I, n = model.classes, model.node_count
    rows = np.eye(n)
    G = np.zeros((model.classes, model.stations, n))
    for leaf, nb in model.elimination_order:
        if leaf < I:
            G[leaf, nb - I] = rows[leaf]
        else:
            G[nb, leaf - I] = rows[leaf]
        rows[nb] -= rows[leaf]
        rows[leaf] = 0.0
    G.flags.writeable = False
    _lift_cache[model] = G
    return G


def _split_control(model: TreeModel, control) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(control, ControlPoint):
        u, v = control.u, control.v
    else:
        u, v = control
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
    if u.shape != (model.classes,) or v.shape != (model.stations,):
        raise ValueError("control dimensions do not match the model")
    return u, v


def lift_control(model: TreeModel, x, control):
    """Queue vector, idleness vector, and edge flows at state ``x``.

    The total imbalance ``s = sum(x)`` is split as ``y = s^+ u`` across
    classes and ``z = s^- v`` across stations; the flows then solve the tree
    system with class totals ``x - y`` and station totals ``-z``.
    """
    u, v = _split_control(model, control)
    x = np.asarray(x, dtype=float)
    s = x.sum()
    y = max(s, 0.0) * u
    z = max(-s, 0.0) * v
    psi = solve_psi(model, x - y, -z)
    return y, z, psi


def drift(model: TreeModel, x, control) -> np.ndarray:
    """Drift of the controlled state at ``x``.

    Per class: minus the rate-weighted edge flows, minus abandonment of the
    queued mass, plus the drift constant.
    """
    u, v = _split_control(model, control)
    x = np.asarray(x, dtype=float)
    y, _, psi = lift_control(model, x, (u, v))
    return -(model.mu * psi).sum(axis=1) - model.theta * y + model.ell


# -- vectorized kernels ----------------------------------------------------


def lift_batch(model: TreeModel, X: np.ndarray, U: np.ndarray, V: np.ndarray):
    """Vectorized :func:`lift_control` over a batch of states and controls.

    ``X, U`` have shape ``(B, I)`` and ``V`` shape ``(B, J)``; returns
    ``(Y, Z, Psi)`` with ``Psi`` of shape ``(B, I, J)``.
    """
    G = lift_matrix(model)
    s = X.sum(axis=1)
    pos = np.maximum(s, 0.0)[:, None]
    neg = np.maximum(-s, 0.0)[:, None]
    Y = pos * U
    Z = neg * V
    totals = np.concatenate([X - Y, -Z], axis=1)
    Psi = np.einsum("ijk,bk->bij", G, totals)
    return Y, Z, Psi


_drift_maps_cache: "weakref.WeakKeyDictionary[TreeModel, tuple]" = weakref.WeakKeyDictionary()


def _drift_maps(model: TreeModel):
    """Rate-weighted lift contractions: the drift is ``-X @ Rx.T + s^+ (U @
    Rx.T - theta U) + s^- (V @ Rb.T) + ell`` with ``s`` the imbalance."""
    cached = _drift_maps_cache.get(model)
    if cached is None:
        R = (model.mu[:, :, None] * lift_matrix(model)).sum(axis=1)
        RxT = R[:, : model.classes].T.copy()
        cached = (RxT, -RxT, R[:, model.classes :].T.copy())
        _drift_maps_cache[model] = cached
    return cached


def drift_batch(model: TreeModel, X: np.ndarray, U: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Vectorized :func:`drift` over a batch; shapes as in :func:`lift_batch`."""
    RxT, mRxT, RbT = _drift_maps(model)
    s = X.sum(axis=1)
    pos = np.maximum(s, 0.0)
    neg = (pos - s)[:, None]
    pos = pos[:, None]
    queue_term = U @ RxT
    if model.theta.any():
        queue_term = queue_term - model.theta * U
    out = X @ mRxT
    out += pos * queue_term
    out += neg * (V @ RbT)
    if model.ell.any():
        out += model.ell
    return out


def _columns(model: TreeModel, cost, U: np.ndarray, V: np.ndarray):
    """Drift and cost coefficients of the control rows ``U`` ``(n, I)`` and ``V`` ``(n, J)``.

    The drift is ``-X Rx^T + s^+ (U Rx^T - theta U) + s^- (V Rb^T) + ell`` and
    the cost ``s^+^p sum c u^p + s^-^q sum d v^q + kappa |x|^m + constant``,
    so each row enters through two coefficient columns.  Returns ``(Q, Z)``,
    each ``(I + 1, n)``: ``Q[:I]`` is the queue-side drift and ``Q[I]`` the
    queue cost weight, ``Z[:I]`` and ``Z[I]`` the idle-side ones (zero
    weights when ``cost`` is None).  The float operations are those of
    :func:`drift_batch` and ``RunningCostSpec.evaluate`` on the same rows.
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
