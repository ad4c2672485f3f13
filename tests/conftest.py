"""Shared model factories and randomized-input helpers."""

import numpy as np
import pytest

import hwsched as hw


def single_edge_model(mu=1.0, theta=0.0, r=1.0, gamma=1.0, ell=0.0, nu=1.0):
    return hw.TreeModel(
        classes=1, stations=1, edges=((0, 0),), mu=[[mu]], theta=[theta],
        ell=[ell], r=[r], gamma=gamma, lam=[mu * nu], nu=[nu], x_star=[nu],
        psi_star=[[nu]],
    )


def n_model(mu=(1.0, 2.0, 3.0), theta=(0.5, 0.5), r=None, gamma=1.0, ell=(0.0, 0.0)):
    """Two classes, two stations, three activities; class 1 serves both."""
    mu_mat = np.array([[mu[0], 0.0], [mu[1], mu[2]]])
    psi_star = np.array([[0.5, 0.0], [0.5, 1.0]])
    lam, nu, x_star = hw.fluid_from_flows(mu_mat, psi_star)
    if r is None:
        r = [np.sqrt(2.0)] * 2
    return hw.TreeModel(
        classes=2, stations=2, edges=((0, 0), (1, 0), (1, 1)), mu=mu_mat,
        theta=theta, ell=ell, r=r, gamma=gamma, lam=lam, nu=nu,
        x_star=x_star, psi_star=psi_star,
    )


def nmodel_cost():
    return hw.RunningCostSpec(c=[3.0, 1.0], d=[1.0, 2.0])


def tree3_model():
    """Three classes, two stations, a path tree; class 1 serves both."""
    mu = np.array([[1.0, 0.0], [2.0, 3.0], [0.0, 1.5]])
    psi_star = np.array([[0.5, 0.0], [0.5, 0.5], [0.0, 0.5]])
    lam, nu, x_star = hw.fluid_from_flows(mu, psi_star)
    model = hw.TreeModel(
        classes=3, stations=2, edges=((0, 0), (1, 0), (1, 1), (2, 1)), mu=mu,
        theta=[0.5] * 3, ell=[0.0] * 3, r=[np.sqrt(2.0)] * 3, gamma=1.0,
        lam=lam, nu=nu, x_star=x_star, psi_star=psi_star,
    )
    return model, hw.RunningCostSpec(c=[3.0, 1.0, 2.0], d=[1.0, 2.0])


def single_class_fixture():
    """The grid-versus-Monte-Carlo cross-check setup."""
    model = single_edge_model(mu=1.0, theta=0.0, r=np.sqrt(2.0), gamma=1.0)
    cost = hw.RunningCostSpec(c=[1.0], d=[0.0])
    return model, cost


def random_tree_model(rng, max_nodes=12, min_nodes=3, max_classes=None,
                      rate_range=(0.5, 3.0), theta_max=0.5):
    """Random buffer-station tree with consistent fluid constants.

    Builds a random tree rooted at a class node; parity of the depth decides
    class versus station.
    """
    while True:
        n_nodes = int(rng.integers(min_nodes, max_nodes + 1))
        parent = [0] * n_nodes
        depth = [0] * n_nodes
        for k in range(1, n_nodes):
            parent[k] = int(rng.integers(0, k))
            depth[k] = depth[parent[k]] + 1
        classes = [v for v in range(n_nodes) if depth[v] % 2 == 0]
        stations = [v for v in range(n_nodes) if depth[v] % 2 == 1]
        if not stations:
            continue
        if max_classes is not None and len(classes) > max_classes:
            continue
        break
    I, J = len(classes), len(stations)
    cls_idx = {v: i for i, v in enumerate(classes)}
    st_idx = {v: j for j, v in enumerate(stations)}
    mu = np.zeros((I, J))
    psi_star = np.zeros((I, J))
    edges = []
    for k in range(1, n_nodes):
        a = parent[k]
        if depth[k] % 2 == 1:
            i, j = cls_idx[a], st_idx[k]
        else:
            i, j = cls_idx[k], st_idx[a]
        edges.append((i, j))
        mu[i, j] = rng.uniform(*rate_range)
        psi_star[i, j] = rng.uniform(0.2, 1.0)
    lam, nu, x_star = hw.fluid_from_flows(mu, psi_star)
    return hw.TreeModel(
        classes=I, stations=J, edges=tuple(edges), mu=mu,
        theta=rng.uniform(0.0, theta_max, I), ell=rng.normal(0.0, 0.3, I),
        r=rng.uniform(0.5, 1.5, I), gamma=1.0, lam=lam, nu=nu,
        x_star=x_star, psi_star=psi_star,
    )


def balanced_totals(rng, model, scale=1.0):
    alpha = rng.normal(0.0, scale, model.classes)
    beta = rng.normal(0.0, scale, model.stations)
    beta += (alpha.sum() - beta.sum()) / model.stations
    return alpha, beta


def dense_psi(model, alpha, beta):
    """Independent oracle: least-squares solve of the node-sum equations."""
    E = list(model.edges)
    A = np.zeros((model.classes + model.stations, len(E)))
    for e, (i, j) in enumerate(E):
        A[i, e] = 1.0
        A[model.classes + j, e] = 1.0
    sol, *_ = np.linalg.lstsq(A, np.concatenate([alpha, beta]), rcond=None)
    psi = np.zeros((model.classes, model.stations))
    for e, (i, j) in enumerate(E):
        psi[i, j] = sol[e]
    return psi


def smooth_driver(rng, classes, n, dt, base=(0.05, 0.3), amp=0.3, slope=0.0):
    """Random smooth driving paths, one row per grid time."""
    t = dt * np.arange(n + 1)
    w0 = rng.uniform(*base, classes) * np.sign(rng.normal(size=classes))
    slopes = rng.normal(0.0, slope, classes) if slope else np.zeros(classes)
    amps = rng.normal(0.0, amp, (classes, 2))
    freqs = rng.uniform(0.5, 2.5, (classes, 2))
    ph = rng.uniform(0.0, 2 * np.pi, (classes, 2))
    osc = (amps[None] * np.sin(freqs[None] * t[:, None, None] + ph[None])).sum(-1)
    return w0 + slopes * t[:, None] + osc


def smooth_control_path(rng, model, n, dt):
    """Random smooth simplex-valued control path of length ``n``."""
    I, J = model.classes, model.stations
    cu = rng.normal(0, 1, (I, 2))
    fu = rng.uniform(0.5, 2.0, (I, 2))
    cv = rng.normal(0, 1, (J, 2))
    fv = rng.uniform(0.5, 2.0, (J, 2))

    def fn(t):
        eu = np.exp(cu[:, 0] * np.sin(fu[:, 0] * t) + cu[:, 1] * np.cos(fu[:, 1] * t))
        ev = np.exp(cv[:, 0] * np.sin(fv[:, 0] * t) + cv[:, 1] * np.cos(fv[:, 1] * t))
        return eu / eu.sum(), ev / ev.sum()

    return hw.ControlPath.from_function(fn, n, dt)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
