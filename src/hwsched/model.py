"""Buffer-station tree models.

A model couples customer classes (buffers) with server stations through a
bipartite activity graph that must be a tree.  This module holds the model
record with all first- and second-order rates and fluid constants, the
control simplex, the running-cost family, tree combinatorics (levels,
parents, peeling order, diameter), validation, regime classification, the
JSON file format, and the CSV writer of every output table.

Indexing convention: classes are ``0..I-1`` and stations ``0..J-1``.  In
graph contexts the node id of station ``j`` is ``I + j``, so node ids run
``0..I+J-1`` with classes first.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass, fields
from functools import cached_property
from pathlib import Path

import numpy as np

# Absolute tolerance for the fluid balance equations in validation.
BALANCE_TOL = 1e-9


class StructureError(ValueError):
    """The activity graph is not the tree an operation requires."""


def _vec(values, n, name):
    arr = np.asarray(values, dtype=float)
    if arr.shape != (n,):
        raise ValueError(f"{name} must have shape ({n},), got {arr.shape}")
    return arr


def _frozen(arr):
    arr = np.ascontiguousarray(arr)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class TreeModel:
    """A buffer-station tree with its rates and static fluid constants.

    ``mu[i, j]`` is the service rate of class ``i`` at station ``j`` and is
    positive exactly on the edge set.  ``theta`` holds abandonment rates,
    ``ell`` the per-class drift constants, ``r`` the per-class diffusion
    coefficients, ``gamma`` the discount rate.  ``lam`` (first-order arrival
    rates), ``nu`` (station capacity fractions), ``x_star`` and ``psi_star``
    are the static fluid constants; they are stored as given and checked by
    :func:`validate_model`, not derived here.

    Instances are immutable after construction and safe for unrestricted
    concurrent reads.
    """

    classes: int
    stations: int
    edges: tuple[tuple[int, int], ...]
    mu: np.ndarray
    theta: np.ndarray
    ell: np.ndarray
    r: np.ndarray
    gamma: float
    lam: np.ndarray
    nu: np.ndarray
    x_star: np.ndarray
    psi_star: np.ndarray

    def __post_init__(self):
        I, J = int(self.classes), int(self.stations)
        if I < 1 or J < 1:
            raise ValueError("need at least one class and one station")
        edges = tuple(sorted((int(i), int(j)) for i, j in self.edges))
        for i, j in edges:
            if not (0 <= i < I and 0 <= j < J):
                raise ValueError(f"edge ({i},{j}) out of range")
        mu = np.asarray(self.mu, dtype=float)
        if mu.shape != (I, J):
            raise ValueError(f"mu must have shape ({I},{J}), got {mu.shape}")
        psi = np.asarray(self.psi_star, dtype=float)
        if psi.shape != (I, J):
            raise ValueError(f"psi_star must have shape ({I},{J})")
        object.__setattr__(self, "classes", I)
        object.__setattr__(self, "stations", J)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "mu", _frozen(mu))
        object.__setattr__(self, "psi_star", _frozen(psi))
        object.__setattr__(self, "theta", _frozen(_vec(self.theta, I, "theta")))
        object.__setattr__(self, "ell", _frozen(_vec(self.ell, I, "ell")))
        object.__setattr__(self, "r", _frozen(_vec(self.r, I, "r")))
        object.__setattr__(self, "gamma", float(self.gamma))
        object.__setattr__(self, "lam", _frozen(_vec(self.lam, I, "lambda")))
        object.__setattr__(self, "nu", _frozen(_vec(self.nu, J, "nu")))
        object.__setattr__(self, "x_star", _frozen(_vec(self.x_star, I, "x_star")))

    # -- graph views -------------------------------------------------------

    @property
    def node_count(self) -> int:
        return self.classes + self.stations

    def station_node(self, j: int) -> int:
        return self.classes + j

    @cached_property
    def edge_mask(self) -> np.ndarray:
        mask = np.zeros((self.classes, self.stations), dtype=bool)
        for i, j in self.edges:
            mask[i, j] = True
        return _frozen(mask)

    @cached_property
    def dominated(self) -> np.ndarray:
        """Edges whose service rate is at least the class abandonment rate."""
        return _frozen(self.edge_mask & (self.theta[:, None] <= self.mu))

    def uniform_rates(self, axis: int) -> np.ndarray | None:
        """The one edge rate of each station (``axis=0``) or each class
        (``axis=1``) when all of its edges share it, else None.  A node
        without edges has no rate to disagree with: its entry is NaN."""
        lo = np.where(self.edge_mask, self.mu, np.inf).min(axis)
        hi = np.where(self.edge_mask, self.mu, -np.inf).max(axis)
        # lo < hi where two edges differ, lo > hi (inf > -inf) at a node without edges
        return np.where(lo > hi, np.nan, lo) if (lo >= hi).all() else None

    @cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """Neighbor node ids, per node id (classes then stations)."""
        nbrs: list[list[int]] = [[] for _ in range(self.node_count)]
        for i, j in self.edges:
            nbrs[i].append(self.station_node(j))
            nbrs[self.station_node(j)].append(i)
        return tuple(tuple(sorted(b)) for b in nbrs)

    def _search(self, src: int) -> tuple[dict[int, int], dict[int, int]]:
        """Breadth-first distances and parents from node ``src``, both keyed
        in visit order (neighbors in increasing node id)."""
        dist, parent = {src: 0}, {}
        queue = deque([src])
        while queue:
            v = queue.popleft()
            for w in self.adjacency[v]:
                if w not in dist:
                    dist[w] = dist[v] + 1
                    parent[w] = v
                    queue.append(w)
        return dist, parent

    @cached_property
    def is_connected(self) -> bool:
        return len(self._search(0)[0]) == self.node_count

    @cached_property
    def is_tree(self) -> bool:
        return self.is_connected and len(self.edges) == self.node_count - 1

    @cached_property
    def diameter(self) -> int | None:
        """Graph diameter in edges, or None when disconnected: the largest
        distance from the first node that is farthest from node 0."""
        if not self.is_connected:
            return None
        dist = self._search(0)[0]
        return max(self._search(max(dist, key=dist.get))[0].values())

    @cached_property
    def elimination_order(self) -> tuple[tuple[int, int], ...]:
        """Leaf-peeling order down to a single node.

        Each entry is ``(leaf, neighbor)`` for the unique remaining edge at
        the leaf; the smallest-index leaf is peeled first.  Only defined for
        trees.
        """
        if not self.is_tree:
            raise StructureError("activity graph is not a tree")
        degree = [len(self.adjacency[v]) for v in range(self.node_count)]
        alive = [True] * self.node_count
        nbrs = [set(self.adjacency[v]) for v in range(self.node_count)]
        order = []
        for _ in range(self.node_count - 1):
            leaf = min(v for v in range(self.node_count) if alive[v] and degree[v] <= 1)
            nb = next(iter(nbrs[leaf]))
            order.append((leaf, nb))
            alive[leaf] = False
            nbrs[nb].discard(leaf)
            degree[nb] -= 1
            degree[leaf] = 0
        return tuple(order)


def check_simplex(*weights) -> None:
    """Raise ValueError unless every row (last axis) of every array is a
    probability vector: entries at least -1e-12 and a sum within 1e-9 of
    one.  NaN fails both tests."""
    for w in weights:
        if not ((w >= -1e-12).all() and (np.abs(w.sum(axis=-1) - 1.0) <= 1e-9).all()):
            raise ValueError("control weights must be nonnegative and sum to one")


@dataclass(frozen=True)
class ControlPoint:
    """A point of the control space: weights over classes and stations.

    ``u`` splits the aggregate queue content across classes and ``v`` splits
    the aggregate idleness across stations; both are probability vectors.
    """

    u: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        v = np.asarray(self.v, dtype=float)
        if u.ndim != 1 or v.ndim != 1:
            raise ValueError("u and v must be vectors")
        check_simplex(u, v)
        object.__setattr__(self, "u", _frozen(np.clip(u, 0.0, None)))
        object.__setattr__(self, "v", _frozen(np.clip(v, 0.0, None)))

    @classmethod
    def vertex(cls, i: int, j: int, classes: int, stations: int) -> "ControlPoint":
        u = np.zeros(classes)
        v = np.zeros(stations)
        u[i] = 1.0
        v[j] = 1.0
        return cls(u, v)

    @classmethod
    def uniform(cls, classes: int, stations: int) -> "ControlPoint":
        return cls(np.full(classes, 1.0 / classes), np.full(stations, 1.0 / stations))


@dataclass(frozen=True)
class RunningCostSpec:
    """Separable running cost on state and control.

    With ``s`` the total imbalance (sum of state coordinates), the cost is

        sum_i c[i] * (s^+ u[i])**p + sum_j d[j] * (s^- v[j])**q
        + kappa * ||x||_1**m + constant

    Weights are nonnegative and exponents at least one, which makes the cost
    nonnegative, continuous, and polynomially bounded: it never exceeds
    ``growth_scale * (1 + ||x||_1**growth_exponent)``.
    """

    c: np.ndarray
    d: np.ndarray
    p: float = 1.0
    q: float = 1.0
    kappa: float = 0.0
    m: float = 1.0
    constant: float = 0.0

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float)
        d = np.asarray(self.d, dtype=float)
        object.__setattr__(self, "c", _frozen(c))
        object.__setattr__(self, "d", _frozen(d))
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "q", float(self.q))
        object.__setattr__(self, "kappa", float(self.kappa))
        object.__setattr__(self, "m", float(self.m))
        object.__setattr__(self, "constant", float(self.constant))

    def check(self) -> list[str]:
        """Violations of the running-cost family requirements (empty = ok)."""
        bad = []
        if not all(np.isfinite(getattr(self, f.name)).all() for f in fields(self)):
            bad.append("weights, exponents and offset must be finite")
        if (self.c < 0).any():
            bad.append("queue weights must be nonnegative")
        if (self.d < 0).any():
            bad.append("idle weights must be nonnegative")
        if self.kappa < 0:
            bad.append("norm weight must be nonnegative")
        if self.constant < 0:
            bad.append("constant offset must be nonnegative")
        for name, e in (("queue", self.p), ("idle", self.q), ("norm", self.m)):
            if e < 1.0:
                bad.append(f"{name} exponent must be at least 1")
        return bad

    @property
    def growth_exponent(self) -> float:
        return max(self.p, self.q, self.m)

    @property
    def growth_scale(self) -> float:
        return float(self.c.sum() + self.d.sum() + self.kappa + self.constant)

    @property
    def is_bounded(self) -> bool:
        return not self.c.any() and not self.d.any() and self.kappa == 0.0

    @property
    def affine_in_control(self) -> bool:
        return (self.p == 1.0 or not self.c.any()) and (self.q == 1.0 or not self.d.any())

    def evaluate(self, x, u, v):
        """Cost at states ``x`` under controls ``(u, v)``; broadcasts over
        leading axes (states along the last axis)."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        s = x.sum(axis=-1)
        pos = np.maximum(s, 0.0)
        out = np.full(np.shape(pos), self.constant)
        if self.c.any():
            if self.p == 1.0:
                out += pos * (u @ self.c)
            else:
                out += (self.c * (pos[..., None] * u) ** self.p).sum(axis=-1)
        if self.d.any():
            neg = pos - s
            if self.q == 1.0:
                out += neg * (v @ self.d)
            else:
                out += (self.d * (neg[..., None] * v) ** self.q).sum(axis=-1)
        if self.kappa:
            norm = np.abs(x).sum(axis=-1)
            out += self.kappa * (norm if self.m == 1.0 else norm**self.m)
        return out


@dataclass(frozen=True)
class TreeCombinatorics:
    """Rooted level structure of the tree.

    ``levels[k]`` holds the node ids at distance ``k`` from the root (class
    nodes at even distance, station nodes at odd).  ``parent`` maps every
    non-root node to its neighbor one level up, ``children`` the reverse.
    ``peel_order`` lists ``(leaf, neighbor)`` pairs removing one leaf per
    step down to a single edge.
    """

    root: int
    levels: tuple[tuple[int, ...], ...]
    parent: dict[int, int]
    children: dict[int, tuple[int, ...]]
    peel_order: tuple[tuple[int, int], ...]
    diameter: int

    @property
    def depth(self) -> int:
        return len(self.levels) - 1


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[str, ...]
    diameter: int | None

    @property
    def ok(self) -> bool:
        return not self.violations


def validate_model(model: TreeModel) -> ValidationReport:
    """Check the structural and fluid invariants of a model.

    Returns the list of violated invariants (empty means valid) together
    with the tree diameter when the graph is connected.  Balance equations
    are checked to absolute tolerance ``BALANCE_TOL``.
    """
    bad = []
    I, J = model.classes, model.stations
    # every field after classes, stations and edges holds rates or fluid constants
    nonfinite = [f.name for f in fields(model)[3:] if not np.isfinite(getattr(model, f.name)).all()]
    if nonfinite:
        bad.append("non-finite numbers in " + ", ".join(nonfinite))
    n_edges = len(model.edges)
    if len(set(model.edges)) != n_edges:
        bad.append("duplicate edges")
    if n_edges != I + J - 1:
        bad.append(f"edge count {n_edges} != classes + stations - 1 = {I + J - 1}")
    if not model.is_connected:
        bad.append("activity graph is not connected")

    mask = model.edge_mask
    if (model.mu[mask] <= 0).any():
        bad.append("service rate must be positive on every edge")
    if model.mu[~mask].any():
        bad.append("service rate must be zero off the edge set")
    if (model.theta < 0).any():
        bad.append("abandonment rates must be nonnegative")
    if (model.r <= 0).any():
        bad.append("diffusion coefficients must be positive")
    if model.gamma <= 0:
        bad.append("discount rate must be positive")
    if (model.lam <= 0).any():
        bad.append("arrival rates must be positive")
    if (model.nu <= 0).any():
        bad.append("capacity fractions must be positive")

    psi = model.psi_star
    if (psi < 0).any():
        bad.append("fluid flows must be nonnegative")
    if psi[~mask].any():
        bad.append("fluid flows must vanish off the edge set")
    col = psi.sum(axis=0)
    if np.abs(col - model.nu).max() > BALANCE_TOL:
        bad.append("station fluid balance violated: column sums of psi_star must equal nu")
    served = (model.mu * psi).sum(axis=1)
    if np.abs(served - model.lam).max() > BALANCE_TOL:
        bad.append("class fluid balance violated: mu-weighted row sums of psi_star must equal lambda")
    row = psi.sum(axis=1)
    if np.abs(row - model.x_star).max() > BALANCE_TOL:
        bad.append("x_star must equal the row sums of psi_star")

    return ValidationReport(tuple(bad), model.diameter)


def build_combinatorics(model: TreeModel, root: int = 0) -> TreeCombinatorics:
    """Root the tree at a class node and lay out its level structure."""
    if not (0 <= root < model.classes):
        raise ValueError(f"root must be a class node, got {root}")
    if not model.is_tree:
        raise StructureError("activity graph is not a tree")
    depth, parent = model._search(root)
    max_depth = max(depth.values())
    levels = tuple(
        tuple(sorted(v for v, k in depth.items() if k == d)) for d in range(max_depth + 1)
    )
    children: dict[int, tuple[int, ...]] = {
        v: tuple(sorted(w for w in model.adjacency[v] if parent.get(w) == v)) for v in depth
    }
    peel = model.elimination_order[:-1]
    return TreeCombinatorics(
        root=root,
        levels=levels,
        parent=parent,
        children=children,
        peel_order=peel,
        diameter=model.diameter,
    )


def classify_case(model: TreeModel, cost: RunningCostSpec) -> frozenset[str]:
    """Regimes under which the control problem is known to be well posed.

    Returns a subset of ``{"i", "ii", "iii", "iv"}``:

    * ``i``   - edge rates depend only on the class or only on the station
      (``TreeModel.uniform_rates`` on one axis; a node without edges agrees
      with any rate), and there is no abandonment;
    * ``ii``  - tree diameter at most 3 and every edge dominates its class
      abandonment rate (is in ``TreeModel.dominated``, ties included);
    * ``iii`` - the cost carries a norm term whose exponent dominates the
      queue and idle exponents (so the cost grows like its polynomial bound
      from below) and some edge is in ``TreeModel.dominated``;
    * ``iv``  - the cost is bounded.
    """
    cases = set()
    if not model.theta.any() and any(model.uniform_rates(a) is not None for a in (0, 1)):
        cases.add("i")

    if model.diameter is not None and model.diameter <= 3 and model.dominated[model.edge_mask].all():
        cases.add("ii")

    if cost.kappa > 0 and cost.m >= max(cost.p, cost.q) and model.dominated.any():
        cases.add("iii")

    if cost.is_bounded:
        cases.add("iv")

    return frozenset(cases)


# -- fixtures and file format ---------------------------------------------


def fluid_from_flows(mu: np.ndarray, psi_star: np.ndarray):
    """Derive consistent fluid constants ``(lam, nu, x_star)`` from flows.

    Convenience for building valid models; the balance equations checked by
    :func:`validate_model` hold by construction.
    """
    mu = np.asarray(mu, dtype=float)
    psi = np.asarray(psi_star, dtype=float)
    return (mu * psi).sum(axis=1), psi.sum(axis=0), psi.sum(axis=1)


def _edge_map_to_matrix(I, J, entries, name):
    out = np.zeros((I, J))
    for key, val in entries.items():
        i_s, j_s = key.split(",")
        i, j = int(i_s), int(j_s)
        if not (0 <= i < I and 0 <= j < J):
            raise ValueError(f"{name} key {key!r} out of range")
        out[i, j] = float(val)
    return out


def model_to_dict(model: TreeModel, cost: RunningCostSpec | None = None) -> dict:
    doc = {
        "classes": model.classes,
        "stations": model.stations,
        "edges": [
            {"class": i, "station": j, "mu": float(model.mu[i, j])} for i, j in model.edges
        ],
        "theta": model.theta.tolist(),
        "ell": model.ell.tolist(),
        "r": model.r.tolist(),
        "gamma": model.gamma,
        "lambda": model.lam.tolist(),
        "nu": model.nu.tolist(),
        "x_star": model.x_star.tolist(),
        "psi_star": {f"{i},{j}": float(model.psi_star[i, j]) for i, j in model.edges},
    }
    if cost is not None:
        doc["cost"] = {
            "c": cost.c.tolist(),
            "d": cost.d.tolist(),
            "p": cost.p,
            "q": cost.q,
            "kappa": cost.kappa,
            "m": cost.m,
            "constant": cost.constant,
        }
    return doc


def model_from_dict(doc: dict) -> tuple[TreeModel, RunningCostSpec | None]:
    if not isinstance(doc, dict):
        raise ValueError(f"a model document must be a JSON object, got {type(doc).__name__}")
    I = int(doc["classes"])
    J = int(doc["stations"])
    edges = []
    mu = np.zeros((I, J))
    for e in doc["edges"]:
        i, j = int(e["class"]), int(e["station"])
        if not (0 <= i < I and 0 <= j < J):
            raise ValueError(f"edge ({i},{j}) out of range for {I} classes and {J} stations")
        edges.append((i, j))
        mu[i, j] = float(e["mu"])
    model = TreeModel(
        classes=I,
        stations=J,
        edges=tuple(edges),
        mu=mu,
        theta=doc["theta"],
        ell=doc["ell"],
        r=doc["r"],
        gamma=doc["gamma"],
        lam=doc["lambda"],
        nu=doc["nu"],
        x_star=doc["x_star"],
        psi_star=_edge_map_to_matrix(I, J, doc.get("psi_star", {}), "psi_star"),
    )
    cost = None
    if "cost" in doc:
        cd = doc["cost"]
        cost = RunningCostSpec(
            c=cd.get("c", np.zeros(I)),
            d=cd.get("d", np.zeros(J)),
            p=cd.get("p", 1.0),
            q=cd.get("q", 1.0),
            kappa=cd.get("kappa", 0.0),
            m=cd.get("m", 1.0),
            constant=cd.get("constant", 0.0),
        )
    return model, cost


def save_model(path, model: TreeModel, cost: RunningCostSpec | None = None) -> None:
    Path(path).write_text(json.dumps(model_to_dict(model, cost), indent=2, sort_keys=True) + "\n")


def load_model(path) -> tuple[TreeModel, RunningCostSpec | None]:
    return model_from_dict(json.loads(Path(path).read_text()))


def model_hash(model: TreeModel) -> str:
    """Stable content hash, used to tie exported fields to their model."""
    payload = json.dumps(model_to_dict(model), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


# rows per block of write_csv, each block formatted by one %.  Blocks of 128
# or 1024 rows ran no faster, and the float objects of a block fragmented the
# heap: ten in-process runs of the benchmark's CLI workload peaked 0.8 MB higher
_CSV_BLOCK = 32


def write_csv(dest, data, header: str = "") -> None:
    """Write the rows of ``data`` (a 1-D array is one column) as CSV, every
    value ``%.17g``, after a ``header`` line when one is given.

    ``dest`` is a path or an open text file.  The bytes are those of
    ``np.savetxt(dest, data, delimiter=",", fmt="%.17g", header=header,
    comments="")``; blocks of at most ``_CSV_BLOCK`` rows are each formatted
    by one ``%`` on a repeated row format.
    """
    data = np.asarray(data)
    if data.ndim == 1:
        data = data[:, None]
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(dest, "w") if isinstance(dest, (str, os.PathLike)) else nullcontext(dest) as fh:
        if header:
            fh.write(header + "\n")
        for start in range(0, len(data), _CSV_BLOCK):
            block = data[start:start + _CSV_BLOCK]
            fh.write(row * len(block) % tuple(block.ravel().tolist()))
