from collections import deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import hwsched as hw
from hwsched import ctmc, flows
from hwsched.ctmc import _largest_remainder
from conftest import n_model, single_edge_model, tree3_model


# -- per-state references: the scalar rules the batched ones replaced ---------


def _ref_augment(model, X, Psi, caps):
    """Shuffle assignments along tree paths until no queued customer can
    reach idle capacity."""
    while True:
        Y = X - Psi.sum(axis=1)
        Z = caps - Psi.sum(axis=0)
        if Y.sum() == 0 or Z.sum() == 0:
            return
        parent = {}
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
        path = [("s", found)]
        while True:
            kind, a = path[-1]
            p = parent[path[-1]]
            path.append(("c", p) if kind == "s" else ("s", p))
            if kind == "s" and Y[p] > 0 and ("c", p) not in parent:
                break
        path.reverse()
        delta = min(Y[path[0][1]], Z[found])
        for k in range(1, len(path) - 1, 2):
            delta = min(delta, Psi[path[k + 1][1], path[k][1]])
        for k in range(0, len(path) - 1, 2):
            i, j = path[k][1], path[k + 1][1]
            Psi[i, j] += delta
            if k + 2 < len(path):
                Psi[path[k + 2][1], j] -= delta


def _ref_greedy(model, caps, queue_class, idle_station, X):
    """Greedy fill with ``queue_class`` served last and ``idle_station``
    filled last, then the rebalancing pass."""
    if model.classes == 1 and model.stations == 1:
        return np.array([[min(int(X[0]), int(caps[0]))]])
    class_order = [i for i in range(model.classes) if i != queue_class] + [queue_class]
    station_order = [j for j in range(model.stations) if j != idle_station] + [idle_station]
    Psi = np.zeros((model.classes, model.stations), dtype=int)
    free = caps.copy()
    for i in class_order:
        remaining = int(X[i])
        for j in station_order:
            if not model.edge_mask[i, j] or remaining == 0:
                continue
            take = min(remaining, int(free[j]))
            Psi[i, j] = take
            free[j] -= take
            remaining -= take
    _ref_augment(model, X, Psi, caps)
    return Psi


def _ref_largest_remainder(weights, total):
    raw = weights * total
    base = np.floor(raw).astype(int)
    short = total - base.sum()
    if short > 0:
        order = np.argsort(-(raw - base))
        base[order[:short]] += 1
    return base


def _ref_cap_targets(targets, caps):
    out = np.minimum(targets, caps)
    overflow = int(targets.sum() - out.sum())
    for k in range(len(out)):
        if overflow == 0:
            break
        take = min(int(caps[k] - out[k]), overflow)
        out[k] += take
        overflow -= take
    return out


def _ref_tracking(model, caps, point, X):
    """Largest-remainder split of the aggregate, capped, lifted by
    ``solve_psi``; the greedy (0, 0) assignment when the lift goes negative."""
    total_x, total_n = int(X.sum()), int(caps.sum())
    if total_x >= total_n:
        y = _ref_cap_targets(_ref_largest_remainder(point.u, total_x - total_n), X)
        z = np.zeros(model.stations, dtype=int)
    else:
        y = np.zeros(model.classes, dtype=int)
        z = _ref_cap_targets(_ref_largest_remainder(point.v, total_n - total_x), caps)
    psi = flows.solve_psi(model, (X - y).astype(float), (caps - z).astype(float))
    if (psi >= 0).all():
        return np.rint(psi).astype(int)
    return _ref_greedy(model, caps, 0, 0, X)


def test_scaling_rates():
    model = n_model()
    scaling = hw.ScalingSpec(100, [0.5, -0.5], np.zeros((2, 2)))
    np.testing.assert_allclose(scaling.arrival_rates(model), 100 * model.lam + 10 * np.array([0.5, -0.5]))
    np.testing.assert_allclose(scaling.service_rates(model), model.mu)
    np.testing.assert_array_equal(scaling.server_counts(model), [100, 100])


def test_initial_headcounts_round_and_report():
    model = single_edge_model()
    scaling = hw.ScalingSpec.centered(model, 100)
    X, realized = hw.initial_headcounts(model, scaling, [0.26])
    assert X[0] == 103
    assert realized[0] == pytest.approx(0.3)


def test_largest_remainder_preserves_total():
    rng = np.random.default_rng(0)
    for _ in range(50):
        w = rng.dirichlet(np.ones(4))
        total = int(rng.integers(0, 50))
        out = _largest_remainder(w, total)
        assert out.sum() == total
        assert (out >= 0).all()
        assert np.abs(out - w * total).max() <= 1.0


def test_single_server_completion_steps_down():
    # one server, no arrivals at size one: the only event is the completion
    model = single_edge_model(mu=1.0, theta=0.0)
    scaling = hw.ScalingSpec(1, [-1.0], np.zeros((1, 1)))  # arrival rate exactly zero
    assert scaling.arrival_rates(model)[0] == pytest.approx(0.0)
    rule = hw.GreedyPriority(model, scaling)
    path = hw.simulate_ctmc(model, scaling, rule, [0.0], 50.0, seed=1,
                            sample_times=[0.0, 50.0])
    assert path.x_hat[0, 0] == 0.0
    assert path.x_hat[-1, 0] == -1.0
    assert path.events == 1


def test_identities_hold_after_every_event():
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 50)
    for rule in (
        hw.GreedyPriority(model, scaling, 0, 0),
        hw.ImbalanceTracking(model, scaling, hw.ControlPoint.uniform(2, 2)),
    ):
        path = hw.simulate_ctmc(model, scaling, rule, [0.5, -0.5], 0.5, seed=5,
                                sample_times=[0.25, 0.5])
        assert path.events > 0


def test_work_conservation_near_fluid_point():
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 200)
    caps = scaling.server_counts(model)
    rng = np.random.default_rng(3)
    rules = (
        hw.GreedyPriority(model, scaling, 0, 0),
        hw.GreedyPriority(model, scaling, 1, 1),
        hw.ImbalanceTracking(model, scaling, hw.ControlPoint.uniform(2, 2)),
    )
    for _ in range(100):
        X = np.rint(200 * model.x_star + np.sqrt(200) * rng.normal(0, 1, 2)).astype(int)
        X = np.maximum(X, 0)
        for rule in rules:
            Psi = rule.assign(X)
            Y = X - Psi.sum(axis=1)
            Z = caps - Psi.sum(axis=0)
            assert (Psi >= 0).all() and (Y >= 0).all() and (Z >= 0).all()
            assert min(Y.sum(), Z.sum()) == 0


def test_single_class_aggregate_identity():
    # headcount identity: X + idle = capacity + queue, scaled form
    model = single_edge_model()
    scaling = hw.ScalingSpec.centered(model, 64)
    rule = hw.GreedyPriority(model, scaling)
    path = hw.simulate_ctmc(model, scaling, rule, [0.5], 1.0, seed=2,
                            sample_times=np.linspace(0, 1, 9))
    np.testing.assert_allclose(
        path.x_hat[:, 0] + path.z_hat[:, 0], path.y_hat[:, 0], atol=1e-12
    )


def test_tracking_rule_splits_by_weights():
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 100)
    point = hw.ControlPoint([0.75, 0.25], [1.0, 0.0])
    rule = hw.ImbalanceTracking(model, scaling, point)
    caps = scaling.server_counts(model)
    X = np.array([120, 140])  # totals 260 against capacity 200: queue 60
    Psi = rule.assign(X)
    Y = X - Psi.sum(axis=1)
    Z = caps - Psi.sum(axis=0)
    assert Y.sum() == 60 and Z.sum() == 0
    np.testing.assert_array_equal(Y, [45, 15])

    # idle side: spread idleness across stations by the weights
    point2 = hw.ControlPoint([1.0, 0.0], [0.3, 0.7])
    rule2 = hw.ImbalanceTracking(model, scaling, point2)
    X2 = np.array([60, 100])  # forty short of capacity
    Psi2 = rule2.assign(X2)
    Z2 = caps - Psi2.sum(axis=0)
    np.testing.assert_array_equal(Z2, [12, 28])
    assert (X2 - Psi2.sum(axis=1)).sum() == 0


def test_tracking_rule_infeasible_targets_fall_back():
    # class 0 demands more than its only station can hold: targets cannot be
    # met on the tree, but the fallback still yields a valid, work-conserving
    # assignment
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 100)
    caps = scaling.server_counts(model)
    rule = hw.ImbalanceTracking(model, scaling, hw.ControlPoint([0.25, 0.75], [1.0, 0.0]))
    X = np.array([120, 140])
    Psi = rule.assign(X)
    Y = X - Psi.sum(axis=1)
    Z = caps - Psi.sum(axis=0)
    assert (Psi >= 0).all() and (Y >= 0).all() and (Z >= 0).all()
    assert min(Y.sum(), Z.sum()) == 0


def test_replications_deterministic():
    model = single_edge_model()
    scaling = hw.ScalingSpec.centered(model, 25)
    rule = hw.GreedyPriority(model, scaling)
    a = hw.run_replications(model, scaling, rule, [0.0], 1.0, 5, seed=9, sample_times=[1.0])
    b = hw.run_replications(model, scaling, rule, [0.0], 1.0, 5, seed=9, sample_times=[1.0])
    np.testing.assert_array_equal(a, b)
    assert np.std(a) > 0


def test_run_sizes_past_their_limits_are_refused(monkeypatch):
    """A scale past ``MAX_N``, more than ``MAX_REPS`` replications and more
    than ``MAX_SAMPLES`` stored samples each raise a ``ValueError`` naming the
    limit, before a generator is seeded.  The limits are lowered here, so
    that neither side of a limit asks for much memory."""
    model = n_model()
    monkeypatch.setattr(ctmc, "MAX_N", 50)
    monkeypatch.setattr(ctmc, "MAX_REPS", 3)
    monkeypatch.setattr(ctmc, "MAX_SAMPLES", 8)
    with pytest.raises(ValueError, match="MAX_N"):
        hw.ScalingSpec.centered(model, 51)
    scaling = hw.ScalingSpec.centered(model, 50)
    rule = hw.GreedyPriority(model, scaling, 0, 1)
    x0, times = [0.0, 0.0], [0.0, 0.05, 0.1]
    assert hw.run_replications(model, scaling, rule, x0, 0.1, 2, sample_times=times + [0.1]).shape \
        == (2, 4, 2)

    def unseeded(*args):
        raise AssertionError("a generator was seeded")

    monkeypatch.setattr(ctmc.np.random, "default_rng", unseeded)
    with pytest.raises(ValueError, match="MAX_REPS"):
        hw.run_replications(model, scaling, rule, x0, 0.1, 4, sample_times=[0.0])
    with pytest.raises(ValueError, match="MAX_REPS"):
        ctmc._simulate(model, scaling, rule, x0, 0.1, [[0, r] for r in range(4)], [0.0])
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        hw.run_replications(model, scaling, rule, x0, 0.1, 3, sample_times=times)
    with pytest.raises(ValueError, match="MAX_SAMPLES"):
        hw.simulate_ctmc(model, scaling, rule, x0, 0.1, sample_times=np.linspace(0.0, 0.1, 9))


def test_compare_samples_identical_inputs():
    rng = np.random.default_rng(1)
    samples = rng.normal(0, 1, (500, 2, 1))
    report = hw.compare_samples(samples, samples.copy(), [0.5, 1.0])
    assert report.max_mean_z == 0.0
    assert report.max_var_z == 0.0


def test_compare_samples_shape_checks():
    with pytest.raises(ValueError):
        hw.compare_samples(np.zeros((10, 2, 1)), np.zeros((10, 3, 1)), [0.5, 1.0])
    with pytest.raises(ValueError):
        hw.compare_samples(np.zeros((10, 2, 1)), np.zeros((10, 2, 1)), [1.0])


def test_scaled_moments_approach_diffusion(rng):
    """Terminal mean and variance drift toward the diffusion values as the
    system grows; at moderate size they already sit within a few errors."""
    from hwsched import sde

    model = single_edge_model(mu=1.0, theta=0.0, r=np.sqrt(2.0))
    policy = hw.StaticPriority.for_model(model, 0, 0)
    reps = 2500
    diff = np.concatenate(sde.ensemble(model, np.zeros((1, 1)), policy, 8192, 500, 2e-3, 77,
                                       sde.path_snapshots, snap_idx=[500]))
    gaps = {}
    for n in (25, 400):
        scaling = hw.ScalingSpec.centered(model, n)
        rule = hw.GreedyPriority(model, scaling)
        samples = hw.run_replications(model, scaling, rule, [0.0], 1.0, reps, seed=21, sample_times=[1.0])
        report = hw.compare_samples(samples, diff, [1.0])
        gaps[n] = abs(report.var_a[0, 0] - report.var_b[0, 0])
        assert report.max_mean_z < 4.0
    assert gaps[400] < gaps[25] + 0.15


# -- batched rules against the per-state references ---------------------------

SHIPPED = Path(__file__).resolve().parent.parent / "models"
MODELS = {"n_model": n_model, "single_edge": single_edge_model, "tree3": lambda: tree3_model()[0]}


def _weights(raw):
    raw = np.asarray(raw, dtype=float)
    return raw / raw.sum() if raw.sum() > 0 else np.full(len(raw), 1.0 / len(raw))


@st.composite
def _assign_cases(draw):
    name = draw(st.sampled_from(sorted(MODELS)))
    model = MODELS[name]()
    n = draw(st.integers(1, 400))
    row = st.lists(st.integers(0, 3 * n), min_size=model.classes, max_size=model.classes)
    batches = draw(st.lists(st.lists(row, min_size=1, max_size=12), min_size=1, max_size=3))
    u = draw(st.lists(st.integers(0, 4), min_size=model.classes, max_size=model.classes))
    v = draw(st.lists(st.integers(0, 4), min_size=model.stations, max_size=model.stations))
    return name, n, batches, u, v


@settings(max_examples=150, deadline=None)
@given(_assign_cases())
# targets infeasible on the tree (the fallback), and uniform splits of odd totals (ties)
@example(("n_model", 100, [[[120, 140], [60, 100], [101, 100], [60, 39]]], [1, 3], [1, 0]))
@example(("n_model", 100, [[[101, 100], [60, 39], [0, 0], [300, 0]]], [1, 1], [2, 2]))
@example(("single_edge", 7, [[[0], [7], [21], [3]]], [1], [1]))
# one rule object over three batches: queues past the end of the lift table
# (which covers totals up to 4n here), then a smaller batch, then queue
# targets above a headcount among feasible rows.  On the N model the capped
# targets always lift to the greedy fill's assignment; on tree3 they do not
# ([102, 76, 61] queues 159, split 27 / 26 / 106, capped at 61 for class 2)
@example(("n_model", 100, [[[300, 290], [60, 39], [0, 600]], [[101, 100], [0, 5]],
                           [[120, 140], [10, 250], [150, 50], [60, 100], [250, 10]]],
          [1, 3], [1, 1]))
@example(("tree3", 40, [[[200, 150, 100], [20, 40, 20]], [[10, 20, 30]],
                        [[102, 76, 61], [20, 40, 20], [97, 80, 0], [4, 91, 87], [10, 10, 10]]],
          [1, 1, 4], [1, 1]))
@example(("single_edge", 50, [[[150], [20]], [[0], [50], [51]]], [1], [1]))
def test_assign_batch_matches_scalar_reference(case):
    """Every batched row equals the per-state rule it replaced, exactly: the
    greedy rule at every (queue class, idle station) and the tracking rule
    at integer, uniform and vertex weights.  Each rule object assigns every
    batch in turn, so its one lift table is reused across batches.
    On tree3 only the tracking rule is compared: there the greedy rule holds
    its vertex where the bare greedy fill would not (see
    ``test_greedy_holds_its_vertex_on_tree3``)."""
    name, n, batches, u, v = case
    model = MODELS[name]()
    scaling = hw.ScalingSpec.centered(model, n)
    caps = scaling.server_counts(model)
    greedy = {(qc, js): hw.GreedyPriority(model, scaling, qc, js)
              for qc in range(model.classes) for js in range(model.stations)
              if name != "tree3"}
    point = hw.ControlPoint(_weights(u), _weights(v))
    rule = hw.ImbalanceTracking(model, scaling, point)
    for X in map(np.array, batches):
        for (qc, js), greedy_rule in greedy.items():
            got = greedy_rule.assign_batch(X)
            for r, x in enumerate(X):
                np.testing.assert_array_equal(got[r], _ref_greedy(model, caps, qc, js, x))
        got = rule.assign_batch(X)
        for r, x in enumerate(X):
            np.testing.assert_array_equal(got[r], _ref_tracking(model, caps, point, x))
            np.testing.assert_array_equal(rule.assign(x), got[r])


def test_lift_table_is_bounded_and_never_mutated():
    """The lift table is built with the rule and covers aggregates below
    ``2 * caps.sum() + 1``: a headcount far past it takes the exact path,
    leaves the table's bytes as they were, and matches the reference."""
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 400)
    caps = scaling.server_counts(model)
    point = hw.ControlPoint.uniform(model.classes, model.stations)
    X = np.array([100000, 0])
    for rule, ref in ((hw.GreedyPriority(model, scaling), _ref_greedy(model, caps, 0, 0, X)),
                      (hw.ImbalanceTracking(model, scaling, point),
                       _ref_tracking(model, caps, point, X))):
        before = rule._table.tobytes()
        np.testing.assert_array_equal(rule.assign(X), ref)
        assert rule._table.tobytes() == before
        assert rule._table.nbytes <= (2 * caps.sum() + 2) * model.classes * model.stations * 8


def test_largest_remainder_batch_matches_rows():
    w = np.array([0.5, 0.25, 0.25])
    totals = np.arange(40)
    batch = _largest_remainder(w, totals)
    for total, row in zip(totals, batch):
        np.testing.assert_array_equal(row, _largest_remainder(w, int(total)))
        np.testing.assert_array_equal(row, _ref_largest_remainder(w, int(total)))


def test_greedy_holds_its_vertex_on_tree3():
    """Wherever the tree can hold the vertex targets, greedy queues only its
    queue class and idles only its idle station."""
    model, _ = tree3_model()
    scaling = hw.ScalingSpec.centered(model, 400)
    caps = scaling.server_counts(model)
    G = flows.lift_matrix(model)
    rng = np.random.default_rng(11)
    X = np.vstack([rng.integers(0, 800, (2000, 3)),
                   np.rint(400 * model.x_star + 20 * rng.normal(0, 3, (2000, 3)))]).astype(int)
    X = np.maximum(X, 0)
    s = X.sum(axis=1) - caps.sum()
    for qc in range(model.classes):
        for js in range(model.stations):
            Yv = np.zeros_like(X)
            Yv[:, qc] = np.maximum(s, 0)
            Zv = np.zeros((len(X), model.stations), dtype=int)
            Zv[:, js] = np.maximum(-s, 0)
            lift = np.einsum("ijk,bk->bij", G, np.concatenate([X - Yv, caps - Zv], axis=1))
            held = (lift >= 0).all(axis=(1, 2))
            assert held.sum() > 500
            Psi = hw.GreedyPriority(model, scaling, qc, js).assign_batch(X)
            np.testing.assert_array_equal((X - Psi.sum(axis=2))[held], Yv[held])
            np.testing.assert_array_equal((caps - Psi.sum(axis=1))[held], Zv[held])
    # the greedy fill alone leaves 38 customers of class 2 queued here
    X = np.array([208, 392, 238])
    assert (X - _ref_greedy(model, caps, 0, 0, X).sum(axis=1)).tolist() == [0, 0, 38]
    Psi = hw.GreedyPriority(model, scaling, 0, 0).assign(X)
    assert (X - Psi.sum(axis=1)).tolist() == [38, 0, 0]


# -- the event loop -----------------------------------------------------------


class _BrokenRule:
    """Assigns nothing but the one entry that breaks ``kind``; on ``n_model``
    at n = 16 (16 servers a station) from the fluid point ``X = (8, 24)``,
    each kind breaks exactly one invariant."""

    def __init__(self, kind):
        self.kind = kind

    def assign_batch(self, X):
        Psi = np.zeros((len(X), 2, 2), dtype=int)
        if self.kind == "negative":
            Psi[:, 0, 0] = -1
        elif self.kind == "non-activity":
            Psi[:, 0, 1] = 1  # class 0 cannot be served at station 1
        elif self.kind == "headcount":
            Psi[:, 0, 0] = X[:, 0] + 1
        else:
            Psi[:, 1, 0] = 17
        return Psi


@pytest.mark.parametrize("kind, message", [
    ("negative", "assignment rule produced negative in-service counts"),
    ("non-activity", "assignment rule used a non-activity"),
    ("headcount", "assignment rule violated the class headcount identity"),
    ("capacity", "assignment rule violated the station capacity identity"),
])
def test_broken_rule_names_its_invariant(kind, message):
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 16)
    caps = scaling.server_counts(model)
    X = np.tile(hw.initial_headcounts(model, scaling, [0.0, 0.0])[0], (3, 1))
    rule = _BrokenRule(kind)
    Psi = rule.assign_batch(X)
    broken = [Psi.min() < 0, Psi[:, ~model.edge_mask].any(),
              (X - Psi.sum(axis=2)).min() < 0, (caps - Psi.sum(axis=1)).min() < 0]
    assert sum(broken) == 1
    with pytest.raises(ValueError, match=f"^{message}$"):
        hw.run_replications(model, scaling, rule, [0.0, 0.0], 1.0, 3, seed=4)


class _ShiftedSplit(hw.GreedyPriority):
    """Greedy targets with one queued (``"queue"``) or idle (``"idle"``)
    customer fewer than the headcounts force, at class and station 0.  On
    ``n_model`` at n = 16 from the fluid point the table lifts them to
    nonnegative counts that break the headcount (capacity) identity."""

    def __init__(self, model, scaling, kind):
        self.kind = kind
        super().__init__(model, scaling)

    def _split(self, pos, neg):
        Y, Z = super()._split(pos, neg)
        (Y if self.kind == "queue" else Z)[:, 0] -= 1
        return Y, Z


@pytest.mark.parametrize("kind, message", [
    ("queue", "assignment rule violated the class headcount identity"),
    ("idle", "assignment rule violated the station capacity identity"),
])
def test_table_rule_breaking_an_identity_names_it(kind, message):
    """A table row with no negative count is not reassigned, and still
    checked: the start's assignment alone is named, in a run that ends
    before its first event."""
    model = n_model()
    scaling = hw.ScalingSpec.centered(model, 16)
    rule = _ShiftedSplit(model, scaling, kind)
    X = hw.initial_headcounts(model, scaling, [0.0, 0.0])[0]
    Lx, K = rule.table
    assert (X @ Lx + K[X.sum()]).min() >= 0
    with pytest.raises(ValueError, match=f"^{message}$"):
        hw.run_replications(model, scaling, rule, [0.0, 0.0], 1e-6, 3, seed=4)


class _Forwarding:
    """Forwards only ``assign_batch`` to a rule, so the event loop finds no
    lift table and assigns every row through that call."""

    def __init__(self, rule):
        self.rule = rule

    def assign_batch(self, X):
        return self.rule.assign_batch(X)


@pytest.mark.parametrize("name", ["n_model", "tree3", "single_class"])
def test_rule_without_a_table_gives_the_same_paths(name):
    """Through ``assign_batch`` alone a rule gives the samples and event
    counts of its table route, byte for byte: from the fluid point, and from
    a start whose aggregate lies past the table, so that rows take the exact
    path."""
    model = (hw.load_model(SHIPPED / "single_class.json")[0] if name == "single_class"
             else MODELS[name]())
    point = hw.ControlPoint.uniform(model.classes, model.stations)
    seeds = [[7, r] for r in range(3)]
    for n in (25, 400):
        scaling = hw.ScalingSpec.centered(model, n)
        far = np.full(model.classes, 3 * np.sqrt(n))
        for rule in (hw.GreedyPriority(model, scaling, model.classes - 1, 0),
                     hw.ImbalanceTracking(model, scaling, point)):
            assert hw.initial_headcounts(model, scaling, far)[0].sum() >= len(rule.table[1]) - 1
            for x0 in (np.zeros(model.classes), far):
                _, rec, events, _ = ctmc._simulate(model, scaling, rule, x0, 0.5, seeds, None)
                _, rec_f, events_f, _ = ctmc._simulate(model, scaling, _Forwarding(rule), x0, 0.5,
                                                       seeds, None)
                for got, want in zip((*rec_f, events_f), (*rec, events)):
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_replication_paths_do_not_depend_on_the_batch(monkeypatch):
    """Replication r is the path of ``simulate_ctmc(seed=[seed, r])`` byte for
    byte, whatever the replication count and the uniform block size."""
    times = [0.0, 0.3, 0.7, 1.0]
    for model, x0 in ((n_model(), [0.5, -0.5]), (single_edge_model(), [0.3])):
        scaling = hw.ScalingSpec.centered(model, 100)
        point = hw.ControlPoint.uniform(model.classes, model.stations)
        for rule in (hw.GreedyPriority(model, scaling),
                     hw.ImbalanceTracking(model, scaling, point)):
            full = hw.run_replications(model, scaling, rule, x0, 1.0, 7, seed=13,
                                       sample_times=times)
            for r in range(7):
                path = hw.simulate_ctmc(model, scaling, rule, x0, 1.0, seed=[13, r],
                                        sample_times=times)
                assert full[r].tobytes() == path.x_hat.tobytes()
            three = hw.run_replications(model, scaling, rule, x0, 1.0, 3, seed=13,
                                        sample_times=times)
            assert full[:3].tobytes() == three.tobytes()
            with monkeypatch.context() as m:
                m.setattr(ctmc, "_BLOCK_STEPS", 1)
                small = hw.run_replications(model, scaling, rule, x0, 1.0, 7, seed=13,
                                            sample_times=times)
            assert full.tobytes() == small.tobytes()


def test_single_class_path_follows_the_documented_stream():
    """Two uniforms per event from ``default_rng(seed + [31])``: the holding
    time is ``-log(u1) / total`` and ``u2 * total`` picks the event."""
    model = single_edge_model(theta=0.5)
    scaling = hw.ScalingSpec.centered(model, 30)
    times = np.linspace(0.0, 2.0, 9)
    path = hw.simulate_ctmc(model, scaling, hw.GreedyPriority(model, scaling), [0.4], 2.0,
                            seed=[3, 1], sample_times=times)
    lam = scaling.arrival_rates(model)[0]
    cap = scaling.server_counts(model)[0]
    X = hw.initial_headcounts(model, scaling, [0.4])[0][0]
    rng = np.random.default_rng([3, 1, 31])
    t, events, xs = 0.0, 0, []
    while len(xs) < len(times):
        rates = np.array([lam, model.mu[0, 0] * min(X, cap), model.theta[0] * max(X - cap, 0)])
        u1, u2 = rng.random(2)
        t_next = t - np.log(u1) / rates.sum()
        while len(xs) < len(times) and times[len(xs)] < t_next:
            xs.append(X)
        if t_next > 2.0:
            xs += [X] * (len(times) - len(xs))
            break
        t = t_next
        events += 1
        X += 1 if u2 * rates.sum() < rates[0] else -1
    np.testing.assert_array_equal(path.x_hat[:, 0], (np.array(xs) - 30.0) / np.sqrt(30.0))
    assert path.events == events


@pytest.mark.parametrize("call", ["run_replications", "simulate_ctmc"])
@pytest.mark.parametrize("horizon, times, name", [
    (np.nan, None, "horizon"),
    (np.inf, None, "horizon"),
    (-1.0, None, "horizon"),
    (0.0, None, "horizon"),
    (1.0, [0.0, np.nan], "sample_times"),
    (1.0, [np.inf], "sample_times"),
    (1.0, [-0.5, 1.0], "sample_times"),
])
def test_prelimit_rejects_bad_horizons_and_sample_times(monkeypatch, call, horizon, times, name):
    """A horizon or sample time that would hang the event loop, or sample a
    run that never started, raises ``ValueError`` naming it before the loop."""
    model = single_edge_model()
    scaling = hw.ScalingSpec.centered(model, 25)
    rule = hw.GreedyPriority(model, scaling)

    def no_run(*args):
        raise AssertionError("the event loop was set up before the inputs were checked")

    monkeypatch.setattr(ctmc, "initial_headcounts", no_run)
    with pytest.raises(ValueError, match=f"^{name} must be"):
        if call == "run_replications":
            hw.run_replications(model, scaling, rule, [0.0], horizon, 3, sample_times=times)
        else:
            hw.simulate_ctmc(model, scaling, rule, [0.0], horizon, sample_times=times)
