import json

import numpy as np
import pytest

import hwsched as hw
from hwsched.model import model_from_dict, model_to_dict
from conftest import n_model, nmodel_cost, random_tree_model, single_edge_model


def test_single_edge_valid():
    report = hw.validate_model(single_edge_model())
    assert report.ok
    assert report.diameter == 1


def test_n_model_valid_diameter_3():
    report = hw.validate_model(n_model())
    assert report.ok
    assert report.diameter == 3


def test_complete_bipartite_invalid():
    # all four activities on two classes and two stations: one cycle too many
    mu = np.array([[1.0, 2.0], [1.0, 2.0]])
    psi = np.array([[0.25, 0.25], [0.25, 0.25]])
    lam, nu, x_star = hw.fluid_from_flows(mu, psi)
    model = hw.TreeModel(
        classes=2, stations=2, edges=((0, 0), (0, 1), (1, 0), (1, 1)), mu=mu,
        theta=[0, 0], ell=[0, 0], r=[1, 1], gamma=1.0, lam=lam, nu=nu,
        x_star=x_star, psi_star=psi,
    )
    report = hw.validate_model(model)
    assert not report.ok
    assert any("edge count" in v for v in report.violations)


def test_disconnected_flagged():
    # two separate single edges: right edge count, no connectivity
    mu = np.array([[1.0, 0.0], [0.0, 1.0]])
    psi = np.array([[1.0, 0.0], [0.0, 1.0]])
    lam, nu, x_star = hw.fluid_from_flows(mu, psi)
    bad = hw.TreeModel(
        classes=2, stations=2, edges=((0, 0), (1, 1)), mu=mu, theta=[0, 0],
        ell=[0, 0], r=[1, 1], gamma=1.0, lam=lam, nu=nu, x_star=x_star, psi_star=psi,
    )
    report = hw.validate_model(bad)
    assert any("not connected" in v for v in report.violations)
    assert any("edge count" in v for v in report.violations)
    assert report.diameter is None


@pytest.mark.parametrize(
    "mutate, needle",
    [
        (lambda d: d.update(theta=[-0.1, 0.5]), "abandonment"),
        (lambda d: d.update(gamma=0.0), "discount"),
        (lambda d: d.update(nu=[1.0, 0.0]), "capacity"),
        (lambda d: d.update(x_star=[0.4, 1.5]), "x_star"),
    ],
)
def test_validation_flags_each_invariant(mutate, needle):
    base = n_model()
    doc = dict(
        classes=2, stations=2, edges=base.edges, mu=base.mu, theta=base.theta,
        ell=base.ell, r=base.r, gamma=base.gamma, lam=base.lam, nu=base.nu,
        x_star=base.x_star, psi_star=base.psi_star,
    )
    mutate(doc)
    report = hw.validate_model(hw.TreeModel(**doc))
    assert any(needle in v for v in report.violations)


def test_fluid_balance_tolerance():
    model = n_model()
    x_star = model.x_star.copy()
    x_star[0] += 5e-10  # inside the absolute tolerance
    ok = hw.TreeModel(
        classes=2, stations=2, edges=model.edges, mu=model.mu, theta=model.theta,
        ell=model.ell, r=model.r, gamma=model.gamma, lam=model.lam, nu=model.nu,
        x_star=x_star, psi_star=model.psi_star,
    )
    assert hw.validate_model(ok).ok


def test_combinatorics_single_edge():
    comb = hw.build_combinatorics(single_edge_model(), root=0)
    assert comb.levels == ((0,), (1,))
    assert comb.parent == {1: 0}
    assert comb.diameter == 1


def test_combinatorics_n_model_bfs_oracle():
    comb = hw.build_combinatorics(n_model(), root=0)
    # station nodes carry ids offset by the class count
    assert comb.levels == ((0,), (2,), (1,), (3,))
    assert comb.parent == {2: 0, 1: 2, 3: 1}
    assert comb.children[0] == (2,)
    assert comb.children[2] == (1,)


def test_combinatorics_depth2_shape():
    # root class, two stations below it, one extra class below each station
    mu = np.zeros((3, 2))
    psi = np.zeros((3, 2))
    for i, j in ((0, 0), (0, 1), (1, 0), (2, 1)):
        mu[i, j] = 1.0
        psi[i, j] = 0.5
    lam, nu, x_star = hw.fluid_from_flows(mu, psi)
    model = hw.TreeModel(
        classes=3, stations=2, edges=((0, 0), (0, 1), (1, 0), (2, 1)), mu=mu,
        theta=[0] * 3, ell=[0] * 3, r=[1] * 3, gamma=1.0, lam=lam, nu=nu,
        x_star=x_star, psi_star=psi,
    )
    comb = hw.build_combinatorics(model, root=0)
    assert comb.levels == ((0,), (3, 4), (1, 2))
    # class nodes at even levels, stations at odd levels
    for k, level in enumerate(comb.levels):
        for v in level:
            assert (v < model.classes) == (k % 2 == 0)


def test_combinatorics_parent_child_consistency(rng):
    for _ in range(20):
        model = random_tree_model(rng)
        comb = hw.build_combinatorics(model, root=0)
        assert sorted(v for lvl in comb.levels for v in lvl) == list(range(model.node_count))
        for k in range(1, len(comb.levels)):
            for v in comb.levels[k]:
                assert comb.parent[v] in comb.levels[k - 1]
                assert v in comb.children[comb.parent[v]]


def test_combinatorics_rejects_station_root():
    with pytest.raises(ValueError):
        hw.build_combinatorics(n_model(), root=1_000)


def test_peel_order_reaches_single_edge():
    model = n_model()
    comb = hw.build_combinatorics(model, 0)
    assert len(comb.peel_order) == model.node_count - 2


def test_classify_single_edge():
    model = single_edge_model(theta=0.0)
    cases = hw.classify_case(model, nmodel_cost())
    assert {"i", "ii"} <= cases


def test_classify_station_uniform_rates_give_case_i():
    # both classes serve at rate 2 at station 0; class 1 serves at 3 at station 1
    uniform = n_model(mu=(2.0, 2.0, 3.0), theta=(0.0, 0.0))
    assert "i" in hw.classify_case(uniform, nmodel_cost())
    assert "i" not in hw.classify_case(n_model(theta=(0.0, 0.0)), nmodel_cost())
    assert "i" not in hw.classify_case(n_model(mu=(2.0, 2.0, 3.0)), nmodel_cost())


def test_classify_n_model_exactly_case_ii():
    assert hw.classify_case(n_model(), nmodel_cost()) == frozenset({"ii"})


def test_classify_norm_cost_gives_case_iii():
    cost = hw.RunningCostSpec(c=[3, 1], d=[1, 2], kappa=1.0, m=2.0)
    assert "iii" in hw.classify_case(n_model(), cost)
    # norm exponent dominated by the queue exponent: lower bound fails
    weak = hw.RunningCostSpec(c=[3, 1], d=[1, 2], p=3.0, kappa=1.0, m=2.0)
    assert "iii" not in hw.classify_case(n_model(), weak)


def test_classify_bounded_cost_gives_case_iv():
    cost = hw.RunningCostSpec(c=[0, 0], d=[0, 0], constant=2.0)
    assert "iv" in hw.classify_case(n_model(), cost)


def test_classify_monotone_in_theta(rng):
    cost = nmodel_cost()
    for _ in range(20):
        model = random_tree_model(rng, max_nodes=8)
        cases = hw.classify_case(model, hw.RunningCostSpec(
            c=np.ones(model.classes), d=np.ones(model.stations)))
        smaller = hw.TreeModel(
            classes=model.classes, stations=model.stations, edges=model.edges,
            mu=model.mu, theta=model.theta * 0.5, ell=model.ell, r=model.r,
            gamma=model.gamma, lam=model.lam, nu=model.nu, x_star=model.x_star,
            psi_star=model.psi_star,
        )
        cases2 = hw.classify_case(smaller, hw.RunningCostSpec(
            c=np.ones(model.classes), d=np.ones(model.stations)))
        if "ii" in cases:
            assert "ii" in cases2


def test_control_point_validation():
    with pytest.raises(ValueError):
        hw.ControlPoint([0.5, 0.4], [1.0])
    with pytest.raises(ValueError):
        hw.ControlPoint([1.2, -0.2], [1.0])
    point = hw.ControlPoint.vertex(1, 0, 2, 2)
    assert point.u.tolist() == [0.0, 1.0]
    assert point.v.tolist() == [1.0, 0.0]
    # every comparison with NaN is false: the rule must still reject it
    with pytest.raises(ValueError):
        hw.ControlPoint([np.nan, 1.0], [1.0])
    with pytest.raises(ValueError):
        hw.ControlPoint([0.0, 1.0], [np.nan])
    with pytest.raises(ValueError):
        hw.ControlPoint([np.nan, np.nan], [1.0])


def test_abandonment_equal_to_service_rate_dominates():
    """theta_i = mu_ij counts as dominating, in every hypothesis that reads
    ``TreeModel.dominated``; a station without edges leaves case i as it was."""
    tie = n_model(mu=(1.0, 2.0, 2.0), theta=(1.0, 2.0))
    assert tie.dominated.tolist() == [[True, False], [True, True]]
    assert hw.classify_case(tie, nmodel_cost()) == frozenset({"ii"})
    assert hw.nonidling_hypothesis(tie) == []
    # the tie on edge (1, 0) is the first dominating edge once (0, 0) is not
    assert hw.default_priority_edge(n_model(mu=(1.0, 2.0, 2.0), theta=(1.5, 2.0))) == (1, 0)

    mu = np.zeros((2, 3))
    mu[0, 0], mu[1, 0], mu[1, 1] = 1.0, 1.0, 2.0
    psi = np.where(mu > 0, 0.5, 0.0)
    lam, nu, xs = hw.fluid_from_flows(mu, psi)
    edgeless = hw.TreeModel(
        classes=2, stations=3, edges=((0, 0), (1, 0), (1, 1)), mu=mu, theta=[0, 0],
        ell=[0, 0], r=[1, 1], gamma=1.0, lam=lam, nu=nu, x_star=xs, psi_star=psi,
    )
    cost = hw.RunningCostSpec(c=[1.0, 1.0], d=[1.0, 1.0, 1.0])
    assert hw.classify_case(edgeless, cost) == frozenset({"i"})
    with pytest.raises(ValueError, match="station-uniform"):
        hw.station_uniform_sequences(edgeless)
    with pytest.raises(ValueError, match="class-uniform"):
        hw.class_uniform_sequences(edgeless)


def test_cost_spec_checks_and_growth_bound(rng):
    bad = hw.RunningCostSpec(c=[-1.0], d=[0.0], p=0.5)
    assert len(bad.check()) == 2
    cost = hw.RunningCostSpec(c=[2.0, 0.5], d=[1.0, 3.0], p=2.0, q=1.0, kappa=0.7, m=3.0)
    assert not cost.check()
    assert cost.growth_exponent == 3.0
    for _ in range(200):
        x = rng.normal(0, 3, 2)
        u = rng.dirichlet(np.ones(2))
        v = rng.dirichlet(np.ones(2))
        val = cost.evaluate(x, u, v)
        assert val >= 0.0
        bound = cost.growth_scale * (1 + np.abs(x).sum() ** cost.growth_exponent)
        assert val <= bound + 1e-12


def test_cost_affine_detection():
    assert hw.RunningCostSpec(c=[1, 1], d=[1, 1]).affine_in_control
    assert not hw.RunningCostSpec(c=[1, 1], d=[1, 1], p=2.0).affine_in_control
    # exponent is irrelevant when the weights vanish
    assert hw.RunningCostSpec(c=[0, 0], d=[1, 1], p=2.0).affine_in_control


def test_model_json_roundtrip(tmp_path):
    model = n_model()
    cost = nmodel_cost()
    path = tmp_path / "model.json"
    hw.save_model(path, model, cost)
    loaded, loaded_cost = hw.load_model(path)
    assert loaded.edges == model.edges
    np.testing.assert_allclose(loaded.mu, model.mu)
    np.testing.assert_allclose(loaded.psi_star, model.psi_star)
    np.testing.assert_allclose(loaded_cost.c, cost.c)
    assert hw.model_hash(loaded) == hw.model_hash(model)
    doc = json.loads(path.read_text())
    assert {"classes", "stations", "edges", "psi_star", "gamma"} <= set(doc)


@pytest.mark.parametrize("edit", [lambda doc: [doc],
                                  lambda doc: doc["edges"].append({"class": 7, "station": 0, "mu": 1}),
                                  lambda doc: doc["edges"].append({"class": 0, "station": 2, "mu": 1}),
                                  lambda doc: doc["edges"].append({"class": -1, "station": 0, "mu": 1})],
                         ids=["array", "class_7", "station_2", "class_-1"])
def test_model_from_dict_rejects_a_malformed_document(edit):
    doc = model_to_dict(n_model(), nmodel_cost())
    doc = edit(doc) or doc
    with pytest.raises(ValueError, match="JSON object|out of range"):
        model_from_dict(doc)


def test_model_hash_distinguishes():
    assert hw.model_hash(n_model()) != hw.model_hash(n_model(theta=(0.4, 0.5)))


@pytest.mark.parametrize("shape", [(0, 3), (1, 4), (1, 1), (7,), (2500, 3)])
def test_write_csv_matches_savetxt(tmp_path, shape):
    # every special float, and several blocks of rows with a partial last one
    special = np.array([np.nan, np.inf, -np.inf, -0.0, 0.0, 5e-324, -2.2250738585072e-310,
                        1.7976931348623157e308, 0.1, -1.0 / 3.0, 1e22, 123456789.0])
    rng = np.random.default_rng(11)
    data = rng.normal(0.0, 1e3, shape) * 10.0 ** rng.integers(-30, 30, shape)
    flat = data.reshape(-1)
    flat[:len(special)] = special[:len(flat)]
    for header in ("", "a,b,c"):
        want, got = tmp_path / "want.csv", tmp_path / "got.csv"
        np.savetxt(want, data, delimiter=",", fmt="%.17g", header=header, comments="")
        hw.model.write_csv(got, data, header)
        assert got.read_bytes() == want.read_bytes()
        # an open text file, after what is already written to it
        with open(got, "w") as fh:
            fh.write("{}\n")
            hw.model.write_csv(fh, data, header)
        with open(want, "w") as fh:
            fh.write("{}\n")
            np.savetxt(fh, data, delimiter=",", fmt="%.17g", header=header, comments="")
        assert got.read_bytes() == want.read_bytes()
