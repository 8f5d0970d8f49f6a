"""Outage detection in the world's link budget, greedy placement (with a
brute-force oracle), backhaul formation and the full planning pass, which
reads the live world and leaves it as it was."""

import copy
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsim import channel as ch
from rrsim import ntn_planner as planner
from rrsim import world as world_mod
from rrsim.cli import bundled_scenario_path
from rrsim.runner import Simulation
from rrsim.scenario import (
    ACCESS_KINDS,
    Node,
    NodeKind,
    NodeStatus,
    ValidationError,
    load_scenario,
    scenario_from_dict,
)
from rrsim.simcore import rng_stream
from rrsim.world import World, access_snr_matrix

PARAMS = ch.ChannelParams(exponent=3.0)
# A short-range channel where a wall's penalty closes the direct link.
RELAY_CHANNEL = {"exponent": 2.0, "blockage_penalty_db": 60.0}


def grid_world(failed=(), gateway_pos=(2500, 2500, 30), extra_nodes=(), obstacles=(), planner_cfg=None):
    nodes = [{"id": "gw", "kind": "Gateway", "position": list(gateway_pos)}]
    for i in range(3):
        for j in range(3):
            nodes.append(
                {
                    "id": f"bs_{i}{j}",
                    "kind": "TerrestrialBS",
                    "position": [500 + 1000 * i, 500 + 1000 * j, 25],
                    "tx_power_dbm": 43,
                }
            )
    for k in range(12):
        nodes.append(
            {"id": f"ue_{k:02d}", "kind": "UE", "position": [250 * k + 100, 700 + 90 * k, 1.5]}
        )
    nodes.extend(extra_nodes)
    data = {
        "nodes": nodes,
        "channel": {"exponent": 3.0},
        "obstacles": [list(map(list, o)) for o in obstacles],
        "planner": planner_cfg or {},
    }
    world = World(scenario_from_dict(data))
    if failed:
        world.apply_strike(list(failed), [], [], 0)
    return world


ALL_BS = tuple(f"bs_{i}{j}" for i in range(3) for j in range(3))
ALL_UES = {f"ue_{k:02d}" for k in range(12)}


def brute_force_best(sets, universe, budget):
    best = 0
    for size in range(1, budget + 1):
        for combo in itertools.combinations(range(len(sets)), size):
            covered = set().union(*(sets[i] for i in combo)) & universe
            best = max(best, len(covered))
    return best


def greedy_covered(oos, candidates, ue_ids, ue_positions, budget, sets):
    placements = planner.place_ntn(
        oos, candidates, ue_ids, ue_positions, budget, 3.0, PARAMS, tx_power_dbm=45.0
    )
    chosen = [candidates.index(tuple(p.position)) for p in placements]
    covered = set().union(*(sets[i] for i in chosen)) if chosen else set()
    return len(covered & oos)


class TestDetectOutage:
    def test_intact_network(self):
        links = grid_world().link_budget()
        assert not links.out_of_service(3.0)
        assert links.access_ids == ALL_BS

    def test_failed_nodes_create_outage(self):
        links = grid_world(failed=ALL_BS).link_budget()
        assert links.access_ids == ()
        assert links.out_of_service(3.0) == ALL_UES

    def test_best_snr_at_the_threshold_is_in_service(self):
        # the complement of coverage_sets' `snr >= threshold`
        links = grid_world().link_budget()
        best = float(links.best_db[0])
        assert links.ue_ids[0] not in links.out_of_service(best)
        assert links.ue_ids[0] in links.out_of_service(math.nextafter(best, math.inf))


class TestGreedyPlacement:
    def random_instance(self, rng):
        n_cand = int(rng.integers(3, 7))
        n_ue = int(rng.integers(4, 13))
        budget = int(rng.integers(1, 4))
        candidates = [
            (float(x), float(y), 120.0)
            for x, y in rng.uniform(0, 3000, (n_cand, 2))
        ]
        ue_ids = [f"ue{j}" for j in range(n_ue)]
        ue_positions = np.column_stack(
            [rng.uniform(0, 3000, (n_ue, 2)), np.full(n_ue, 1.5)]
        )
        oos = set(ue_ids)
        sets = planner.coverage_sets(
            candidates, ue_ids, ue_positions, 3.0, PARAMS, (), tx_power_dbm=45.0
        )
        return oos, candidates, ue_ids, ue_positions, budget, sets

    def test_greedy_vs_brute_force_bound(self):
        # classical (1 - 1/e) guarantee for greedy maximum coverage
        bound = 1.0 - 1.0 / math.e
        rng = rng_stream(31, "test.greedy")
        for _ in range(50):
            oos, candidates, ue_ids, ue_positions, budget, sets = self.random_instance(rng)
            got = greedy_covered(oos, candidates, ue_ids, ue_positions, budget, sets)
            opt = brute_force_best(sets, oos, budget)
            assert got >= bound * opt - 1e-9

    def test_stops_when_everything_covered(self):
        candidates = [(0.0, 0.0, 120.0), (5.0, 0.0, 120.0), (10.0, 0.0, 120.0)]
        ue_ids = ["a", "b"]
        positions = np.array([[0.0, 10.0, 1.5], [5.0, 10.0, 1.5]])
        placements = planner.place_ntn(
            {"a", "b"}, candidates, ue_ids, positions, 3, 3.0, PARAMS, tx_power_dbm=45.0
        )
        assert len(placements) == 1

    def test_empty_outage_needs_no_candidates(self):
        assert planner.place_ntn(set(), [], [], np.zeros((0, 3)), 3, 3.0, PARAMS) == []

    def test_outage_without_candidates_is_an_error(self):
        with pytest.raises(planner.PlannerError):
            planner.place_ntn({"a"}, [], ["a"], np.array([[0.0, 0.0, 1.5]]), 3, 3.0, PARAMS)

    def test_placement_ids_are_ranked(self):
        candidates = [(0.0, 0.0, 120.0), (20_000.0, 0.0, 120.0)]
        ue_ids = ["a", "b"]
        positions = np.array([[0.0, 10.0, 1.5], [20_000.0, 10.0, 1.5]])
        placements = planner.place_ntn(
            {"a", "b"}, candidates, ue_ids, positions, 2, 3.0, PARAMS, tx_power_dbm=45.0
        )
        assert [p.node_id for p in placements] == ["uav_0", "uav_1"]

    def test_placements_are_uav_nodes(self):
        """A placement is the `Node` that its deployment adds, so a candidate
        checks its altitude like any node."""
        ue_positions = np.array([[0.0, 10.0, 1.5]])
        placements = planner.place_ntn(
            {"a"}, [(0.0, 0.0, 120.0)], ["a"], ue_positions, 1, 3.0, PARAMS, tx_power_dbm=45.0
        )
        assert placements == [Node("uav_0", NodeKind.UAV, (0.0, 0.0, 120.0), NodeStatus.ACTIVE, 45.0, 3.5)]
        with pytest.raises(ValidationError, match="altitude must be > 0"):
            planner.coverage_sets([(0.0, 0.0, 0.0)], ["a"], ue_positions, 3.0, PARAMS, ())


class TestGrid:
    def test_candidate_lattice_bounds(self):
        points = planner.candidate_lattice(((0, 0), (1000, 500)), 500.0, 120.0)
        assert (0.0, 0.0, 120.0) in points
        assert (1000.0, 500.0, 120.0) in points
        assert all(p[2] == 120.0 for p in points)


class TestBackhaul:
    def placement(self, pos, power=45.0):
        return Node("uav_0", NodeKind.UAV, pos, tx_power_dbm=power, freq_ghz=3.5)

    def test_direct_edge_to_gateway(self):
        world = grid_world()
        edges = planner.form_backhaul([self.placement((2000, 2000, 120))], world, 0.0)
        assert len(edges) == 1
        assert edges[0].via == "direct"
        assert edges[0].parent == "gw"
        assert edges[0].snr_db > 0.0

    def test_chained_placements_relay_through_each_other(self):
        # second UAV is out of direct gateway range but reaches the first
        near = Node("uav_0", NodeKind.UAV, (2000.0, 2500.0, 120.0), tx_power_dbm=45.0, freq_ghz=3.5)
        far = Node("uav_1", NodeKind.UAV, (900.0, 2500.0, 120.0), tx_power_dbm=45.0, freq_ghz=3.5)
        world = grid_world()
        edges = planner.form_backhaul([near, far], world, backhaul_threshold_db=4.0)
        parents = {e.child: e.parent for e in edges}
        assert parents["uav_0"] == "gw"
        assert parents["uav_1"] == "uav_0"

    def test_ris_relay_heals_blocked_edge(self):
        # short-range link: a wall blocks gateway->UAV LOS, the clear-path
        # budget is fine, and a corner-mounted reflective relay closes it
        wall = ((18.0, -10.0, 0.0), (20.0, 10.0, 15.0))
        nodes = [
            {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
            {"id": "ue", "kind": "UE", "position": [5, 5, 1.5]},
        ]
        data = {"nodes": nodes, "obstacles": [list(map(list, wall))], "channel": RELAY_CHANNEL}
        world = World(scenario_from_dict(data))
        uav = self.placement((40.0, 0.0, 10.0))
        assert ch.los_blocked((0, 0, 10), (40, 0, 10), world.obstacles)
        edges = planner.form_backhaul([uav], world, backhaul_threshold_db=10.0)
        assert edges[0].via == "ris_relay"
        assert edges[0].relay_position is not None
        assert edges[0].snr_db >= 10.0

    def test_satellite_fallback(self):
        sat = {"id": "sat", "kind": "Satellite", "position": [0, 0, 550_000]}
        world = grid_world(extra_nodes=[sat])
        uav = self.placement((100_000.0, 100_000.0, 120.0), power=10.0)
        edges = planner.form_backhaul([uav], world, backhaul_threshold_db=30.0)
        assert edges[0].parent == "sat"
        assert edges[0].snr_db == planner.SATELLITE_SNR_DB

    def test_unreachable_placement(self):
        world = grid_world()
        uav = self.placement((100_000.0, 100_000.0, 120.0), power=10.0)
        with pytest.raises(planner.UnreachablePlacement):
            planner.form_backhaul([uav], world, backhaul_threshold_db=30.0)

    @pytest.mark.parametrize("satellite", [True, False], ids=["satellite", "no_satellite"])
    def test_failed_gateway_roots_nothing(self, satellite):
        # The UAV hovers next to the gateway, but the strike failed it: the
        # satellite feeds the UAV, or no root is left.
        sat = {"id": "sat", "kind": "Satellite", "position": [0, 0, 550_000]}
        world = grid_world(failed=("gw", *ALL_BS), extra_nodes=[sat] if satellite else [])
        uav = self.placement((2500.0, 2500.0, 120.0))
        if satellite:
            edges = planner.form_backhaul([uav], world, backhaul_threshold_db=0.0)
            assert [(e.child, e.parent, e.snr_db) for e in edges] == [("uav_0", "sat", planner.SATELLITE_SNR_DB)]
        else:
            with pytest.raises(planner.UnreachablePlacement, match="uav_0"):
                planner.form_backhaul([uav], world, backhaul_threshold_db=0.0)
            assert planner.form_backhaul([], world) == []


class TestBuildPlan:
    def test_no_outage_returns_empty_plan(self):
        world = grid_world(planner_cfg={"snr_threshold_db": 3.0})
        plan = planner.build_plan(world)
        assert plan.placements == []
        assert plan.estimated_coverage_ratio == 1.0

    def test_plan_restores_coverage(self):
        all_bs = [f"bs_{i}{j}" for i in range(3) for j in range(3)]
        cfg = {
            "snr_threshold_db": 3.0,
            "max_nodes": 3,
            "uav_tx_power_dbm": 45.0,
            "candidate_spacing_m": 500.0,
            "backhaul_threshold_db": 0.0,
        }
        world = grid_world(failed=all_bs, planner_cfg=cfg)
        plan = planner.build_plan(world)
        assert plan.placements
        assert plan.estimated_coverage_ratio == 1.0
        assert {e.child for e in plan.backhaul} == {p.node_id for p in plan.placements}

    def test_plan_serializes(self):
        all_bs = [f"bs_{i}{j}" for i in range(3) for j in range(3)]
        cfg = {"max_nodes": 2, "uav_tx_power_dbm": 45.0, "backhaul_threshold_db": 0.0}
        world = grid_world(failed=all_bs, planner_cfg=cfg)
        plan = planner.build_plan(world)
        text = plan.to_json()
        assert '"placements"' in text and '"backhaul"' in text


class TestRelaySearchMemo:
    def test_each_blocked_pair_is_searched_once(self, monkeypatch):
        # Both UAVs sit behind a wall from the gateway. The first round picks
        # uav_1 through a relay; the second round must not search gw->uav_0
        # again, and the edges stay what the repeated search gave.
        wall = ((18.0, -10.0, 0.0), (20.0, 10.0, 15.0))
        nodes = [
            {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
            {"id": "ue", "kind": "UE", "position": [5, 5, 1.5]},
        ]
        data = {"nodes": nodes, "obstacles": [list(map(list, wall))], "channel": RELAY_CHANNEL}
        world = World(scenario_from_dict(data))
        uavs = [
            Node(f"uav_{i}", NodeKind.UAV, pos, tx_power_dbm=45.0, freq_ghz=3.5)
            for i, pos in enumerate([(40.0, 0.0, 10.0), (40.0, 3.0, 10.0)])
        ]
        searches = []
        search = planner._try_ris_relay

        def counting(a_pos, b_pos, *args):
            searches.append((tuple(a_pos), tuple(b_pos)))
            return search(a_pos, b_pos, *args)

        monkeypatch.setattr(planner, "_try_ris_relay", counting)
        edges = planner.form_backhaul(uavs, world, backhaul_threshold_db=10.0)
        assert len(searches) == len(set(searches)) == 2
        assert planner.DeploymentPlan(backhaul=edges).to_dict()["backhaul"] == [
            {
                "child": "uav_1",
                "parent": "gw",
                "via": "ris_relay",
                "relay_position": [25.0, 15.0, 20.0],
                "snr_db": 28.092604,
            },
            {"child": "uav_0", "parent": "uav_1", "via": "direct", "snr_db": 86.118131},
        ]


_xy = st.tuples(st.floats(0.0, 1000.0), st.floats(0.0, 1000.0))


@st.composite
def _outages(draw):
    """A small post-strike world over a 1 km square, whose planner settings
    make every backhaul feasible."""
    nodes = [{"id": "gw", "kind": "Gateway", "position": [500, 500, 30]}]
    n_bs = draw(st.integers(0, 3))
    for i in range(n_bs):
        x, y = draw(_xy)
        power = draw(st.floats(0.0, 40.0))
        nodes.append({"id": f"bs_{i}", "kind": "TerrestrialBS", "position": [x, y, 25], "tx_power_dbm": power})
    for k in range(draw(st.integers(0, 6))):
        x, y = draw(_xy)
        nodes.append({"id": f"ue_{k}", "kind": "UE", "position": [x, y, 1.5]})
    obstacles = []
    for _ in range(draw(st.integers(0, 2))):
        (x, y), (w, h) = draw(_xy), draw(st.tuples(st.floats(1.0, 200.0), st.floats(1.0, 200.0)))
        obstacles.append([[x, y, 0], [x + w, y + h, draw(st.floats(1.0, 60.0))]])
    cfg = {
        "snr_threshold_db": draw(st.floats(-10.0, 30.0)),
        "max_nodes": draw(st.integers(1, 3)),
        "uav_tx_power_dbm": draw(st.floats(0.0, 45.0)),
        "candidate_bounds": ((0.0, 0.0), (1000.0, 1000.0)),
        "candidate_spacing_m": 500.0,
        "backhaul_threshold_db": -1e9,
    }
    world = World(scenario_from_dict({"nodes": nodes, "obstacles": obstacles, "planner": cfg}))
    failed = [f"bs_{i}" for i in range(n_bs) if draw(st.booleans())]
    world.apply_strike(failed, [], [], 0)
    return world, cfg


@settings(max_examples=100, deadline=None)
@given(_outages())
def test_one_candidate_matrix_and_the_estimate_match_per_node_oracles(case):
    """The per-candidate loop of coverage_sets, the out-of-service set and the
    estimate as the best SNR over the serving access nodes and the
    placements, computed as they were before the planner shared one
    candidate matrix and took its outage from the world's link budget. A
    planning pass leaves the world as it found it."""
    world, cfg = case
    threshold, tx_power = cfg["snr_threshold_db"], cfg["uav_tx_power_dbm"]
    obstacles, params = world.obstacles, ch.ChannelParams()
    ue_ids, positions = world.ue_positions()

    candidates = planner.candidate_lattice(cfg["candidate_bounds"], 500.0)
    want = []
    for pos in candidates:
        node = Node("cand", NodeKind.UAV, pos, NodeStatus.ACTIVE, tx_power, 3.5)
        row = access_snr_matrix([node], positions, params, obstacles)[0]
        want.append({ue_ids[j] for j in range(len(ue_ids)) if row[j] >= threshold})
    got = planner.coverage_sets(candidates, ue_ids, positions, threshold, params, obstacles, tx_power)
    assert got == want

    def best_snr(access):
        matrix = access_snr_matrix(access, positions, params, obstacles)
        if not access:
            return np.full(len(ue_ids), -np.inf)
        return matrix[np.argmax(matrix, axis=0), np.arange(len(ue_ids))]

    access = sorted(
        (n for n in world.nodes.values() if n.serving and n.kind in ACCESS_KINDS),
        key=lambda n: n.node_id,
    )
    out = {ue_ids[j] for j, snr in enumerate(best_snr(access)) if snr < threshold}
    assert world.link_budget().out_of_service(threshold) == world.out_of_service() == out
    for max_nodes in (None, 0):
        before = (world.version, world.link_state(), copy.deepcopy(world.nodes), copy.deepcopy(world.obstacles))
        plan = planner.build_plan(world, max_nodes)
        assert (world.version, world.link_state(), world.nodes, world.obstacles) == before
        served = np.count_nonzero(best_snr(access + plan.placements) >= threshold)
        estimate = float(served) / len(ue_ids) if ue_ids else 1.0
        assert plan.estimated_coverage_ratio == estimate
        if max_nodes == 0:
            assert plan.placements == []


def test_planning_tick_makes_no_snr_matrix_over_access_nodes(monkeypatch):
    """The earthquake demo plans once, at 120,000 ms. Its out-of-service set
    comes from the monitor's link budget, so the planner builds one SNR matrix
    over the candidates and one over the placements, none over access nodes."""
    sim = Simulation(load_scenario(bundled_scenario_path("earthquake_demo.json")))
    sim.run(119_999)
    calls, plans, inside = [], [], []

    def matrix(nodes, *args):
        if inside:
            calls.append([n.node_id for n in nodes])
        return real_matrix(nodes, *args)

    def build_plan(*args):
        inside.append(sim.kernel.clock)
        try:
            plans.append(real_plan(*args))
        finally:
            inside.clear()
        return plans[-1]

    real_matrix, real_plan = world_mod.access_snr_matrix, planner.build_plan
    for module in (world_mod, planner):
        monkeypatch.setattr(module, "access_snr_matrix", matrix)
    monkeypatch.setattr(planner, "build_plan", build_plan)
    sim.run(120_000)
    assert len(plans) == 1 and plans[0].placements
    assert [set(ids) for ids in calls] == [{"cand"}, {"cand"}]
    assert len(calls[1]) == len(plans[0].placements)
