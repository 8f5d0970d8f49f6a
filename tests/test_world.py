"""Run-time world state: strikes, batteries, the link budget and RIS
configurations."""

import dataclasses

import numpy as np
import pytest

from rrsim import channel as ch
from rrsim.scenario import NodeKind, NodeStatus, ValidationError, scenario_from_dict
from rrsim.world import World, access_snr_matrix

BASE = {
    "nodes": [
        {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
        {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 40},
        {"id": "bs2", "kind": "TerrestrialBS", "position": [800, 0, 25], "tx_power_dbm": 40},
        {"id": "ue1", "kind": "UE", "position": [100, 0, 1.5]},
        {"id": "ue2", "kind": "UE", "position": [700, 0, 1.5]},
    ]
}


def make_world(**overrides):
    data = dict(BASE)
    data.update(overrides)
    return World(scenario_from_dict(data))


def make_ris_world():
    """BASE with a 1x6 panel split into two parts of three elements."""
    panel = {"id": "ris1", "kind": "RisPanel", "position": [0, 0, 1], "ris": {"rows": 1, "cols": 6, "parts": 2}}
    return make_world(nodes=BASE["nodes"] + [panel])


class TestTransitions:
    def test_nodes_are_the_scenarios_frozen_nodes(self):
        """The world holds the scenario's own nodes, and a change replaces a
        node: a write to one of its fields raises."""
        world = make_world()
        assert all(world.nodes[n.node_id] is n for n in world.scenario.nodes)
        with pytest.raises(dataclasses.FrozenInstanceError):
            world.nodes["bs1"].status = NodeStatus.FAILED
        world.apply_strike(["bs1"], [], [], 0)
        assert world.nodes["bs1"] == dataclasses.replace(world.scenario.nodes[1], status=NodeStatus.FAILED)
        assert world.scenario.nodes[1].status == NodeStatus.OPERATIONAL

    def test_a_change_that_makes_an_invalid_node_is_refused(self):
        """Each stored node checks itself: a UAV moved to the ground raises,
        and the world keeps the node and its version."""
        world = make_world()
        uav = world.add_deployed_node(NodeKind.UAV, (100, 100, 120), 35.0, 3.5)
        version = world.version
        with pytest.raises(ValidationError, match="altitude must be > 0"):
            world.move_node(uav.node_id, (100, 100, 0))
        with pytest.raises(ValidationError, match="altitude must be > 0"):
            world.add_deployed_node(NodeKind.UAV, (0, 0, -50), 35.0, 3.5)
        assert world.nodes[uav.node_id] is uav and world.version == version
        assert world.add_deployed_node(NodeKind.UAV, (0, 0, 50), 35.0, 3.5).node_id == "deployed_1"

    def test_strike_fails_and_batteries(self):
        world = make_world()
        assert world.apply_strike(["bs1"], ["bs2"], [], 0) == ["bs2"]
        assert world.nodes["bs1"].status == NodeStatus.FAILED
        assert world.nodes["bs2"].status == NodeStatus.ON_BATTERY
        assert world.nodes["bs2"].battery_ms == world.scenario.battery_reserve_ms
        assert world.nodes["bs2"].serving
        assert not world.nodes["bs1"].serving

    def test_strike_batteries_run_out_a_reserve_after_the_strike(self):
        """`battery_ms` is the time the charge runs out, for a node that a
        strike puts on battery as for one loaded on it. Only the nodes that
        the strike puts on battery are returned: not a failed one, nor one
        already on battery, which keeps its own time."""
        world = make_world()
        reserve = world.scenario.battery_reserve_ms
        assert world.apply_strike([], ["bs2"], [], 4_000) == ["bs2"]
        assert world.nodes["bs2"].battery_ms == 4_000 + reserve
        assert world.apply_strike(["bs1"], ["bs1", "bs2"], [], 6_000) == []
        assert world.nodes["bs2"].battery_ms == 4_000 + reserve

    def test_strike_adds_blockages(self):
        world = make_world()
        world.apply_strike([], [], [[[1, 1, 0], [2, 2, 2]]], 0)
        assert ((1.0, 1.0, 0.0), (2.0, 2.0, 2.0)) in world.obstacles

    def test_battery_expiry_only_on_battery_nodes(self):
        world = make_world()
        world.apply_strike([], ["bs2"], [], 0)
        assert world.expire_battery("bs2")
        assert world.nodes["bs2"].status == NodeStatus.FAILED
        # a second expiry event for the same node is a no-op
        assert not world.expire_battery("bs2")
        assert not world.expire_battery("bs1")

    def test_deployed_nodes_get_fresh_heartbeat(self):
        world = make_world()
        state = world.add_deployed_node(NodeKind.UAV, (100, 100, 120), 35.0, 3.5)
        assert state.node_id == "deployed_0"
        second = world.add_deployed_node(NodeKind.UAV, (0, 0, 120), 35.0, 3.5)
        assert second.node_id == "deployed_1"


class TestSnapshot:
    """The views that every reader of the world shares: the link budget of
    the current version and the UE positions."""

    def test_operational_access_nodes(self):
        world = make_world()
        world.apply_strike(["bs1"], [], [], 0)
        links = world.link_budget()
        assert links.access_ids == ("bs2",)
        assert links is world.link_budget()

    def test_operational_access_ids_match_the_snapshot(self):
        """`world.link_budget()` is one object per version after every kind
        of change, over the serving access nodes in id order, and a change
        that serves no node differently still makes a new budget."""
        world = make_world()

        def ids():
            links = world.link_budget()
            assert links is world.link_budget()
            return links.access_ids

        assert ids() == ("bs1", "bs2")
        world.apply_strike(["bs1"], ["bs2"], [], 0)
        assert ids() == ("bs2",)
        world.add_deployed_node(NodeKind.UAV, (400, 0, 120), 35.0, 3.5)
        assert ids() == ("bs2", "deployed_0")
        before = world.link_budget()
        world.move_node("ue1", (300, 0, 1.5))
        assert ids() == ("bs2", "deployed_0")
        assert world.link_budget() is not before
        assert world.expire_battery("bs2")
        assert ids() == ("deployed_0",)

    def test_ue_positions_sorted(self):
        world = make_world()
        ids, positions = world.ue_positions()
        assert ids == ["ue1", "ue2"]
        assert positions.shape == (2, 3)


class TestSnrHelpers:
    PARAMS = ch.ChannelParams(exponent=2.0)

    def test_matrix_against_link_budget(self):
        world = make_world()
        access = [world.nodes[nid] for nid in world.link_budget().access_ids]
        positions = np.array([[100.0, 0.0, 1.5]])
        matrix = access_snr_matrix(access, positions, self.PARAMS, ())
        node = access[0]
        d = float(np.linalg.norm(np.asarray(node.position) - positions[0]))
        want = node.tx_power_dbm - ch.path_loss(node.position, positions[0], node.freq_ghz, self.PARAMS) - self.PARAMS.noise_floor_dbm()
        assert matrix[0, 0] == pytest.approx(want)
        assert matrix.shape == (2, 1)

    def test_best_picks_nearest(self):
        budget = make_world().link_budget()
        assert budget.ue_ids == ["ue1", "ue2"]
        assert [budget.access_ids[r] for r in budget.server_rows.tolist()] == ["bs1", "bs2"]
        assert np.all(np.isfinite(budget.best_db))
        assert budget.best_db.tolist() == budget.snr_db.max(axis=0).tolist()

    def test_no_access_nodes(self):
        world = make_world()
        world.apply_strike(["bs1"], [], [], 0)
        budget = world.link_budget()
        assert budget.snr_db.shape == (len(budget.access_ids), 2) == (1, 2)
        world.apply_strike(["bs1", "bs2"], [], [], 0)
        budget = world.link_budget()
        assert budget.access_ids == () and budget.snr_db.shape == (0, 2)
        assert budget.server_rows.tolist() == [-1, -1]
        assert budget.best_db.tolist() == [-np.inf, -np.inf]

    def test_blockage_reduces_snr(self):
        world = make_world()
        access = [world.nodes[nid] for nid in world.link_budget().access_ids]
        positions = np.array([[100.0, 0.0, 1.5]])
        clear = access_snr_matrix(access, positions, self.PARAMS, ())
        wall = (((50.0, -5.0, 0.0), (60.0, 5.0, 50.0)),)
        blocked = access_snr_matrix(access, positions, self.PARAMS, wall)
        assert blocked[0, 0] == pytest.approx(clear[0, 0] - self.PARAMS.blockage_penalty_db)


class TestVersion:
    def test_every_mutation_bumps_the_version(self):
        world = make_world()
        seen = [world.version]

        def bumped():
            seen.append(world.version)
            return seen[-1] > seen[-2]

        world.apply_strike([], ["bs2"], [], 0)
        assert bumped()
        world.expire_battery("bs2")
        assert bumped()
        world.move_node("ue1", (120, 0, 1.5))
        assert bumped()
        assert world.nodes["ue1"].position == (120, 0, 1.5)
        world.add_deployed_node(NodeKind.UAV, (0, 0, 120), 35.0, 3.5)
        assert bumped()

    def test_no_op_expiry_and_heartbeats_keep_the_version(self):
        world = make_world()
        version = world.version
        assert not world.expire_battery("bs1")
        assert world.version == version


class TestRisConfiguration:
    def test_configure_ris_length_checked(self):
        world = make_ris_world()
        with pytest.raises(ValueError):
            world.configure_ris("ris1", 0, [0, 0])

    def test_in_place_writes_raise(self):
        world = make_ris_world()
        config = world.ris_configs["ris1"]
        with pytest.raises(ValueError):
            config[0] = 1
        world.configure_ris("ris1", 0, [1, 1, 1])
        with pytest.raises(ValueError):
            world.ris_configs["ris1"][:] = 0
        # A write replaces the array; one read before it keeps its states.
        assert list(config) == [0] * 6
        assert list(world.ris_configs["ris1"]) == [1, 1, 1, 0, 0, 0]
