"""Run-time world state: strikes, batteries, heartbeats and snapshots."""

import numpy as np
import pytest

from rrsim import channel as ch
from rrsim.scenario import NodeKind, NodeStatus, scenario_from_dict
from rrsim.world import World, access_snr_matrix, best_snr_db

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


class TestTransitions:
    def test_strike_fails_and_batteries(self):
        world = make_world()
        world.apply_strike(["bs1"], ["bs2"], [], 1000)
        assert world.nodes["bs1"].status == NodeStatus.FAILED
        assert world.nodes["bs2"].status == NodeStatus.ON_BATTERY
        assert world.nodes["bs2"].battery_ms == world.scenario.battery_reserve_ms
        assert world.nodes["bs2"].serving
        assert not world.nodes["bs1"].serving

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
        state = world.add_deployed_node(NodeKind.UAV, (100, 100, 120), 35.0, 3.5, now_ms=90_000)
        assert state.node_id == "deployed_0"
        assert world.last_heartbeat[state.node_id] == 90_000
        second = world.add_deployed_node(NodeKind.UAV, (0, 0, 120), 35.0, 3.5)
        assert second.node_id == "deployed_1"


class TestHeartbeats:
    def test_failed_nodes_go_stale(self):
        world = make_world()
        world.apply_strike(["bs1"], [], [], 0)
        world.heartbeat(50_000)
        # bs1 last reported at t=0; the 60 s window has passed by t=100 s
        snap = world.snapshot(100_000)
        assert snap.heartbeat_fresh("bs2")
        assert not snap.heartbeat_fresh("bs1")

    def test_window_scales_with_non_rt_tick(self):
        world = make_world(ticks={"non_rt_ms": 120_000})
        assert world.heartbeat_window_ms == 120_000


class TestSnapshot:
    def test_nodes_sorted_and_copied(self):
        world = make_world()
        snap = world.snapshot(0)
        ids = [n.node_id for n in snap.nodes]
        assert ids == sorted(ids)
        world.nodes["bs1"].status = NodeStatus.FAILED
        # the snapshot keeps the state as of its creation
        assert next(n for n in snap.nodes if n.node_id == "bs1").serving

    def test_operational_access_nodes(self):
        world = make_world()
        world.apply_strike(["bs1"], [], [], 0)
        snap = world.snapshot(0)
        assert [n.node_id for n in snap.operational_access_nodes()] == ["bs2"]

    def test_ue_positions_sorted(self):
        world = make_world()
        ids, positions = world.ue_positions()
        assert ids == ["ue1", "ue2"]
        assert positions.shape == (2, 3)


class TestSnrHelpers:
    PARAMS = ch.ChannelParams(exponent=2.0)

    def test_matrix_against_link_budget(self):
        world = make_world()
        snap = world.snapshot(0)
        access = snap.operational_access_nodes()
        positions = np.array([[100.0, 0.0, 1.5]])
        matrix = access_snr_matrix(access, positions, self.PARAMS, ())
        node = access[0]
        d = float(np.linalg.norm(np.asarray(node.position) - positions[0]))
        want = node.tx_power_dbm - ch.path_loss(node.position, positions[0], node.freq_ghz, self.PARAMS) - self.PARAMS.noise_floor_dbm()
        assert matrix[0, 0] == pytest.approx(want)
        assert matrix.shape == (2, 1)

    def test_best_picks_nearest(self):
        world = make_world()
        access = world.snapshot(0).operational_access_nodes()
        positions = np.array([[100.0, 0.0, 1.5], [700.0, 0.0, 1.5]])
        best, servers = best_snr_db(access, positions, self.PARAMS, ())
        assert servers == ["bs1", "bs2"]
        assert best[0] > best[1] - 1e9  # finite values

    def test_no_access_nodes(self):
        best, servers = best_snr_db([], np.array([[0.0, 0.0, 1.5]]), self.PARAMS, ())
        assert servers == [None]
        assert best[0] == -np.inf

    def test_blockage_reduces_snr(self):
        world = make_world()
        access = world.snapshot(0).operational_access_nodes()
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
        world.heartbeat(10_000)
        assert world.version == version

    def test_heartbeat_replaces_the_dict_shared_with_snapshots(self):
        world = make_world()
        snap = world.snapshot(0)
        world.heartbeat(10_000)
        assert snap.last_heartbeat["bs1"] == 0
        assert world.last_heartbeat["bs1"] == 10_000

    def test_heartbeat_follows_status_changes_between_beats(self):
        world = make_world()
        world.heartbeat(10_000)
        world.apply_strike(["bs1"], ["bs2"], [], 15_000)
        deployed = world.add_deployed_node(NodeKind.UAV, (0, 0, 120), 35.0, 3.5, now_ms=15_000)
        world.heartbeat(20_000)
        world.expire_battery("bs2")
        world.heartbeat(30_000)
        beats = world.last_heartbeat
        assert (beats["bs1"], beats["bs2"], beats[deployed.node_id], beats["ue1"]) == (
            10_000, 20_000, 30_000, 30_000
        )
        assert list(beats) == list(world.nodes)
