"""Two-tier controller: app registration, tick dispatch, tier isolation,
action application and the built-in app set."""

import json

import numpy as np
import pytest

from rrsim import channel as ch
from rrsim import ntn_planner
from rrsim.cli import bundled_scenario_path
from rrsim.ric import (
    Action,
    Controller,
    ControllerApp,
    DuplicateName,
    InvalidInterval,
    RicError,
    _failure_monitor,
    _ris_iterative_tuner,
    builtin_apps,
)
from rrsim.runner import Simulation
from rrsim.scenario import scenario_from_dict
from rrsim.simcore import EventKind, Kernel
from rrsim.world import World

BASE = {
    "nodes": [
        {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
        {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 40},
        {"id": "ue1", "kind": "UE", "position": [100, 0, 1.5]},
    ]
}


def make_controller(ric_cfg=None, data=None):
    world = World(scenario_from_dict(data or BASE))
    kernel = Kernel(0)
    return Controller(world, kernel, ric_cfg), kernel


def nonrt(name, handler, interval=60_000):
    return ControllerApp(name, "NonRT", handler, interval)


def nearrt(name, handler, interval=100):
    return ControllerApp(name, "NearRT", handler, interval)


class TestRegistration:
    def test_duplicate_names_rejected(self):
        ctl, _ = make_controller()
        ctl.register_app(nonrt("a", lambda c, s: []))
        with pytest.raises(DuplicateName):
            ctl.register_app(nonrt("a", lambda c, s: []))

    def test_non_rt_interval_floor(self):
        ctl, _ = make_controller()
        with pytest.raises(InvalidInterval):
            ctl.register_app(nonrt("fast", lambda c, s: [], interval=500))
        ctl.register_app(nonrt("ok", lambda c, s: [], interval=1_000))

    def test_near_rt_interval_band(self):
        ctl, _ = make_controller()
        with pytest.raises(InvalidInterval):
            ctl.register_app(nearrt("too_fast", lambda c, s: [], interval=5))
        with pytest.raises(InvalidInterval):
            ctl.register_app(nearrt("too_slow", lambda c, s: [], interval=1_500))
        ctl.register_app(nearrt("lo", lambda c, s: [], interval=10))
        ctl.register_app(nearrt("hi", lambda c, s: [], interval=1_000))


class TestDispatch:
    def test_periodic_ticks(self):
        ctl, kernel = make_controller()
        calls = []
        ctl.register_app(nearrt("ticker", lambda c, s: calls.append(c.kernel.clock) or [], 100))
        kernel.run_until(350)
        assert calls == [100, 200, 300]

    def test_failing_handler_is_logged_not_fatal(self):
        ctl, kernel = make_controller()

        def broken(c, s):
            raise RuntimeError("boom")

        ctl.register_app(nearrt("bad", broken, 100))
        ctl.register_app(nearrt("good", lambda c, s: [Action("Note", {"text": "alive"})], 100))
        kernel.run_until(100)
        texts = [d for _, d in kernel.log.actions]
        assert any("AppError bad" in t for t in texts)
        assert any("alive" in t for t in texts)

    def test_snapshot_cached_within_instant(self):
        ctl, kernel = make_controller()
        seen = []
        ctl.register_app(nearrt("a", lambda c, s: seen.append(s) or [], 100))
        ctl.register_app(nearrt("b", lambda c, s: seen.append(s) or [], 100))
        kernel.run_until(100)
        assert seen[0] is seen[1]

    def test_snapshot_refreshes_on_topology_change(self):
        ctl, kernel = make_controller()
        first = ctl.snapshot()
        ctl.topology_version += 1
        assert ctl.snapshot() is not first


class TestTierIsolation:
    def test_deploy_reserved_to_non_rt(self):
        ctl, _ = make_controller()
        from rrsim.ntn_planner import DeploymentPlan

        action = Action("DeployPlan", {"plan": DeploymentPlan()})
        with pytest.raises(RicError):
            ctl.apply_action(action, nearrt("x", lambda c, s: []))

    def test_ris_config_reserved_to_near_rt(self):
        data = dict(BASE)
        data["nodes"] = BASE["nodes"] + [
            {"id": "r1", "kind": "RisPanel", "position": [10, 0, 2], "ris": {"rows": 1, "cols": 4}}
        ]
        ctl, _ = make_controller(data=data)
        action = Action("ApplyRisConfig", {"panel": "r1", "part": 0, "config": [1, 1, 1, 1]})
        with pytest.raises(RicError):
            ctl.apply_action(action, nonrt("x", lambda c, s: []))
        ctl.apply_action(action, nearrt("y", lambda c, s: []))
        assert list(ctl.world.panel_states["r1"].config) == [1, 1, 1, 1]

    def test_unknown_action_kind(self):
        ctl, _ = make_controller()
        with pytest.raises(RicError):
            ctl.apply_action(Action("Reboot"), nonrt("x", lambda c, s: []))


class TestActions:
    def test_switch_policy(self):
        ctl, _ = make_controller()
        ctl.apply_action(Action("SwitchPolicy", {"name": "ris-off"}), nearrt("x", lambda c, s: []))
        assert ctl.policy == "ris-off"

    def test_deploy_plan_adds_nodes_and_bumps_version(self):
        from rrsim.ntn_planner import DeploymentPlan, Placement
        from rrsim.scenario import NodeKind

        ctl, _ = make_controller()
        before = ctl.topology_version
        plan = DeploymentPlan(
            placements=[Placement("uav_0", NodeKind.UAV, (50, 50, 120), 35.0, 3.5)],
            estimated_coverage_ratio=1.0,
        )
        ctl.apply_action(Action("DeployPlan", {"plan": plan}), nonrt("x", lambda c, s: []))
        assert ctl.topology_version == before + 1
        assert ctl.blackboard["plan_deployed"]
        deployed = [n for n in ctl.world.nodes.values() if n.node_id.startswith("deployed_")]
        assert len(deployed) == 1 and deployed[0].serving

    def test_recluster_builds_assignment(self):
        ctl, _ = make_controller()
        ctl.world.heartbeat(0)
        ctl.apply_action(Action("Recluster", {"L": 1}), nearrt("x", lambda c, s: []))
        assert ctl.cluster_assignment.aps_for("ue1") == ("bs1",)


class TestBuiltinApps:
    def test_expected_app_set(self):
        names = {a.name for a in builtin_apps()}
        assert {
            "FailureMonitor",
            "RecoveryPlanner",
            "RisCodebookTracker",
            "RisIterativeTuner",
            "CfClusterer",
            "ScriptRunner",
            "EnergyManager",
            "SensingManager",
        } == names

    def test_tier_assignment(self):
        tiers = {a.name: a.tier for a in builtin_apps()}
        assert tiers["RecoveryPlanner"] == "NonRT"
        assert tiers["RisIterativeTuner"] == "NearRT"

    def test_codebook_tracker_idle_under_max_throughput(self, two_ue_scenario):
        sim = Simulation(two_ue_scenario)
        sim.controller.policy = "max-throughput"
        snapshot = sim.controller.snapshot()
        from rrsim.ric import _ris_codebook_tracker

        assert _ris_codebook_tracker(sim.controller, snapshot) == []

    def test_offline_codebooks_built_from_config(self, two_ue_scenario):
        sim = Simulation(two_ue_scenario)
        assert set(sim.controller.codebooks) == {("ris1", 0), ("ris1", 1)}
        for cb in sim.controller.codebooks.values():
            assert len(cb.codewords) == 7
            assert all(len(cw) == 38 for cw in cb.codewords)

    def test_script_runner_emits_switch_and_shutdown(self, indoor_scenario):
        sim = Simulation(indoor_scenario)
        log = sim.run(30_000)
        texts = [d for t, d in log.actions if t == 30_000]
        assert any("SwitchPolicy by ScriptRunner: ris-off" in t for t in texts)
        assert any("ApplyRisConfig by ScriptRunner" in t for t in texts)
        assert list(sim.world.panel_states["ris1"].config) == [0] * 76


class TestSnapshotCache:
    def test_clock_only_change_rebinds_time(self):
        ctl, kernel = make_controller()
        first = ctl.snapshot()
        kernel.run_until(70_000)
        later = ctl.snapshot()
        assert later.now_ms == 70_000
        assert later.nodes is first.nodes
        # freshness is judged against the rebound clock
        assert first.heartbeat_fresh("bs1")
        assert not later.heartbeat_fresh("bs1")

    def test_heartbeat_is_seen_without_rebuild(self):
        ctl, kernel = make_controller()
        first = ctl.snapshot()
        kernel.run_until(70_000)
        ctl.world.heartbeat(70_000)
        later = ctl.snapshot()
        assert later.nodes is first.nodes
        assert later.heartbeat_fresh("bs1")

    def test_ue_move_rebuilds_the_snapshot(self):
        ctl, kernel = make_controller()
        first = ctl.snapshot()
        kernel.schedule(10, EventKind.UE_MOVE, {"node_id": "ue1", "position": [300, 0, 1.5]})
        kernel.run_until(10)
        ue = next(n for n in ctl.snapshot().nodes if n.node_id == "ue1")
        assert ue.position == (300, 0, 1.5)
        assert next(n for n in first.nodes if n.node_id == "ue1").position == (100, 0, 1.5)


def fresh_ris_power(ctl, panel_id, config, ue_id):
    """cascaded_gain on the live world, without the controller's cache."""
    tx = ctl.ris_tx_node(panel_id)
    gain = ch.cascaded_gain(
        tx.position, ctl.world.panels[panel_id], config, ctl.world.nodes[ue_id].position,
        tx.freq_ghz, ctl.params, ctl.world.obstacles,
    )
    return ch.received_power_dbm(tx.tx_power_dbm, gain)


class TestRisPowerCache:
    @pytest.fixture
    def ctl(self):
        # The two-UE room without its wall, so that obstacles added by a
        # strike change the direct path.
        with open(bundled_scenario_path("two_ue_demo.json")) as fh:
            data = json.load(fh)
        data["obstacles"] = []
        return Simulation(scenario_from_dict(data)).controller

    def power(self, ctl, ue_id="rx1"):
        config = ctl.world.panel_states["ris1"].config
        return ctl.ris_power_at("ris1", config, ue_id), fresh_ris_power(ctl, "ris1", config, ue_id)

    def test_move_and_strike_rebuild_the_table(self, ctl):
        before, fresh = self.power(ctl)
        assert before == fresh
        ctl.world.move_node("rx1", (0.5, 1.6, 1.0))
        moved, fresh = self.power(ctl)
        assert moved == fresh != before
        tx, ue = ctl.ris_tx_node("ris1").position, ctl.world.nodes["rx1"].position
        mid = [(a + b) / 2 for a, b in zip(tx, ue)]
        ctl.world.apply_strike([], [], [([c - 0.1 for c in mid], [c + 0.1 for c in mid])], 0)
        struck, fresh = self.power(ctl)
        assert struck == fresh != moved

    def test_applied_config_is_read_live(self, ctl):
        before, _ = self.power(ctl)
        version = ctl.world.version
        members = ctl.world.panels["ris1"].part_elements(0)
        ctl.apply_action(
            Action("ApplyRisConfig", {"panel": "ris1", "part": 0, "config": [1] * members.size}),
            nearrt("x", lambda c, s: []),
        )
        assert ctl.world.version == version
        after, fresh = self.power(ctl)
        assert after == fresh != before

    def test_tuner_evaluator_agrees_with_ris_power_at(self, ctl):
        state = ctl.world.panel_states["ris1"]
        state.config[:] = np.arange(state.config.size) % 4
        rng = np.random.default_rng(3)
        for part_id, ue_id in ctl.ris_part_assignments("ris1").items():
            members = state.panel.part_elements(part_id)
            evaluator = ctl.ris_evaluator("ris1", ctl.world.nodes[ue_id].position, part_id)
            for _ in range(5):
                part = rng.integers(0, 4, members.size)
                full = state.config.copy()
                full[members] = part
                assert evaluator(part) == ctl.ris_power_at("ris1", full, ue_id)

    def test_tuned_config_matches_a_sweep_of_cascaded_gain(self, ctl):
        from rrsim.ris_opt import iterative_optimize

        ctl.policy = "max-throughput"
        state = ctl.world.panel_states["ris1"]
        members = state.panel.part_elements(0)

        def oracle(part):
            full = state.config.copy()
            full[members] = part
            return fresh_ris_power(ctl, "ris1", full, "rx1")

        expected, trace = iterative_optimize(oracle, members.size, 4, initial=list(state.config[members]))
        action = _ris_iterative_tuner(ctl, ctl.snapshot())[0]
        assert action.params["config"] == expected
        assert action.params["feedback"] == trace.feedback_messages == members.size * 4


class TestFailureMonitorCache:
    def test_out_of_service_recomputed_only_when_its_inputs_change(self, earthquake_scenario, monkeypatch):
        calls = []
        real = ntn_planner.ues_out_of_service
        monkeypatch.setattr(ntn_planner, "ues_out_of_service", lambda *a: calls.append(1) or real(*a))
        sim = Simulation(earthquake_scenario, disabled_apps={"RecoveryPlanner"})
        sim.run(1_200_000)
        # 20 NonRT ticks but two (world version, operational access set)
        # keys: before the strike at 60 s and after it.
        assert len(calls) == 2
        _, _, expected = ntn_planner.detect_outage(
            sim.controller.snapshot(), 3.0, sim.controller.params
        )
        assert sim.controller.blackboard["out_of_service"] == expected

    def test_planner_reuses_the_monitors_set(self, earthquake_scenario, monkeypatch):
        sim = Simulation(earthquake_scenario)
        clocks, plans = [], []
        real_oos, real_plan = ntn_planner.ues_out_of_service, ntn_planner.build_plan

        def counted(*args):
            clocks.append(sim.kernel.clock)
            return real_oos(*args)

        def recorded(snapshot, *args):
            plan = real_plan(snapshot, *args)
            plans.append((snapshot, plan))
            return plan

        monkeypatch.setattr(ntn_planner, "ues_out_of_service", counted)
        monkeypatch.setattr(ntn_planner, "build_plan", recorded)
        sim.run(120_000)
        # One computation at the planning tick, shared by monitor and planner.
        assert clocks.count(120_000) == 1
        [(snapshot, plan)] = plans
        assert plan.placements
        monkeypatch.setattr(ntn_planner, "ues_out_of_service", real_oos)
        assert plan == real_plan(snapshot, sim.controller.params, earthquake_scenario.planner)

    def test_stale_heartbeat_is_part_of_the_key(self):
        ctl, kernel = make_controller()
        assert _failure_monitor(ctl, ctl.snapshot()) == []
        version = ctl.world.version
        kernel.run_until(70_000)  # no heartbeats: bs1 goes stale
        actions = _failure_monitor(ctl, ctl.snapshot())
        assert ctl.world.version == version
        assert ctl.blackboard["out_of_service"] == {"ue1"}
        assert ctl.blackboard["failed_nodes"] == {"gw", "bs1"}
        assert [a.kind for a in actions] == ["Note"]
