"""Two-tier controller: app registration, tick dispatch, tier isolation,
action application and the built-in app set."""

import copy
import json
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from rrsim import channel as ch
from rrsim import ntn_planner
from rrsim import ric as ric_mod
from rrsim import world as world_mod
from rrsim.cli import bundled_scenario_path
from rrsim.ric import (
    Action,
    Controller,
    ControllerApp,
    DuplicateName,
    InvalidInterval,
    RicError,
    _ris_iterative_tuner,
    builtin_apps,
)
from rrsim.runner import Simulation
from rrsim.scenario import ACCESS_KINDS, scenario_from_dict
from rrsim.simcore import EventKind, Kernel
from rrsim.world import World, access_snr_matrix

BASE = {
    "nodes": [
        {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
        {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 40},
        {"id": "ue1", "kind": "UE", "position": [100, 0, 1.5]},
    ]
}


def make_controller(data=None):
    world = World(scenario_from_dict(data or BASE))
    kernel = Kernel(0)
    return Controller(world, kernel), kernel


def nonrt(name, handler, interval=60_000):
    return ControllerApp(name, "NonRT", handler, interval)


def nearrt(name, handler, interval=100):
    return ControllerApp(name, "NearRT", handler, interval)


class TestRegistration:
    def test_duplicate_names_rejected(self):
        ctl, _ = make_controller()
        ctl.register_app(nonrt("a", lambda c: []))
        with pytest.raises(DuplicateName):
            ctl.register_app(nonrt("a", lambda c: []))

    def test_non_rt_interval_floor(self):
        ctl, _ = make_controller()
        with pytest.raises(InvalidInterval):
            ctl.register_app(nonrt("fast", lambda c: [], interval=500))
        ctl.register_app(nonrt("ok", lambda c: [], interval=1_000))

    def test_near_rt_interval_band(self):
        ctl, _ = make_controller()
        with pytest.raises(InvalidInterval):
            ctl.register_app(nearrt("too_fast", lambda c: [], interval=5))
        with pytest.raises(InvalidInterval):
            ctl.register_app(nearrt("too_slow", lambda c: [], interval=1_500))
        ctl.register_app(nearrt("lo", lambda c: [], interval=10))
        ctl.register_app(nearrt("hi", lambda c: [], interval=1_000))


class TestDispatch:
    def test_periodic_ticks(self):
        ctl, kernel = make_controller()
        calls = []
        ctl.register_app(nearrt("ticker", lambda c: calls.append(c.kernel.clock) or [], 100))
        kernel.run_until(350)
        assert calls == [100, 200, 300]

    def test_failing_handler_is_logged_not_fatal(self):
        ctl, kernel = make_controller()

        def broken(c):
            raise RuntimeError("boom")

        ctl.register_app(nearrt("bad", broken, 100))
        ctl.register_app(nearrt("good", lambda c: [Action("Note", {"text": "alive"})], 100))
        kernel.run_until(100)
        texts = [d for _, d in kernel.log.actions]
        assert any("AppError bad" in t for t in texts)
        assert any("alive" in t for t in texts)

    def test_later_app_reads_the_live_world(self):
        """An app sees what an earlier app of its group did at the same tick."""
        from rrsim.ntn_planner import DeploymentPlan
        from rrsim.scenario import Node, NodeKind

        ctl, kernel = make_controller()
        plan = DeploymentPlan(placements=[Node("uav_0", NodeKind.UAV, (50, 50, 120), tx_power_dbm=35.0, freq_ghz=3.5)])
        seen = []
        ctl.register_app(nonrt("deploy", lambda c: [Action("DeployPlan", {"plan": plan})], 1_000))
        ctl.register_app(nonrt("read", lambda c: seen.append(c.world.link_budget().access_ids) or [], 1_000))
        kernel.run_until(1_000)
        assert seen == [("bs1", "deployed_0")]


class TestTierIsolation:
    def test_deploy_reserved_to_non_rt(self):
        ctl, _ = make_controller()
        from rrsim.ntn_planner import DeploymentPlan

        action = Action("DeployPlan", {"plan": DeploymentPlan()})
        with pytest.raises(RicError):
            ctl.apply_action(action, nearrt("x", lambda c: []))

    def test_ris_config_reserved_to_near_rt(self):
        data = dict(BASE)
        data["nodes"] = BASE["nodes"] + [
            {"id": "r1", "kind": "RisPanel", "position": [10, 0, 2], "ris": {"rows": 1, "cols": 4}}
        ]
        ctl, _ = make_controller(data=data)
        action = Action("ApplyRisConfig", {"panel": "r1", "part": 0, "config": [1, 1, 1, 1]})
        with pytest.raises(RicError):
            ctl.apply_action(action, nonrt("x", lambda c: []))
        ctl.apply_action(action, nearrt("y", lambda c: []))
        assert list(ctl.world.ris_configs["r1"]) == [1, 1, 1, 1]

    def test_unknown_action_kind(self):
        ctl, _ = make_controller()
        with pytest.raises(RicError):
            ctl.apply_action(Action("Reboot"), nonrt("x", lambda c: []))


class TestActions:
    def test_switch_policy(self):
        ctl, _ = make_controller()
        ctl.apply_action(Action("SwitchPolicy", {"name": "ris-off"}), nearrt("x", lambda c: []))
        assert ctl.policy == "ris-off"

    def test_deploy_plan_adds_nodes_and_bumps_version(self):
        from rrsim.ntn_planner import DeploymentPlan
        from rrsim.scenario import Node, NodeKind

        ctl, _ = make_controller()
        before = ctl.world.version
        plan = DeploymentPlan(
            placements=[Node("uav_0", NodeKind.UAV, (50, 50, 120), tx_power_dbm=35.0, freq_ghz=3.5)],
            estimated_coverage_ratio=1.0,
        )
        ctl.apply_action(Action("DeployPlan", {"plan": plan}), nonrt("x", lambda c: []))
        assert ctl.world.version == before + 1
        assert ctl.blackboard["plan_deployed"]
        deployed = [n for n in ctl.world.nodes.values() if n.node_id.startswith("deployed_")]
        assert len(deployed) == 1 and deployed[0].serving

    def test_recluster_builds_assignment(self):
        ctl, _ = make_controller()
        ctl.apply_action(Action("Recluster", {"L": 1}), nearrt("x", lambda c: []))
        assert ctl.cluster_assignment.serving["ue1"] == ("bs1",)


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
        from rrsim.ric import _ris_codebook_tracker

        assert _ris_codebook_tracker(sim.controller) == []

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
        assert list(sim.world.ris_configs["ris1"]) == [0] * 76


def fresh_ris_power(ctl, panel_id, config, ue_id):
    """cascaded_gain on the live world, without the evaluator's link table."""
    tx = ctl.world.nodes[ctl.world.scenario.ric.ris[panel_id].tx]
    gain = ch.cascaded_gain(
        tx.position, ctl.world.panels[panel_id], config, ctl.world.nodes[ue_id].position,
        tx.freq_ghz, ctl.world.scenario.channel, ctl.world.obstacles,
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
        config, position = ctl.world.ris_configs["ris1"], ctl.world.nodes[ue_id].position
        return ctl.world.ris_evaluator("ris1", position)(config), fresh_ris_power(ctl, "ris1", config, ue_id)

    def test_move_and_strike_rebuild_the_table(self, ctl):
        before, fresh = self.power(ctl)
        assert before == fresh
        ctl.world.move_node("rx1", (0.5, 1.6, 1.0))
        moved, fresh = self.power(ctl)
        assert moved == fresh != before
        tx, ue = ctl.world.nodes["tx1"].position, ctl.world.nodes["rx1"].position
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
            nearrt("x", lambda c: []),
        )
        assert ctl.world.version == version
        after, fresh = self.power(ctl)
        assert after == fresh != before

    def test_tuner_evaluator_agrees_with_ris_power_at(self, ctl):
        """A part's evaluator agrees with the full-panel evaluator that the
        measurement uses."""
        panel = ctl.world.panels["ris1"]
        states = np.arange(panel.n_elements) % 4
        for part_id in np.unique(panel.partition).tolist():
            ctl.world.configure_ris("ris1", part_id, states[panel.part_elements(part_id)])
        rng = np.random.default_rng(3)
        for (_, part_id), ue_id in ctl.world.ris_parts.items():
            members = panel.part_elements(part_id)
            position = ctl.world.nodes[ue_id].position
            evaluator = ctl.world.ris_evaluator("ris1", position, part_id)
            for _ in range(5):
                part = rng.integers(0, 4, members.size)
                full = ctl.world.ris_configs["ris1"].copy()
                full[members] = part
                assert evaluator(part) == ctl.world.ris_evaluator("ris1", position)(full)

    def test_tuned_config_matches_a_sweep_of_cascaded_gain(self, ctl):
        from rrsim.ris_opt import iterative_optimize

        ctl.policy = "max-throughput"
        config = ctl.world.ris_configs["ris1"]
        members = ctl.world.panels["ris1"].part_elements(0)

        def oracle(part):
            full = config.copy()
            full[members] = part
            return fresh_ris_power(ctl, "ris1", full, "rx1")

        expected, trace = iterative_optimize(oracle, members.size, 4, initial=list(config[members]))
        action = _ris_iterative_tuner(ctl)[0]
        assert action.params["config"] == expected
        assert action.params["feedback"] == trace.feedback_messages == members.size * 4


def record_link_budgets(monkeypatch, sim):
    """(clock, world version, budget) of every `World.link_budget` call."""
    calls = []
    real = World.link_budget

    def recorded(world, *args):
        budget = real(world, *args)
        calls.append((sim.kernel.clock, world.version, budget))
        return budget

    monkeypatch.setattr(World, "link_budget", recorded)
    return calls


def computed(calls):
    """(clock, world version) of the calls that computed their budget: the
    first call that handed back each budget object."""
    seen, first = set(), []
    for t, v, budget in calls:
        if id(budget) not in seen:
            seen.add(id(budget))
            first.append((t, v))
    return first


class TestFailureMonitorCache:
    def test_out_of_service_recomputed_only_when_its_inputs_change(self, earthquake_scenario, monkeypatch):
        sim = Simulation(earthquake_scenario, disabled_apps={"RecoveryPlanner"})
        calls = record_link_budgets(monkeypatch, sim)
        sim.run(1_200_000)
        # 20 NonRT ticks, 241 samples and 1,200 NearRT ticks, but two world
        # versions: before the strike at 60 s and after it.
        assert computed(calls) == [(0, 0), (60_000, 1)]
        # Oracle: the best SNR over the serving access nodes, per UE.
        world = sim.world
        access = [n for n in world.nodes.values() if n.serving and n.kind in ACCESS_KINDS]
        ue_ids, positions = world.ue_positions()
        matrix = access_snr_matrix(access, positions, world.scenario.channel, world.obstacles)
        best = matrix.max(axis=0, initial=-np.inf)
        expected = {ue_id for ue_id, snr in zip(ue_ids, best.tolist()) if snr < 3.0}
        assert expected and sim.controller.blackboard["out_of_service"] == expected
        assert world.link_budget().out_of_service(3.0) == expected

    def test_planner_reuses_the_monitors_set(self, earthquake_scenario, monkeypatch):
        sim = Simulation(earthquake_scenario)
        plans = []
        real_plan = ntn_planner.build_plan

        def recorded(world, *args):
            start = len(calls)
            plan = real_plan(world, *args)
            plans.append(([budget for _, _, budget in calls[start:]], plan))
            return plan

        calls = record_link_budgets(monkeypatch, sim)
        monkeypatch.setattr(ntn_planner, "build_plan", recorded)
        sim.run(120_000)
        # At the planning tick the monitor and the planner read one budget,
        # the one computed after the strike; the three deployed nodes then
        # move the version to 4, and that budget is computed once.
        assert computed(calls) == [(0, 0), (60_000, 1), (120_000, 4)]
        monitor, planner_ = [budget for t, v, budget in calls if (t, v) == (120_000, 1)]
        assert monitor is planner_
        [([links], plan)] = plans
        assert links is monitor
        threshold = earthquake_scenario.planner.snr_threshold_db
        assert links.out_of_service(threshold) == sim.controller.blackboard["out_of_service"]
        assert plan.placements
        # The same world at the planning tick, with no planner to change it.
        fresh = Simulation(earthquake_scenario, disabled_apps={"RecoveryPlanner"})
        fresh.run(120_000)
        assert plan == real_plan(fresh.world)

    def test_measurement_monitor_and_clusterer_share_one_matrix(self, earthquake_scenario, monkeypatch):
        calls = []
        real = world_mod.access_snr_matrix

        def counted(*args):
            calls.append(1)
            return real(*args)

        for mod in (world_mod, ric_mod, ntn_planner):
            if getattr(mod, "access_snr_matrix", None) is real:
                monkeypatch.setattr(mod, "access_snr_matrix", counted)
        Simulation(earthquake_scenario, disabled_apps={"RecoveryPlanner"}).run(1_200_000)
        # One matrix per world version, before and after the strike.
        assert len(calls) == 2


class TestTickGroups:
    def test_earthquake_run_has_one_tick_per_group(self, earthquake_scenario):
        sim = Simulation(earthquake_scenario)
        counts, groups = Counter(), set()

        def count(kernel, event):
            counts[event.kind] += 1
            groups.add(tuple(app.name for app in event.payload["apps"]))

        sim.kernel.on(EventKind.NEAR_RT_TICK, count)
        sim.kernel.on(EventKind.NON_RT_TICK, count)
        sim.run(14_520_000)
        # One tick per app would give 58,080 and 968.
        assert counts[EventKind.NEAR_RT_TICK] == 14_520
        assert counts[EventKind.NON_RT_TICK] == 484
        assert groups == {
            ("FailureMonitor", "RecoveryPlanner"),
            ("RisCodebookTracker", "RisIterativeTuner", "CfClusterer", "ScriptRunner"),
            ("EnergyManager", "SensingManager"),
        }


class TestSleepingTicks:
    def test_earthquake_near_rt_group_runs_only_when_it_acts(self, earthquake_scenario):
        """With no observer on the tick kinds, the NearRT group runs only at
        its first tick, the strike, the deployment and the battery expiries,
        where the clusterer acts; every other firing is skipped, yet draws
        its sequence id."""
        sim = Simulation(earthquake_scenario)
        sim.run(14_520_000)
        kernel = sim.kernel
        assert kernel.dispatched[EventKind.NEAR_RT_TICK] == 4
        assert kernel.skipped == {EventKind.NEAR_RT_TICK: 14_516}
        assert kernel.dispatched[EventKind.NON_RT_TICK] == 484
        assert kernel.scheduled == 17_922
        assert sum(d.startswith("Recluster") for _, d in sim.kernel.log.actions) == 4

    def test_a_replaced_gate_keeps_every_tick(self, two_ue_scenario):
        """Only the built-in state-only gates let a group sleep."""
        apps = [
            app if app.idle is None else replace(app, idle=lambda ctl, gate=app.idle: gate(ctl))
            for app in builtin_apps(two_ue_scenario.non_rt_tick_ms, two_ue_scenario.near_rt_tick_ms)
        ]
        sim = Simulation(two_ue_scenario, apps=apps)
        sim.run(5_000)
        assert not sim.kernel.skipped
        asleep = Simulation(two_ue_scenario)
        asleep.run(5_000)
        assert asleep.kernel.skipped[EventKind.NEAR_RT_TICK] > 0
        assert asleep.kernel.log.actions == sim.kernel.log.actions
        assert asleep.kernel.scheduled == sim.kernel.scheduled


def _room_with_moves_and_switches():
    """The two-UE room under fast-recovery with walking UEs, switches to
    max-throughput and back, and a ris_off entry."""
    with open(bundled_scenario_path("two_ue_demo.json")) as fh:
        data = json.load(fh)
    data["ric"]["ue_moves"] = [
        {"time_ms": 2_000, "node_id": "rx1", "position": [0.0, 1.7, 1.0]},
        {"time_ms": 3_000, "node_id": "rx2", "position": [-0.5, 1.6, 1.0]},
        {"time_ms": 6_000, "node_id": "rx1", "position": [0.6, 1.55, 1.0]},
        {"time_ms": 9_000, "node_id": "rx2", "position": [-0.9, 1.4, 1.0]},
        {"time_ms": 14_000, "node_id": "rx1", "position": [-0.3, 1.68, 1.0]},
    ]
    data["ric"]["script"] = [
        {"time_ms": 5_000, "policy": "max-throughput"},
        {"time_ms": 8_000, "policy": "fast-recovery"},
        {"time_ms": 10_000, "policy": "ris-off", "ris_off": True},
        {"time_ms": 12_000, "policy": "fast-recovery"},
    ]
    return scenario_from_dict(data)


class TestIdleGates:
    def gated_state(self, ctl):
        return (
            copy.deepcopy(ctl.blackboard),
            ctl.policy,
            {pid: config.tolist() for pid, config in ctl.world.ris_configs.items()},
        )

    def checked(self, app, skipped):
        """The app with a gate that, whenever it skips, calls the handler and
        checks that it does nothing."""

        def idle(ctl):
            if not app.idle(ctl):
                return False
            before = self.gated_state(ctl)
            assert app.handler(ctl) == [], (app.name, ctl.kernel.clock)
            assert self.gated_state(ctl) == before, (app.name, ctl.kernel.clock)
            skipped[app.name] += 1
            return True

        return app if app.idle is None else replace(app, idle=idle)

    def test_skipped_apps_would_have_done_nothing(self, earthquake_scenario, indoor_scenario, two_ue_scenario):
        skipped = Counter()
        runs = [
            (earthquake_scenario, 14_520_000),
            (indoor_scenario, 60_000),
            (two_ue_scenario, 60_000),
            (_room_with_moves_and_switches(), 16_000),
        ]
        for scenario, until in runs:
            apps = builtin_apps(scenario.non_rt_tick_ms, scenario.near_rt_tick_ms)
            sim = Simulation(scenario, apps=[self.checked(app, skipped) for app in apps])
            sim.run(until)
        gated = {app.name for app in builtin_apps() if app.idle is not None}
        assert gated == {app.name for app in builtin_apps()} - {"FailureMonitor"}
        assert set(skipped) == gated

    def test_tracker_runs_again_after_a_move_or_a_config_change(self):
        sim = Simulation(_room_with_moves_and_switches())
        runs = []
        real = sim.controller._run_app

        def record(app):
            if app.name == "RisCodebookTracker":
                runs.append(sim.kernel.clock)
            real(app)

        sim.controller._run_app = record
        sim.run(16_000)
        # Apply the codewords, then find nothing to change; the same after
        # each move under fast-recovery (2 s, 3 s, 9 s, 14 s). The switches
        # back to fast-recovery at 8 s and 12 s come after the tracker's slot,
        # so it runs at the next tick: at 8.1 s it replaces the tuner's
        # configs. At 12.1 s it restores the configs of its 9.1 s run, a state
        # already known to need nothing, so it is skipped at 12.2 s.
        assert runs == [100, 200, 2_000, 2_100, 3_000, 3_100, 8_100, 8_200, 9_000, 9_100, 12_100, 14_000, 14_100]

    def test_tuner_runs_again_after_a_move_under_max_throughput(self):
        log = Simulation(_room_with_moves_and_switches()).run(16_000)
        tuned = sorted({t for t, d in log.actions if d.startswith("ApplyRisConfig by RisIterativeTuner")})
        # At the first tick under max-throughput (the switch at 5 s comes
        # after the tuner's slot), and again when rx1 moves at 6 s.
        assert tuned == [5_100, 6_000]
