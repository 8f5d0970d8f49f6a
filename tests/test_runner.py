"""End-to-end simulation wiring: event flow, measurement, determinism."""

import copy
import dataclasses
import json
import pickle

import pytest

from rrsim.cli import bundled_scenario_path
from rrsim.runner import Simulation, summarize_run
from rrsim.scenario import NodeStatus, scenario_from_dict
from rrsim.simcore import NOT_RECOVERED, EventKind, rng_stream

SMALL = {
    "seed": 3,
    "ticks": {"non_rt_ms": 60_000, "near_rt_ms": 1_000, "sample_ms": 5_000},
    "nodes": [
        {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
        {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 43},
        {"id": "bs2", "kind": "TerrestrialBS", "position": [2000, 0, 25], "tx_power_dbm": 43},
        {"id": "ue1", "kind": "UE", "position": [50, 10, 1.5]},
        {"id": "ue2", "kind": "UE", "position": [1950, 10, 1.5]},
    ],
    "channel": {"exponent": 3.0},
    "disasters": [{"time_ms": 30_000, "fail": ["bs2"]}],
}


def small_scenario(**overrides):
    data = dict(SMALL)
    data.update(overrides)
    return scenario_from_dict(data)


class TestEventFlow:
    def test_strike_reflected_in_samples(self):
        sim = Simulation(small_scenario())
        base = sim.baseline_coverage()
        log = sim.run(60_000)
        cov = {s.time_ms: s.coverage_ratio for s in log.samples}
        assert base == 1.0
        assert cov[25_000] == 1.0
        assert cov[30_000] == 0.5  # ue2 lost its only server at the strike

    def test_battery_expiry_exact_time(self):
        scenario = small_scenario(
            disasters=[{"time_ms": 30_000, "fail": [], "power_loss": ["bs2"]}],
            battery_reserve_ms=40_000,
        )
        sim = Simulation(scenario)
        log = sim.run(120_000)
        expiries = [t for t, d in log.actions if d.startswith("BatteryExpiry")]
        assert expiries == [70_000]
        cov = {s.time_ms: s.coverage_ratio for s in log.samples}
        assert cov[65_000] == 1.0 and cov[70_000] == 0.5

    def test_node_loaded_on_battery_fails_when_it_runs_out(self):
        """A node that the scenario puts on battery fails battery_ms after the
        start, like one that a strike puts there."""
        nodes = [dict(n) for n in SMALL["nodes"]]
        nodes[2].update(status="OnBattery", battery_ms=12_000)
        sim = Simulation(small_scenario(nodes=nodes, disasters=[]))
        log = sim.run(20_000)
        assert [(t, d) for t, d in log.actions if d.startswith("BatteryExpiry")] == [(12_000, "BatteryExpiry: bs2 failed")]
        assert sim.world.nodes["bs2"].status == NodeStatus.FAILED
        cov = {s.time_ms: s.coverage_ratio for s in log.samples}
        assert cov[10_000] == 1.0 and cov[15_000] == 0.5

    @staticmethod
    def two_ue_demo(disasters, battery_reserve_ms, tx1=None):
        with open(bundled_scenario_path("two_ue_demo.json")) as fh:
            data = json.load(fh)
        data.update(disasters=disasters, battery_reserve_ms=battery_reserve_ms)
        data["nodes"][1].update(tx1 or {})
        return Simulation(scenario_from_dict(data))

    def test_power_loss_leaves_a_failed_node_failed(self):
        sim = self.two_ue_demo([
            {"time_ms": 1_000, "fail": ["tx1"]},
            {"time_ms": 4_000, "power_loss": ["tx1"]},
        ], battery_reserve_ms=5_000)
        sim.run(4_000)
        assert sim.world.nodes["tx1"].status == NodeStatus.FAILED
        log = sim.run(10_000)
        assert not [d for _, d in log.actions if d.startswith("BatteryExpiry")]
        assert sim.world.nodes["tx1"].status == NodeStatus.FAILED
        # The strike puts no node on battery, so no expiry is scheduled.
        assert sim.kernel.dispatched[EventKind.BATTERY_EXPIRY] == 0

    def test_power_loss_puts_the_battery_deadline_on_the_node(self):
        """A strike stores when the charge runs out, as a node loaded on
        battery has it, and the node fails then."""
        sim = self.two_ue_demo([{"time_ms": 4_000, "power_loss": ["tx1"]}], battery_reserve_ms=5_000)
        sim.run(4_000)
        assert sim.world.nodes["tx1"].status == NodeStatus.ON_BATTERY
        assert sim.world.nodes["tx1"].battery_ms == 9_000
        log = sim.run(10_000)
        assert [(t, d) for t, d in log.actions if d.startswith("BatteryExpiry")] == [(9_000, "BatteryExpiry: tx1 failed")]
        assert sim.kernel.dispatched[EventKind.BATTERY_EXPIRY] == 1

    def test_power_loss_leaves_a_node_on_battery_draining(self):
        sim = self.two_ue_demo(
            [{"time_ms": 4_000, "power_loss": ["tx1"]}],
            battery_reserve_ms=100_000,
            tx1={"status": "OnBattery", "battery_ms": 5_000},
        )
        sim.run(4_000)
        assert sim.world.nodes["tx1"].battery_ms == 5_000
        log = sim.run(10_000)
        assert [(t, d) for t, d in log.actions if d.startswith("BatteryExpiry")] == [(5_000, "BatteryExpiry: tx1 failed")]
        assert sim.world.nodes["tx1"].status == NodeStatus.FAILED

    def test_ue_move_changes_measurement(self):
        scenario = small_scenario(
            disasters=[],
            ric={"ue_moves": [{"time_ms": 10_000, "node_id": "ue2", "position": [60, 10, 1.5]}]},
        )
        sim = Simulation(scenario)
        sim.run(20_000)
        assert sim.world.nodes["ue2"].position == (60, 10, 1.5)

    def test_ue_move_event_moves_the_live_node(self):
        """The simulation handles a UE move: the live node moves, and the
        world's version moves with it."""
        sim = Simulation(small_scenario(disasters=[]))
        version = sim.world.version
        assert sim.world.nodes["ue1"].position == (50, 10, 1.5)
        sim.kernel.schedule(10, EventKind.UE_MOVE, {"node_id": "ue1", "position": [300, 0, 1.5]})
        sim.run(10)
        assert sim.world.nodes["ue1"].position == (300, 0, 1.5)
        assert sim.world.version == version + 1

    def test_sample_cadence(self):
        sim = Simulation(small_scenario())
        log = sim.run(20_000)
        assert [s.time_ms for s in log.samples] == [0, 5_000, 10_000, 15_000, 20_000]


class TestMeasurement:
    def test_throughput_capped_by_offered_load(self):
        scenario = small_scenario(disasters=[], traffic={"data_mbps": 1.0, "voice_mbps": 0.5})
        sim = Simulation(scenario)
        sample = sim.measure(0)
        assert sample.throughput_mbps["ue1"] == pytest.approx(1.5)

    def test_surge_raises_offered_load(self):
        scenario = small_scenario(traffic={"data_mbps": 1.0, "voice_mbps": 0.0})
        sim = Simulation(scenario)
        sim.run(40_000)
        # 10 s into the surge ramp the data multiplier has barely moved,
        # but it must be strictly above the pre-strike value
        assert sim._offered_load_mbps(40_000) > 1.0

    def test_contention_splits_capacity(self):
        scenario = small_scenario(
            disasters=[],
            traffic={"data_mbps": 500.0, "voice_mbps": 0.0},
            nodes=SMALL["nodes"] + [{"id": "ue3", "kind": "UE", "position": [55, -10, 1.5]}],
        )
        sim = Simulation(scenario)
        sample = sim.measure(0)
        # ue1 and ue3 share bs1: each sees half of the MCS capacity
        assert sample.throughput_mbps["ue1"] == sample.throughput_mbps["ue3"]
        assert sample.throughput_mbps["ue1"] == pytest.approx(
            sample.throughput_mbps["ue2"] / 2.0
        )

    def test_fading_is_seeded_and_optional(self):
        # UEs at ~290 m sit between MCS rows, so the Rayleigh draw moves
        # them across rate steps and different seeds yield different samples
        fringe = [
            {"id": f"fu{k}", "kind": "UE", "position": [290, 15 * k, 1.5]}
            for k in range(6)
        ]
        scenario = small_scenario(
            disasters=[],
            channel={"exponent": 3.0, "fading": True},
            nodes=SMALL["nodes"] + fringe,
            # high offered load so delivered rate tracks the faded SNR
            traffic={"data_mbps": 500.0, "voice_mbps": 0.0},
        )
        a = Simulation(scenario, seed=5).measure(0)
        b = Simulation(scenario, seed=5).measure(0)
        c = Simulation(scenario, seed=6).measure(0)
        assert a.throughput_mbps == b.throughput_mbps
        assert a.throughput_mbps != c.throughput_mbps
        # baseline coverage ignores fading by contract
        assert Simulation(scenario, seed=5).baseline_coverage() == 1.0

    @pytest.mark.parametrize("fading", [False, True])
    def test_no_ues_is_full_coverage(self, fading):
        nodes = [n for n in SMALL["nodes"] if n["kind"] != "UE"]
        sim = Simulation(small_scenario(nodes=nodes, channel={"fading": fading}))
        log = sim.run(60_000)
        assert sim.baseline_coverage() == 1.0
        assert len(log.samples) == 13
        for sample in log.samples:
            assert sample.coverage_ratio == 1.0
            assert dict(sample.throughput_mbps) == {}


def one_part_room(**overrides):
    """The two-UE demo room with only rx1 on a panel part and an offered load
    above every MCS rate, so a codeword that lifts rx1 onto the panel gives
    it the panel alone and changes both UEs' rates."""
    with open(bundled_scenario_path("two_ue_demo.json")) as fh:
        data = json.load(fh)
    del data["ric"]["ris"]["ris1"]["parts"]["1"]
    data["traffic"] = {"data_mbps": 1000.0, "voice_mbps": 0.0}
    data.update(overrides)
    return scenario_from_dict(data)


class TestMeasurementCache:
    def test_panel_config_change_at_the_same_version_is_measured(self):
        sim = Simulation(one_part_room())
        before = sim.measure(0, apply_fading=False)
        version = sim.world.version
        lift = sim.controller.codebooks[("ris1", 0)].codewords[0]
        sim.world.configure_ris("ris1", 0, lift)  # no version bump
        after = sim.measure(100, apply_fading=False)
        assert sim.world.version == version
        fresh = Simulation(one_part_room())
        fresh.world.configure_ris("ris1", 0, lift)
        assert after.throughput_mbps == fresh.measure(0, apply_fading=False).throughput_mbps
        assert after.throughput_mbps["rx1"] > before.throughput_mbps["rx1"]
        assert after.throughput_mbps is not before.throughput_mbps

    def test_unchanged_samples_share_one_read_only_table(self):
        sim = Simulation(one_part_room())
        first = sim.measure(0, apply_fading=False).throughput_mbps
        assert sim.measure(100, apply_fading=False).throughput_mbps is first
        assert sim.measure(200, apply_fading=False).throughput_mbps is first
        with pytest.raises(TypeError):
            first["rx1"] = 0.0
        with pytest.raises(TypeError):
            first.update(rx1=0.0)
        assert first == {"rx1": 12.0, "rx2": 12.0}
        # Still a dict to copying, pickling and dataclasses.asdict.
        assert copy.deepcopy(first) == pickle.loads(pickle.dumps(first)) == first
        assert dataclasses.asdict(sim.measure(300, apply_fading=False))["throughput_mbps"] == first

    def test_changed_rates_get_a_new_table(self):
        sim = Simulation(one_part_room())
        first = sim.measure(0, apply_fading=False).throughput_mbps
        sim.world.move_node("rx2", (60.0, 40.0, 1.0))
        moved = sim.measure(100, apply_fading=False).throughput_mbps
        assert moved is not first and moved != first
        assert sim.measure(200, apply_fading=False).throughput_mbps is moved

    def test_fading_draws_a_pair_per_ue_on_every_sample(self):
        channel = {"exponent": 2.2, "d0_m": 1.0, "blockage_penalty_db": 22.0, "fading": True}
        sim = Simulation(one_part_room(channel=channel))
        for k in range(5):
            sim.measure(100 * k)
        expected = rng_stream(sim.seed, "channel.fading")
        for _ in range(5):
            expected.standard_normal(2)
            expected.standard_normal(2)
        assert sim.kernel.rng("channel.fading").bit_generator.state == expected.bit_generator.state


class TestDeterminism:
    def test_identical_runs_identical_logs(self):
        s = small_scenario()
        log_a = Simulation(s).run(60_000)
        log_b = Simulation(s).run(60_000)
        assert [dataclasses.asdict(x) for x in log_a.samples] == [
            dataclasses.asdict(x) for x in log_b.samples
        ]
        assert log_a.actions == log_b.actions

    def test_disabled_apps_respected(self):
        s = small_scenario()
        sim = Simulation(s, disabled_apps={"CfClusterer"})
        log = sim.run(60_000)
        assert not any("Recluster" in d for _, d in log.actions)


class TestSummaries:
    def test_summarize_run(self):
        sim = Simulation(small_scenario())
        log = sim.run(60_000)
        summary = summarize_run(sim, log, NOT_RECOVERED)
        assert summary["recovery_time_ms"] == "not_recovered"
        assert summary["n_samples"] == len(log.samples)
        assert summary["seed"] == 3
