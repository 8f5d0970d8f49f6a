"""Scenario schema, validation rules, surge curve, and the events a
disaster schedules."""

import dataclasses
import importlib.util
import json
import os

import pytest

from rrsim import scenario as scenario_mod
from rrsim.cli import bundled_scenario_path
from rrsim.runner import Simulation
from rrsim.scenario import (
    DEFAULT_BATTERY_RESERVE_MS,
    POLICY_MAX_THROUGHPUT,
    DisasterEvent,
    Node,
    NodeKind,
    NodeStatus,
    ParseError,
    Scenario,
    TrafficProfile,
    UeMove,
    UnknownNode,
    ValidationError,
    load_scenario,
    scenario_from_dict,
    traffic_multiplier,
)
from rrsim.simcore import EventKind

MINIMAL = {
    "nodes": [
        {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
        {"id": "bs", "kind": "TerrestrialBS", "position": [100, 0, 25]},
        {"id": "ue", "kind": "UE", "position": [50, 10, 1.5]},
    ]
}


def minimal(**overrides):
    data = dict(MINIMAL)
    data.update(overrides)
    return scenario_from_dict(json.loads(json.dumps(data)))


class TestParsing:
    def test_minimal_scenario(self):
        s = minimal()
        assert [n.node_id for n in s.nodes] == ["gw", "bs", "ue"]
        assert s.battery_reserve_ms == DEFAULT_BATTERY_RESERVE_MS

    def test_missing_nodes_key(self):
        with pytest.raises(ParseError):
            scenario_from_dict({})

    def test_unknown_kind(self):
        with pytest.raises(ParseError):
            minimal(nodes=[{"id": "x", "kind": "Submarine", "position": [0, 0, 0]}])

    def test_bad_position(self):
        with pytest.raises(ParseError):
            minimal(nodes=[{"id": "x", "kind": "Gateway", "position": [0, 0]}])
        with pytest.raises(ParseError):
            minimal(nodes=[{"id": "x", "kind": "Gateway", "position": 5}])

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_scenario(str(path))

    def test_load_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/scenario.json")


class TestDefaults:
    def test_empty_sections_take_the_documented_defaults(self):
        panel = {"id": "p", "kind": "RisPanel", "position": [10, 0, 2], "ris": {}}
        s = minimal(
            nodes=MINIMAL["nodes"] + [panel], planner={}, ric={}, cfmimo={}, channel={}, traffic={}, ticks={}
        )
        p = s.planner
        assert (p.snr_threshold_db, p.max_nodes, p.uav_altitude_m, p.uav_tx_power_dbm) == (3.0, 3, 120.0, 35.0)
        assert (p.uav_freq_ghz, p.candidate_spacing_m, p.backhaul_threshold_db) == (3.5, 500.0, 10.0)
        assert (p.candidate_bounds, p.relay_sites) == (None, ())
        layout = s.nodes[-1].ris
        assert (layout.rows, layout.cols, layout.pitch_m, layout.normal_axis, layout.parts) == (4, 19, 0.04, 1, 1)
        assert s.cfmimo.L == 2
        assert s.ric.policy == POLICY_MAX_THROUGHPUT == "max-throughput"
        assert (s.ric.ris, s.ric.script, s.ric.ue_moves, s.ric.disabled_apps) == ({}, (), (), ())
        bare = {key: value for key, value in panel.items() if key != "ris"}
        assert s.nodes[-1] == minimal(nodes=MINIMAL["nodes"] + [bare]).nodes[-1]

    def test_a_missing_section_is_its_empty_object(self):
        assert minimal() == minimal(planner={}, ric={}, cfmimo={}, channel={}, traffic={}, ticks={})


def _objects(value, path=()):
    """Every JSON object in value with its path, outermost first."""
    if isinstance(value, dict):
        yield path, value
        for key, item in value.items():
            yield from _objects(item, (*path, key))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from _objects(item, (*path, i))


def _where(path):
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:] or "scenario"


class TestUnknownKeys:
    @pytest.mark.parametrize("name", ["earthquake_demo.json", "two_ue_demo.json", "indoor_ris_demo.json"])
    def test_a_bogus_key_in_any_object_names_that_object(self, name):
        """In an object of fields the key is unknown; in an object keyed by
        RIS panel or part id, its value is not an object."""
        with open(bundled_scenario_path(name)) as fh:
            text = fh.read()
        paths = [path for path, _ in _objects(json.loads(text))]
        assert len(paths) >= 5
        for path in paths:
            data = json.loads(text)
            target = data
            for key in path:
                target = target[key]
            target["bogus"] = 1
            with pytest.raises(ParseError) as info:
                scenario_from_dict(data)
            where = _where(path)
            assert str(info.value).startswith((f"{where}: unknown key 'bogus' (choose from ", f"{where}.bogus: ")), path


class TestValidation:
    def test_duplicate_ids(self):
        nodes = MINIMAL["nodes"] + [{"id": "bs", "kind": "TerrestrialBS", "position": [1, 1, 1]}]
        with pytest.raises(ValidationError):
            minimal(nodes=nodes)

    def test_mcs_table_must_be_sorted(self):
        with pytest.raises(ValidationError, match="sorted by min SNR"):
            minimal(channel={"mcs_table": [[5.0, 2.0], [0.0, 1.0]]})

    def test_ris_tx_must_name_a_node(self):
        nodes = MINIMAL["nodes"] + [{"id": "p", "kind": "RisPanel", "position": [10, 0, 2]}]
        ric = {"ris": {"p": {"tx": "nope", "parts": {"0": {"ue": "ue"}}}}}
        with pytest.raises(UnknownNode, match="RIS panel p tx references unknown node 'nope'"):
            minimal(nodes=nodes, ric=ric)
        with pytest.raises(ParseError, match="^ric.ris.p: expected an object, got 'bs'$"):
            minimal(nodes=nodes, ric={"ris": {"p": "bs"}})
        minimal(nodes=nodes, ric={"ris": {"p": {"tx": "bs", "parts": {"0": {"ue": "ue"}}}}})

    def test_gateway_required(self):
        with pytest.raises(ValidationError):
            minimal(nodes=[{"id": "bs", "kind": "TerrestrialBS", "position": [0, 0, 25]}])

    def test_uav_needs_altitude(self):
        nodes = MINIMAL["nodes"] + [{"id": "u", "kind": "UAV", "position": [0, 0, 0]}]
        with pytest.raises(ValidationError):
            minimal(nodes=nodes)

    def test_on_battery_needs_reserve(self):
        with pytest.raises(ValidationError):
            Node("b", NodeKind.TERRESTRIAL_BS, (0, 0, 25), status="OnBattery")

    def test_disaster_unknown_node(self):
        with pytest.raises(UnknownNode):
            minimal(disasters=[{"time_ms": 10, "fail": ["ghost"]}])

    def test_fail_and_power_loss_disjoint(self):
        with pytest.raises(ValidationError):
            minimal(disasters=[{"time_ms": 10, "fail": ["bs"], "power_loss": ["bs"]}])

    def test_surge_knots_must_be_sorted(self):
        with pytest.raises(ValidationError):
            minimal(traffic={"data_surge": [[100, 2.0], [50, 1.0]]})

    def test_max_nodes_must_not_be_negative(self):
        with pytest.raises(ValidationError, match=r"^planner.max_nodes: expected an integer >= 0, got -2$"):
            minimal(planner={"max_nodes": -2})
        assert minimal(planner={"max_nodes": 0}).planner.max_nodes == 0


class TestTrafficSurge:
    PROFILE = TrafficProfile(
        data_surge=((0, 1.0), (100, 3.0), (200, 3.0), (300, 0.5)),
        voice_surge=((0, 1.0), (100, 90.0)),
    )

    def test_pre_strike_is_unity(self):
        assert traffic_multiplier(self.PROFILE, "data", -1.0) == 1.0

    def test_linear_interpolation(self):
        # halfway up the ramp: 1.0 + 0.5 * (3.0 - 1.0) = 2.0
        assert traffic_multiplier(self.PROFILE, "data", 50.0) == pytest.approx(2.0)
        assert traffic_multiplier(self.PROFILE, "data", 250.0) == pytest.approx(1.75)

    def test_knots_hit_exactly(self):
        assert traffic_multiplier(self.PROFILE, "data", 100.0) == pytest.approx(3.0)
        assert traffic_multiplier(self.PROFILE, "data", 200.0) == pytest.approx(3.0)

    def test_clamps_after_last_knot(self):
        assert traffic_multiplier(self.PROFILE, "data", 10_000.0) == pytest.approx(0.5)
        assert traffic_multiplier(self.PROFILE, "voice", 10_000.0) == pytest.approx(90.0)

    def test_unknown_class(self):
        with pytest.raises(ValueError):
            traffic_multiplier(self.PROFILE, "video", 0.0)

    def test_default_surge_peaks(self):
        profile = TrafficProfile()
        assert traffic_multiplier(profile, "data", 1_800_000) == pytest.approx(2.6)
        assert traffic_multiplier(profile, "voice", 1_800_000) == pytest.approx(91.5)
        # plateau holds through the ninth hour
        assert traffic_multiplier(profile, "voice", 9_000_000) == pytest.approx(91.5)


class TestDisasterExpansion:
    def test_strike_plus_battery_expiries(self):
        """A Simulation queues each strike; the strike queues one expiry per
        node it puts on battery, at strike + reserve, on consecutive sequence
        ids."""
        nodes = MINIMAL["nodes"] + [{"id": "bs2", "kind": "TerrestrialBS", "position": [200, 0, 25]}]
        box = [[40, 0, 0], [45, 20, 30]]
        sim = Simulation(minimal(nodes=nodes, disasters=[
            {"time_ms": 5000, "fail": ["bs"], "power_loss": ["gw", "bs2"], "blockages": [box]},
        ]), apps=[])

        def queued():
            return [e for _, _, e in sorted(sim.kernel._queue)
                    if e.kind in (EventKind.DISASTER_STRIKE, EventKind.BATTERY_EXPIRY)]

        [strike] = queued()
        assert (strike.fire_time, strike.kind) == (5000, EventKind.DISASTER_STRIKE)
        assert strike.payload == {"disaster": sim.scenario.disasters[0]}

        sim.run(5000)
        expiry = 5000 + DEFAULT_BATTERY_RESERVE_MS
        expiries = queued()
        assert [(e.fire_time, e.kind) for e in expiries] == [(expiry, EventKind.BATTERY_EXPIRY)] * 2
        assert [e.payload for e in expiries] == [{"node_id": "gw"}, {"node_id": "bs2"}]
        seqs = [e.sequence_id for e in expiries]
        assert seqs == list(range(seqs[0], seqs[0] + 2))
        status = {nid: n.status for nid, n in sim.world.nodes.items()}
        assert (status["bs"], status["gw"], status["bs2"]) == (
            NodeStatus.FAILED, NodeStatus.ON_BATTERY, NodeStatus.ON_BATTERY
        )
        assert sim.world.nodes["gw"].battery_ms == sim.world.nodes["bs2"].battery_ms == expiry
        assert sim.world.obstacles == [((40.0, 0.0, 0.0), (45.0, 20.0, 30.0))]
        assert sim.kernel.log.actions == [(5000, "DisasterStrike: 1 failed, 2 on battery, 1 new blockages")]
        sim.run(expiry)
        assert sim.world.nodes["gw"].status == sim.world.nodes["bs2"].status == NodeStatus.FAILED
        assert sim.kernel.log.actions[1:] == [(expiry, "BatteryExpiry: gw failed"), (expiry, "BatteryExpiry: bs2 failed")]

    def test_expansion_checks_node_ids(self):
        """The node ids of a disaster are checked where the Scenario is
        built, also in Python or by dataclasses.replace."""
        s = minimal()
        with pytest.raises(UnknownNode, match="unknown node ghost"):
            dataclasses.replace(s, disasters=(DisasterEvent(0, failed=("ghost",)),))
        with pytest.raises(UnknownNode, match="unknown node ghost"):
            Scenario(s.nodes, disasters=(DisasterEvent(0, power_loss=("ghost",)),))


def with_layout(s, **changes):
    """s with each RIS panel's layout changed."""
    nodes = tuple(
        dataclasses.replace(n, ris=dataclasses.replace(n.ris, **changes)) if n.ris else n for n in s.nodes
    )
    return dataclasses.replace(s, nodes=nodes)


class TestCheckedOnce:
    def test_a_scenario_built_in_python_is_checked(self):
        s = minimal()
        with pytest.raises(ValidationError, match=r"duplicates \['bs'\]"):
            dataclasses.replace(s, nodes=s.nodes + (s.nodes[1],))
        with pytest.raises(ValidationError, match=r"duplicates \['gw'\]"):
            Scenario(s.nodes + (s.nodes[0],))
        with pytest.raises(ValidationError, match="failure and power-loss"):
            DisasterEvent(0, failed=("bs",), power_loss=("bs",))
        with pytest.raises(ValidationError, match="surge knots"):
            TrafficProfile(data_surge=((100, 2.0), (50, 1.0)))

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda s: dataclasses.replace(s, seed=-1), "seed: expected an integer >= 0, got -1"),
            (lambda s: dataclasses.replace(s, non_rt_tick_ms=10),
             "ticks.non_rt_ms: expected an integer >= 1000, got 10"),
            (lambda s: dataclasses.replace(s, near_rt_tick_ms=5_000),
             "ticks.near_rt_ms: expected an integer in [10, 1000], got 5000"),
            (lambda s: dataclasses.replace(s, sample_interval_ms=0),
             "ticks.sample_ms: expected an integer >= 1, got 0"),
            (lambda s: dataclasses.replace(s, battery_reserve_ms=0),
             "battery_reserve_ms: expected an integer >= 1, got 0"),
            (lambda s: dataclasses.replace(s, disasters=(DisasterEvent(-5),)),
             "disasters[0].time_ms: expected an integer >= 0, got -5"),
            (lambda s: dataclasses.replace(
                s, ric=dataclasses.replace(s.ric, ue_moves=(UeMove(-1, "rx1", (0.0, 1.7, 1.0)),))),
             "ric.ue_moves[0].time_ms: expected an integer >= 0, got -1"),
            (lambda s: dataclasses.replace(s, planner=dataclasses.replace(s.planner, uav_altitude_m=0)),
             "planner.uav_altitude_m: expected a finite number > 0, got 0"),
            (lambda s: dataclasses.replace(s, planner=dataclasses.replace(s.planner, max_nodes=-2)),
             "planner.max_nodes: expected an integer >= 0, got -2"),
            (lambda s: dataclasses.replace(s, planner=dataclasses.replace(s.planner, uav_freq_ghz=0)),
             "planner.uav_freq_ghz: expected a finite number > 0, got 0"),
            (lambda s: dataclasses.replace(s, planner=dataclasses.replace(s.planner, candidate_spacing_m=-500)),
             "planner.candidate_spacing_m: expected a finite number > 0, got -500"),
            (lambda s: dataclasses.replace(s, cfmimo=dataclasses.replace(s.cfmimo, L=0)),
             "cfmimo.L: expected an integer >= 1, got 0"),
            (lambda s: with_layout(s, rows=0), "nodes[2].ris.rows: expected an integer >= 1, got 0"),
            (lambda s: with_layout(s, cols=-4), "nodes[2].ris.cols: expected an integer >= 1, got -4"),
            (lambda s: with_layout(s, pitch_m=0), "nodes[2].ris.pitch_m: expected a finite number > 0, got 0"),
            (lambda s: with_layout(s, normal_axis=3),
             "nodes[2].ris.normal_axis: expected an integer in [0, 2], got 3"),
            (lambda s: with_layout(s, parts=3), "nodes[2].ris.parts: expected the integer 1 or 2, got 3"),
        ],
        ids=["seed", "non_rt_ms", "near_rt_ms", "sample_ms", "battery_reserve_ms", "strike_time",
             "move_time", "uav_altitude_m", "max_nodes", "uav_freq_ghz", "candidate_spacing_m", "L",
             "ris_rows", "ris_cols", "ris_pitch_m", "ris_normal_axis", "ris_parts"],
    )
    def test_range_rules_hold_for_a_scenario_built_in_python(self, edit, message):
        """The range rules are the types' own, with the message a scenario
        file gets, so `dataclasses.replace` cannot skip them."""
        s = load_scenario(bundled_scenario_path("two_ue_demo.json"))
        with pytest.raises(ValidationError) as err:
            edit(s)
        assert str(err.value) == message

    def test_load_checks_once_and_the_simulation_not_again(self, monkeypatch):
        calls = []
        check = Scenario.__post_init__

        def counted(self):
            calls.append(self)
            check(self)

        monkeypatch.setattr(scenario_mod.Scenario, "__post_init__", counted)
        s = load_scenario(bundled_scenario_path("two_ue_demo.json"))
        assert len(calls) == 1
        Simulation(s).run(5000)
        assert len(calls) == 1


class TestRoundTrip:
    def test_mcs_table_round_trips(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps(dict(MINIMAL, channel={"mcs_table": [[0.0, 1.0], [10.0, 5.0]]})))
        assert load_scenario(str(path)).channel.mcs_table == ((0.0, 1.0), (10.0, 5.0))


class TestBundledScenarios:
    def test_all_bundled_files_validate(self):
        """Loading is the check: each file loads, and a copy rebuilt field
        by field passes the same checks."""
        for name in ("earthquake_demo.json", "two_ue_demo.json", "indoor_ris_demo.json"):
            s = load_scenario(bundled_scenario_path(name))
            assert dataclasses.replace(s) == s, name

    def test_generator_reproduces_the_bundled_files(self):
        path = os.path.join(os.path.dirname(__file__), "..", "tools", "make_scenarios.py")
        spec = importlib.util.spec_from_file_location("make_scenarios", path)
        tool = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(tool)
        assert len(tool.BUILDERS) == 3
        for name, builder in tool.BUILDERS.items():
            with open(bundled_scenario_path(name)) as fh:
                assert tool.render(builder) == fh.read(), name

    def test_earthquake_inventory(self, earthquake_scenario):
        s = earthquake_scenario
        assert sum(n.kind == NodeKind.TERRESTRIAL_BS for n in s.nodes) == 25
        assert sum(n.kind == NodeKind.UE for n in s.nodes) == 200
        assert len(s.disasters) == 1
        assert len(s.disasters[0].failed) == 10
        assert len(s.disasters[0].power_loss) == 8
