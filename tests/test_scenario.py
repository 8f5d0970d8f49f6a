"""Scenario schema, validation rules, surge curve and disaster expansion."""

import json

import pytest

from rrsim.scenario import (
    DEFAULT_BATTERY_RESERVE_MS,
    DisasterEvent,
    Node,
    NodeKind,
    ParseError,
    Scenario,
    TrafficProfile,
    UnknownNode,
    ValidationError,
    inject_disaster,
    load_scenario,
    save_scenario,
    scenario_from_dict,
    traffic_multiplier,
    with_seed,
)

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

    def test_load_rejects_bad_json(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text("{nope")
        with pytest.raises(ParseError):
            load_scenario(str(path))

    def test_load_missing_file(self):
        with pytest.raises(ParseError):
            load_scenario("/nonexistent/scenario.json")


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
        with pytest.raises(ValidationError, match="entry must be an object"):
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
        node = Node("b", NodeKind.TERRESTRIAL_BS, (0, 0, 25), status="OnBattery")
        with pytest.raises(ValidationError):
            node.validate()

    def test_disaster_unknown_node(self):
        with pytest.raises(UnknownNode):
            minimal(disasters=[{"time_ms": 10, "fail": ["ghost"]}])

    def test_fail_and_power_loss_disjoint(self):
        with pytest.raises(ValidationError):
            minimal(disasters=[{"time_ms": 10, "fail": ["bs"], "power_loss": ["bs"]}])

    def test_surge_knots_must_be_sorted(self):
        with pytest.raises(ValidationError):
            minimal(traffic={"data_surge": [[100, 2.0], [50, 1.0]]})


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
        s = minimal(disasters=[{"time_ms": 5000, "fail": ["bs"], "power_loss": []}])
        event = DisasterEvent(5000, failed=("bs",), power_loss=("gw",))
        specs = inject_disaster(s, event)
        assert specs[0] == (
            5000,
            "DisasterStrike",
            {"failed": ["bs"], "power_loss": ["gw"], "blockages": []},
        )
        assert specs[1] == (
            5000 + DEFAULT_BATTERY_RESERVE_MS,
            "BatteryExpiry",
            {"node_id": "gw"},
        )

    def test_expansion_checks_node_ids(self):
        s = minimal()
        with pytest.raises(UnknownNode):
            inject_disaster(s, DisasterEvent(0, failed=("ghost",)))


class TestRoundTrip:
    def test_save_load_identity(self, tmp_path, earthquake_scenario):
        path = tmp_path / "rt.json"
        save_scenario(earthquake_scenario, str(path))
        again = load_scenario(str(path))
        assert again == earthquake_scenario

    def test_with_seed(self):
        s = minimal()
        assert with_seed(s, 99).seed == 99
        assert s.seed == 0

    def test_mcs_table_round_trips(self, tmp_path):
        s = minimal(channel={"mcs_table": [[0.0, 1.0], [10.0, 5.0]]})
        path = tmp_path / "m.json"
        save_scenario(s, str(path))
        assert load_scenario(str(path)).channel.mcs_table == ((0.0, 1.0), (10.0, 5.0))


class TestBundledScenarios:
    def test_all_bundled_files_validate(self, indoor_scenario, two_ue_scenario, earthquake_scenario):
        for s in (indoor_scenario, two_ue_scenario, earthquake_scenario):
            s.validate()

    def test_earthquake_inventory(self, earthquake_scenario):
        s = earthquake_scenario
        assert len(s.nodes_of_kind(NodeKind.TERRESTRIAL_BS)) == 25
        assert len(s.nodes_of_kind(NodeKind.UE)) == 200
        assert len(s.disasters) == 1
        assert len(s.disasters[0].failed) == 10
        assert len(s.disasters[0].power_loss) == 8
