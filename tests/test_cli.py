"""CLI surface: argument validation, emitted artifacts and exit codes."""

import csv
import datetime
import json
import logging
import os
import re
import stat

import pytest

from rrsim.cli import bundled_scenario_path, main
from rrsim.runner import Simulation
from rrsim.scenario import load_scenario

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


def write_scenario(tmp_path, data, name="scenario.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def setting_id(keys, value):
    """A test id from a key path and a value, e.g. `ticks.sample_ms=0`."""
    path = "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in keys)[1:]
    return f"{path}={json.dumps(value, separators=(',', ':'))}"


class TestValidation:
    def test_missing_scenario_file(self, tmp_path, capsys):
        rc = main(["run", "--scenario", str(tmp_path / "nope.json"), "--until", "1000"])
        assert rc == 2
        assert "scenario error" in capsys.readouterr().err

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        rc = main(["run", "--scenario", str(path), "--until", "1000"])
        assert rc == 2

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--until", "1000", "--out", "{tmp}/out"],
            ["plan", "--out", "{tmp}/plan.json"],
            ["codebook", "build", "--panel", "p1", "--out", "{tmp}/codebook.json"],
        ],
    )
    def test_unsorted_mcs_table(self, tmp_path, capsys, command):
        scenario = write_scenario(tmp_path, dict(SMALL, channel={"mcs_table": [[5.0, 2.0], [0.0, 1.0]]}))
        rc = main([arg.format(tmp=tmp_path) for arg in command] + ["--scenario", scenario])
        assert rc == 2
        assert "MCS table must be sorted" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "command",
        [
            ["run", "--until", "1000", "--out", "{tmp}/out"],
            ["plan", "--out", "{tmp}/plan.json"],
            ["codebook", "build", "--panel", "ris1", "--out", "{tmp}/codebook.json"],
        ],
    )
    def test_unknown_ris_tx(self, tmp_path, capsys, command):
        with open(bundled_scenario_path("two_ue_demo.json")) as fh:
            data = json.load(fh)
        data["ric"]["ris"]["ris1"]["tx"] = "nope"
        scenario = write_scenario(tmp_path, data)
        rc = main([arg.format(tmp=tmp_path) for arg in command] + ["--scenario", scenario])
        assert rc == 2
        assert "unknown node 'nope'" in capsys.readouterr().err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize("fraction", ["2", "0", "-0.5", "nan"])
    @pytest.mark.parametrize("disasters", [SMALL["disasters"], []], ids=["strike", "no_strike"])
    def test_target_fraction_out_of_range(self, tmp_path, capsys, fraction, disasters):
        scenario = write_scenario(tmp_path, dict(SMALL, disasters=disasters))
        rc = main(
            ["run", "--scenario", scenario, "--until", "60000", "--out", str(tmp_path / "out"),
             "--target-fraction", fraction]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "--target-fraction must be in (0, 1]" in err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "traffic",
        [
            {"data_mbps": -5},
            {"voice_mbps": -0.5},
            {"data_mbps": float("nan")},
            {"voice_mbps": float("inf")},
            {"data_surge": [[0, 1.0], [1_000, float("nan")]]},
            {"voice_surge": [[0, float("inf")]]},
        ],
        ids=["negative_data", "negative_voice", "nan_data", "inf_voice", "nan_surge", "inf_surge"],
    )
    def test_bad_traffic_load(self, tmp_path, capsys, traffic):
        with open(bundled_scenario_path("earthquake_demo.json")) as fh:
            data = json.load(fh)
        data["traffic"] = {**data.get("traffic", {}), **traffic}
        scenario = write_scenario(tmp_path, data)
        rc = main(["run", "--scenario", scenario, "--until", "10000", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("scenario error: ") and "finite and non-negative" in err
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "field, keys, value",
        [
            ("traffic.data_surge[0][0]", ("traffic", "data_surge"), [[float("nan"), 1.0]]),
            ("traffic.data_mbps", ("traffic", "data_mbps"), "abc"),
            ("nodes[1].tx_power_dbm", ("nodes", 1, "tx_power_dbm"), "x"),
            ("disasters[0].time_ms", ("disasters", 0, "time_ms"), "soon"),
            ("nodes[3].position[0]", ("nodes", 3, "position"), ["a", 0, 0]),
            ("nodes[5].ris.rows", ("nodes", 5, "ris", "rows"), "x"),
            ("nodes[5].ris", ("nodes", 5, "ris"), 4),
        ],
        ids=["surge_time", "data_mbps", "tx_power", "strike_time", "position", "ris_rows", "ris_layout"],
    )
    def test_malformed_number(self, tmp_path, capsys, field, keys, value):
        panel = {"id": "ris1", "kind": "RisPanel", "position": [10, 0, 2], "ris": {"rows": 1}}
        data = json.loads(json.dumps(dict(SMALL, traffic={}, nodes=SMALL["nodes"] + [panel])))
        target = data
        for key in keys[:-1]:
            target = target[key]
        target[keys[-1]] = value
        scenario = write_scenario(tmp_path, data)
        rc = main(["run", "--scenario", scenario, "--until", "10000", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and err.startswith(f"scenario error: {field}: expected ")
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "demo, edit, message",
        [
            ("earthquake_demo.json", lambda d: d["disasters"][0].pop("time_ms"),
             "disasters[0].time_ms: missing"),
            ("earthquake_demo.json", lambda d: d["traffic"].update(data_surge=[[0, 1.0, 2.0]]),
             "traffic.data_surge[0]: expected a pair [a, b], got [0, 1.0, 2.0]"),
            ("two_ue_demo.json",
             lambda d: d["ric"].update(ue_moves=[{"time_ms": "soon", "node_id": "rx1", "position": [0, 1.7, 1]}]),
             "ric.ue_moves[0].time_ms: expected an integer >= 0, got 'soon'"),
            ("two_ue_demo.json", lambda d: d.update(obstacles=[[[0, 0, 0], [1, 1, 1], [2, 2, 2]]]),
             "obstacles[0]: expected a pair of corners [lo, hi], got [[0, 0, 0], [1, 1, 1], [2, 2, 2]]"),
            ("earthquake_demo.json", lambda d: d["disasters"][0].update(blockages=[[[0, 0, 0]]]),
             "disasters[0].blockages[0]: expected a pair of corners [lo, hi], got [[0, 0, 0]]"),
            ("two_ue_demo.json", lambda d: d["nodes"][1].update(status="Broken"),
             "nodes[1].status: unknown status 'Broken' "
             "(choose from Operational, Failed, OnBattery, Deploying, Active)"),
            ("two_ue_demo.json", lambda d: d["ric"].update(policy="bogus"),
             "ric.policy: unknown policy 'bogus' (choose from fast-recovery, max-throughput, ris-off)"),
            ("two_ue_demo.json", lambda d: d["ric"].update(script=[{"time_ms": 1_000, "policy": "fast-recovry"}]),
             "ric.script[0].policy: unknown policy 'fast-recovry' "
             "(choose from fast-recovery, max-throughput, ris-off)"),
        ],
        ids=["strike_without_time", "surge_row_of_three", "move_time", "obstacle_of_three_corners",
             "blockage_of_one_corner", "unknown_status", "unknown_policy", "unknown_script_policy"],
    )
    def test_malformed_structure(self, tmp_path, capsys, demo, edit, message):
        with open(bundled_scenario_path(demo)) as fh:
            data = json.load(fh)
        edit(data)
        scenario = write_scenario(tmp_path, data)
        rc = main(["run", "--scenario", scenario, "--until", "5000", "--out", str(tmp_path / "out")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err == f"scenario error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    MOVE = {"time_ms": 1_000, "node_id": "rx1", "position": [0, 1.7, 1]}
    UE_TX = {"ris1": {"tx": "rx2", "parts": {"0": {"ue": "rx1"}}}}  # rx2 serves rx1 through ris1
    BAD_SETTINGS = [
        (("planner", "candidate_spacing_m"), "x", "planner.candidate_spacing_m: expected a finite number > 0, got 'x'"),
        (("planner", "candidate_spacing_m"), 0, "planner.candidate_spacing_m: expected a finite number > 0, got 0"),
        (("planner", "candidate_spacing_m"), -500, "planner.candidate_spacing_m: expected a finite number > 0, got -500"),
        (("planner", "candidate_bounds"), [[1000, 0], [0, 1000]],
         "planner.candidate_bounds: expected lo <= hi, got [[1000, 0], [0, 1000]]"),
        (("planner", "candidate_bounds"), [[0, 0, 0], [1, 1, 1]],
         "planner.candidate_bounds[0]: expected a point [x, y] of finite numbers, got [0, 0, 0]"),
        (("planner", "candidate_bounds"), [[0, 0]],
         "planner.candidate_bounds: expected a pair of corners [lo, hi], got [[0, 0]]"),
        (("planner", "max_nodes"), "three", "planner.max_nodes: expected an integer >= 0, got 'three'"),
        (("planner", "snr_threshold_db"), "high", "planner.snr_threshold_db: expected a finite number, got 'high'"),
        (("planner", "uav_altitude_m"), float("nan"), "planner.uav_altitude_m: expected a finite number > 0, got nan"),
        (("planner", "uav_tx_power_dbm"), float("inf"), "planner.uav_tx_power_dbm: expected a finite number, got inf"),
        (("planner", "backhaul_threshold_db"), None, "planner.backhaul_threshold_db: expected a finite number, got None"),
        (("planner", "uav_freq_ghz"), 0, "planner.uav_freq_ghz: expected a finite number > 0, got 0"),
        (("planner", "relay_sites"), [[0, 0]],
         "planner.relay_sites[0]: expected a point [x, y, z] of finite numbers, got [0, 0]"),
        (("planner", "relay_sites"), 5, "planner.relay_sites: expected a list, got 5"),
        (("cfmimo", "L"), 0, "cfmimo.L: expected an integer >= 1, got 0"),
        (("cfmimo", "L"), "two", "cfmimo.L: expected an integer >= 1, got 'two'"),
        (("obstacles",), [[5, 6]], "obstacles[0][0]: expected a point [x, y, z] of finite numbers, got 5"),
        (("obstacles",), 5, "obstacles: expected a list, got 5"),
        (("obstacles",), [[[0, 0], [1, 1]]],
         "obstacles[0][0]: expected a point [x, y, z] of finite numbers, got [0, 0]"),
        (("obstacles",), [[[0, 0, 0], [1, float("inf"), 1]]],
         "obstacles[0][1][1]: expected a finite number, got inf"),
        (("disasters",), [{"time_ms": 1_000, "blockages": 5}], "disasters[0].blockages: expected a list, got 5"),
        (("nodes", 3, "position"), [0, 0, float("nan")], "nodes[3].position[2]: expected a finite number, got nan"),
        (("nodes", 1, "tx_power_dbm"), float("nan"), "nodes[1].tx_power_dbm: expected a finite number, got nan"),
        (("nodes", 1, "freq_ghz"), float("inf"), "nodes[1].freq_ghz: expected a finite number > 0, got inf"),
        (("nodes", 1, "freq_ghz"), 0, "nodes[1].freq_ghz: expected a finite number > 0, got 0"),
        (("channel", "d0_m"), 0, "channel.d0_m: expected a finite number > 0, got 0"),
        (("channel", "bandwidth_hz"), -1, "channel.bandwidth_hz: expected a finite number > 0, got -1"),
        (("channel", "exponent"), float("nan"), "channel.exponent: expected a finite number, got nan"),
        (("channel", "mcs_table"), [[float("-inf"), 1]],
         "channel.mcs_table[0][0]: expected a finite number, got -inf"),
        (("ric", "ue_moves"), [{**MOVE, "position": ["a", 0, 0]}],
         "ric.ue_moves[0].position[0]: expected a finite number, got 'a'"),
        (("ric", "ue_moves"), [{**MOVE, "position": [0, 1]}],
         "ric.ue_moves[0].position: expected a point [x, y, z] of finite numbers, got [0, 1]"),
        (("ric", "ue_moves"), [{"time_ms": 1_000, "node_id": "rx1"}], "ric.ue_moves[0].position: missing"),
        (("ric", "ue_moves"), [{**MOVE, "node_id": "ghost"}], "ric.ue_moves[0].node_id: unknown node 'ghost'"),
        (("ric", "ue_moves"), [{"time_ms": 1_000, "position": [0, 1.7, 1]}], "ric.ue_moves[0].node_id: missing"),
        (("ric", "script"), [{"policy": "ris-off"}], "ric.script[0].time_ms: missing"),
        (("ric", "script"), [{"time_ms": "soon", "policy": "ris-off"}],
         "ric.script[0].time_ms: expected an integer, got 'soon'"),
        (("ric", "script"), [{"time_ms": 1_000, "ris_off": "no"}],
         "ric.script[0].ris_off: expected true or false, got 'no'"),
        (("ric", "ris", "ris1", "parts"), [{"ue": "rx1"}],
         "ric.ris.ris1.parts: expected an object, got [{'ue': 'rx1'}]"),
        (("ric", "ris", "ris1", "parts", "x"), {"ue": "rx1"},
         "ric.ris.ris1.parts: unknown part 'x' (choose from 0, 1)"),
        (("ric", "ris", "ris1", "parts", "7"), {"ue": "rx1"},
         "ric.ris.ris1.parts: unknown part '7' (choose from 0, 1)"),
        (("ric", "ris", "ris1", "parts", "0", "ue"), "ghost", "ric.ris.ris1.parts.0.ue: unknown node 'ghost'"),
        (("ric", "ris", "ris1", "parts", "1", "reference_points", 2), [0.3, 1.6],
         "ric.ris.ris1.parts.1.reference_points[2]: expected a point [x, y, z] of finite numbers, got [0.3, 1.6]"),
        (("ric", "ris", "ghost"), {"tx": "tx1"}, "ric.ris.ghost: unknown RIS panel 'ghost'"),
        (("channel", "fading"), "no", "channel.fading: expected true or false, got 'no'"),
        (("channel", "fading"), 1, "channel.fading: expected true or false, got 1"),
        (("nodes", 2, "ris", "parts"), "2", "nodes[2].ris.parts: expected the integer 1 or 2, got '2'"),
        (("nodes", 2, "ris", "parts"), 3, "nodes[2].ris.parts: expected the integer 1 or 2, got 3"),
        (("nodes", 2, "ris", "parts"), None, "nodes[2].ris.parts: expected the integer 1 or 2, got None"),
        (("nodes", 2, "ris", "parts"), True, "nodes[2].ris.parts: expected the integer 1 or 2, got True"),
        # Settings that loaded with no message and were ignored or misused.
        (("nodes", 3, "ris"), {"rows": 99, "parts": 2}, "nodes[3].ris: only a RisPanel has a layout, rx1 is a UE"),
        (("nodes", 1, "ris"), {}, "nodes[1].ris: only a RisPanel has a layout, tx1 is a TerrestrialBS"),
        (("ric", "ris", "ris1", "parts", "0", "ue"), "tx1",
         "ric.ris.ris1.parts.0.ue: tx1 is a TerrestrialBS, not a UE"),
        # Shapes that crashed with a TypeError or an AttributeError, or were
        # misread character by character.
        (("ric", "ris", "ris1", "tx"), ["tx1"], "ric.ris.ris1.tx: expected a string, got ['tx1']"),
        (("ric", "ris", "ris1", "parts", "1", "ue"), ["rx2"],
         "ric.ris.ris1.parts.1.ue: expected a string, got ['rx2']"),
        (("ric", "ue_moves"), [MOVE, {**MOVE, "node_id": ["rx1"]}],
         "ric.ue_moves[1].node_id: expected a string, got ['rx1']"),
        (("disasters",), [{"time_ms": 1_000, "fail": 5}], "disasters[0].fail: expected a list, got 5"),
        (("disasters",), [{"time_ms": 1_000, "fail": "tx1"}], "disasters[0].fail: expected a list, got 'tx1'"),
        (("ric", "disabled_apps"), 5, "ric.disabled_apps: expected a list, got 5"),
        (("ric", "disabled_apps"), "CfClusterer", "ric.disabled_apps: expected a list, got 'CfClusterer'"),
        (("ric", "ris"), ["ris1"], "ric.ris: expected an object, got ['ris1']"),
        (("ticks",), 100, "ticks: expected an object, got 100"),
        (("traffic",), 2.0, "traffic: expected an object, got 2.0"),
        (("channel",), "free-space", "channel: expected an object, got 'free-space'"),
        (("nodes",), {"gw1": {"kind": "Gateway"}}, "nodes: expected a list, got {'gw1': {'kind': 'Gateway'}}"),
        # Misspelt keys, which loaded with no message.
        (("disasters",), [{"time_ms": 1_000, "failed": ["tx1"]}],
         "disasters[0]: unknown key 'failed' (choose from time_ms, fail, power_loss, blockages)"),
        (("planner", "max_node"), 1,
         "planner: unknown key 'max_node' (choose from snr_threshold_db, max_nodes, uav_altitude_m, "
         "uav_tx_power_dbm, uav_freq_ghz, candidate_spacing_m, candidate_bounds, backhaul_threshold_db, "
         "relay_sites)"),
        (("ticks", "nonrt_ms"), 60_000, "ticks: unknown key 'nonrt_ms' (choose from non_rt_ms, near_rt_ms, sample_ms)"),
        (("channel", "exponant"), 2.2,
         "channel: unknown key 'exponant' (choose from exponent, d0_m, blockage_penalty_db, noise_figure_db, "
         "bandwidth_hz, mcs_table, scatter_floor_db, fading)"),
    ]
    # The rows above are named by their message up to its first ":", with
    # pytest's 0, 1, ... on repeats, so a row added among them could rename an
    # old test. Every row from here on is named by its key path and value
    # (`setting_id`), which no other row shares.
    NAMED_BY_MESSAGE = [message.split(":")[0] for _, _, message in BAD_SETTINGS]
    BAD_SETTINGS += [
        # Times and tick ranges that crashed in the kernel or the controller.
        (("ticks", "sample_ms"), 0, "ticks.sample_ms: expected an integer >= 1, got 0"),
        (("ticks", "sample_ms"), -5, "ticks.sample_ms: expected an integer >= 1, got -5"),
        (("disasters",), [{"time_ms": -5}], "disasters[0].time_ms: expected an integer >= 0, got -5"),
        (("ric", "ue_moves"), [{**MOVE, "time_ms": -1}], "ric.ue_moves[0].time_ms: expected an integer >= 0, got -1"),
        (("battery_reserve_ms",), -100_000, "battery_reserve_ms: expected an integer >= 1, got -100000"),
        (("ticks", "non_rt_ms"), 10, "ticks.non_rt_ms: expected an integer >= 1000, got 10"),
        (("ticks", "near_rt_ms"), 5_000, "ticks.near_rt_ms: expected an integer in [10, 1000], got 5000"),
        # Values that a stored `Node` rejects: a UAV at altitude <= 0, and an
        # empty battery reserve.
        (("planner", "uav_altitude_m"), 0, "planner.uav_altitude_m: expected a finite number > 0, got 0"),
        (("planner", "uav_altitude_m"), -50, "planner.uav_altitude_m: expected a finite number > 0, got -50"),
        (("battery_reserve_ms",), 0, "battery_reserve_ms: expected an integer >= 1, got 0"),
        # A move of a node that is not a UE: a UAV moved to the ground would
        # fail mid-run, when its new `Node` checks itself.
        (("ric", "ue_moves"), [{**MOVE, "node_id": "tx1"}], "ric.ue_moves[0].node_id: tx1 is a TerrestrialBS, not a UE"),
        # A negative seed crashed with fading on, and ran with it off.
        (("seed",), -3, "seed: expected an integer >= 0, got -3"),
        # RIS layouts that crashed every command with a ValueError, or put
        # the panel's elements where no axis or pitch can.
        (("nodes", 2, "ris", "rows"), 0, "nodes[2].ris.rows: expected an integer >= 1, got 0"),
        (("nodes", 2, "ris", "cols"), -4, "nodes[2].ris.cols: expected an integer >= 1, got -4"),
        (("nodes", 2, "ris", "pitch_m"), 0, "nodes[2].ris.pitch_m: expected a finite number > 0, got 0"),
        (("nodes", 2, "ris", "normal_axis"), 7, "nodes[2].ris.normal_axis: expected an integer in [0, 2], got 7"),
        (("nodes", 2, "ris"), {"rows": 1, "cols": 1, "parts": 2},
         "nodes[2].ris: a panel in 2 parts needs at least 2 elements, ris1 has 1"),
        # Integers that loaded coerced or truncated: a bool, a float, a string.
        (("seed",), True, "seed: expected an integer >= 0, got True"),
        (("seed",), 2.7, "seed: expected an integer >= 0, got 2.7"),
        (("nodes", 2, "ris", "rows"), 4.9, "nodes[2].ris.rows: expected an integer >= 1, got 4.9"),
        (("ticks", "sample_ms"), "7", "ticks.sample_ms: expected an integer >= 1, got '7'"),
        # Numbers that loaded from a string or a bool.
        (("nodes", 1, "tx_power_dbm"), "20", "nodes[1].tx_power_dbm: expected a finite number, got '20'"),
        (("traffic", "data_mbps"), True, "traffic.data_mbps: expected a number, got True"),
        (("planner", "candidate_spacing_m"), "500",
         "planner.candidate_spacing_m: expected a finite number > 0, got '500'"),
        (("nodes", 3, "position"), ["1", 0, 10], "nodes[3].position[0]: expected a finite number, got '1'"),
        (("nodes", 3, "position"), [0, True, 10], "nodes[3].position[1]: expected a finite number, got True"),
        # An integer too large for a float passed the range check, and
        # float() then raised OverflowError.
        (("planner", "uav_altitude_m"), 10**400,
         f"planner.uav_altitude_m: expected a finite number > 0, got {10**400}"),
        (("planner", "candidate_spacing_m"), 10**400,
         f"planner.candidate_spacing_m: expected a finite number > 0, got {10**400}"),
        # RIS links with a segment of length zero, which crashed `rrs run`
        # (and `rrs codebook build` for a reference point) with a traceback.
        # Element 28 of ris1 sits at (0, 0, 0.98); tx1 at (-2.5, 1.2, 1).
        (("nodes", 3, "position"), [-2.5, 1.2, 1.0],
         "nodes[3].position: (-2.5, 1.2, 1.0) is on tx1, the tx of RIS panel ris1"),
        (("nodes", 3, "position"), [0, 0, 0.98],
         "nodes[3].position: (0.0, 0.0, 0.98) is on element 28 of RIS panel ris1"),
        (("ric", "ue_moves"), [{**MOVE, "position": [0, 0, 0.98]}],
         "ric.ue_moves[0].position: (0.0, 0.0, 0.98) is on element 28 of RIS panel ris1"),
        (("ric", "ue_moves"), [MOVE, {**MOVE, "position": [-2.5, 1.2, 1]}],
         "ric.ue_moves[1].position: (-2.5, 1.2, 1.0) is on tx1, the tx of RIS panel ris1"),
        (("ric", "ris", "ris1", "parts", "1", "reference_points"), [[0, 1.7, 1], [0, 0, 0.98]],
         "ric.ris.ris1.parts.1.reference_points[1]: (0.0, 0.0, 0.98) is on element 28 of RIS panel ris1"),
        (("ric", "ris", "ris1", "parts", "0", "reference_points"), [[-2.5, 1.2, 1]],
         "ric.ris.ris1.parts.0.reference_points[0]: (-2.5, 1.2, 1.0) is on tx1, the tx of RIS panel ris1"),
        (("nodes", 1, "position"), [0, 0, 0.98],
         "nodes[1].position: (0.0, 0.0, 0.98) is on element 28 of RIS panel ris1"),
        # A UE as a panel's tx (rx2, which starts at (0.929194, 1.327026, 1)):
        # on the part's UE from the start, or after a move of either one. The
        # moves are taken by time, then as listed.
        (("ric", "ris", "ris1", "tx"), "rx2",
         "nodes[4].position: (0.929194, 1.327026, 1.0) is on rx2, the tx of RIS panel ris1"),
        (("ric",), {"ris": UE_TX, "ue_moves": [{**MOVE, "node_id": "rx2", "position": [0, 0, 0.98]}]},
         "ric.ue_moves[0].position: (0.0, 0.0, 0.98) is on element 28 of RIS panel ris1"),
        (("ric",), {"ris": UE_TX, "ue_moves": [{**MOVE, "node_id": "rx2", "position": [1.020966, 1.458091, 1]}]},
         "ric.ue_moves[0].position: (1.020966, 1.458091, 1.0) is on rx1, a UE of RIS panel ris1"),
        (("ric",), {"ris": UE_TX, "ue_moves": [{**MOVE, "time_ms": 2_000}, {**MOVE, "node_id": "rx2"}]},
         "ric.ue_moves[0].position: (0.0, 1.7, 1.0) is on rx2, the tx of RIS panel ris1"),
    ]

    @pytest.mark.parametrize(
        "keys, value, message",
        BAD_SETTINGS,
        ids=NAMED_BY_MESSAGE + [setting_id(keys, value) for keys, value, _ in BAD_SETTINGS[len(NAMED_BY_MESSAGE):]],
    )
    def test_bad_setting_in_every_command(self, tmp_path, capsys, keys, value, message):
        """Planner, cell-free, point, node, script and RIS part settings, the
        shape of every object and list, and the keys of every object are
        checked at load, so each command rejects them before it simulates
        anything."""
        with open(bundled_scenario_path("two_ue_demo.json")) as fh:
            data = json.load(fh)
        target = data
        for key in keys[:-1]:
            target = target[key] if isinstance(target, list) else target.setdefault(key, {})
        target[keys[-1]] = value
        scenario = write_scenario(tmp_path, data)
        out = str(tmp_path / "out")
        for argv in (
            ["run", "--scenario", scenario, "--until", "5000", "--out", out],
            ["plan", "--scenario", scenario, "--out", out],
            ["codebook", "build", "--scenario", scenario, "--panel", "ris1", "--out", out],
        ):
            assert main(argv) == 2, argv
            assert capsys.readouterr().err == f"scenario error: {message}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["scenario.json"]

    @pytest.mark.parametrize(
        "ris, moves",
        [
            ({"ris1": {"tx": "tx1"}}, []),
            # rx1 steps where the tx rx2 started, after rx2 has left.
            (UE_TX, [{**MOVE, "time_ms": 2_000, "position": [0.929194, 1.327026, 1]}, {**MOVE, "node_id": "rx2"}]),
        ],
        ids=["panel_without_parts", "ue_tx_left_before"],
    )
    def test_ris_link_that_never_has_zero_length_runs(self, tmp_path, capsys, ris, moves):
        with open(bundled_scenario_path("two_ue_demo.json")) as fh:
            data = json.load(fh)
        data["ric"].update(ris=ris, ue_moves=moves)
        scenario = write_scenario(tmp_path, data)
        assert main(["run", "--scenario", scenario, "--until", "5000", "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == ""

    def test_bad_panel_spec(self, capsys):
        rc = main(["ris", "bench", "--panel", "seventysix"])
        assert rc == 2
        assert "--panel" in capsys.readouterr().err

    def test_unknown_algorithm(self, capsys):
        rc = main(["ris", "bench", "--panel", "8,2", "--algorithms", "magic"])
        assert rc == 2
        assert "magic" in capsys.readouterr().err

    BENCH = ["ris", "bench", "--seeds", "1"]

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--until", "-5"], "--until must be >= 0, got -5"),
            (["run", "--until", "1000", "--seed", "-1"], "--seed must be >= 0, got -1"),
            (BENCH + ["--panel", "0,4"], "--panel must have N >= 1 elements and S >= 2 states, got 0,4"),
            (BENCH + ["--panel", "8,1"], "--panel must have N >= 1 elements and S >= 2 states, got 8,1"),
            (["ris", "bench", "--panel", "8,4", "--seeds", "0"], "--seeds must be >= 1, got 0"),
            (["ris", "bench", "--panel", "8,4", "--seeds", "-2"], "--seeds must be >= 1, got -2"),
            (BENCH + ["--panel", "8,4", "--group-count", "0"],
             "--group-count must be in [1, 8], the panel's elements, got 0"),
            (BENCH + ["--panel", "8,4", "--group-count", "99"],
             "--group-count must be in [1, 8], the panel's elements, got 99"),
            (["plan", "--max-nodes", "-1"], "--max-nodes must be >= 0, got -1"),
            (BENCH + ["--panel", "8,5"], "--panel must have S <= 4 states, got 8,5"),
            (BENCH + ["--panel", "30,4", "--algorithms", "iterative,exhaustive"],
             "--algorithms exhaustive needs S^N <= 1048576 configurations, got 4^30"),
            (BENCH + ["--panel", "21,2", "--algorithms", "exhaustive"],
             "--algorithms exhaustive needs S^N <= 1048576 configurations, got 2^21"),
        ],
        ids=["until", "seed", "panel_elements", "panel_states", "seeds_zero", "seeds_negative",
             "group_count_zero", "group_count_above_panel", "max_nodes", "panel_states_above_four",
             "exhaustive_too_large", "exhaustive_one_past_the_guard"],
    )
    def test_bad_number_argument(self, tmp_path, capsys, argv, message):
        """Each exits 2 with one line that names the argument, before it
        writes anything."""
        out = str(tmp_path / "out")
        if argv[0] in ("run", "plan"):
            argv = argv + ["--scenario", bundled_scenario_path("earthquake_demo.json")]
        assert main(argv + ["--out", out]) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"{message}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, out, reason",
        [
            (["run", "--until", "1000"], "file/out", "Not a directory"),
            (["run", "--until", "1000"], "file", "File exists"),
            (["plan"], "missing/plan.json", "No such file or directory"),
            (["plan"], "file/plan.json", "Not a directory"),
            (["codebook", "build", "--panel", "ris1"], "missing/cb.json", "No such file or directory"),
            (["codebook", "build", "--panel", "ris1"], "file/cb.json", "Not a directory"),
            (["ris", "bench", "--panel", "4,2", "--seeds", "1"], "missing/b.csv", "No such file or directory"),
            (["ris", "bench", "--panel", "4,2", "--seeds", "1"], "file/b.csv", "Not a directory"),
        ],
    )
    def test_unwritable_out(self, tmp_path, capsys, argv, out, reason):
        """An --out under a missing directory or a regular file exits 2 with
        one line that names it, and leaves nothing behind."""
        (tmp_path / "file").write_text("")
        if argv[0] != "ris":
            argv = argv + ["--scenario", bundled_scenario_path("two_ue_demo.json")]
        out = str(tmp_path / out)
        assert main(argv + ["--out", out]) == 2
        assert capsys.readouterr().err == f"cannot write {out}: {reason}\n"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_group_count_is_checked_only_for_grouping(self, tmp_path):
        argv = ["ris", "bench", "--panel", "2,2", "--seeds", "1", "--algorithms", "iterative"]
        assert main(argv + ["--group-count", "3", "--out", str(tmp_path / "b.csv")]) == 0


class TestRun:
    def test_artifacts_and_summary(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", scenario, "--until", "60000", "--out", str(out)])
        assert rc == 0

        with open(out / "metrics.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["time_ms", "coverage_ratio", "ue_id", "throughput_mbps"]
        assert len(rows) == 1 + 13 * 2  # 13 samples x 2 UEs

        actions = (out / "actions.log").read_text().splitlines()
        assert any("DisasterStrike" in line for line in actions)
        assert all("\t" in line for line in actions)

        summary = json.loads((out / "summary.json").read_text())
        assert summary["scenario"] == scenario
        assert summary["baseline_coverage"] == 1.0
        assert summary["recovery_time_ms"] == "not_recovered"

        stdout = capsys.readouterr().out
        assert json.loads(stdout.strip())["seed"] == 3

    def test_require_recovery_exit_code(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        rc = main(
            [
                "run", "--scenario", scenario, "--until", "60000",
                "--out", str(tmp_path / "out"), "--require-recovery",
            ]
        )
        assert rc == 3

    def test_no_disaster_omits_recovery_time(self, tmp_path):
        data = dict(SMALL)
        data["disasters"] = []
        scenario = write_scenario(tmp_path, data)
        out = tmp_path / "out"
        rc = main(["run", "--scenario", scenario, "--until", "20000", "--out", str(out)])
        assert rc == 0
        summary = json.loads((out / "summary.json").read_text())
        assert "recovery_time_ms" not in summary

    def test_disable_app_flag(self, tmp_path):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(
            [
                "run", "--scenario", scenario, "--until", "60000", "--out", str(out),
                "--disable-app", "CfClusterer",
            ]
        )
        assert rc == 0
        assert "Recluster" not in (out / "actions.log").read_text()

    def test_unknown_app_name_is_rejected(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, SMALL)
        out = tmp_path / "out"
        rc = main(
            [
                "run", "--scenario", scenario, "--until", "60000", "--out", str(out),
                "--disable-app", "CfClusterer", "--disable-app", "NoSuchApp",
            ]
        )
        assert rc == 2
        err = capsys.readouterr().err
        assert "unknown app(s): NoSuchApp (choose from FailureMonitor, RecoveryPlanner," in err
        assert not out.exists()

    def test_unknown_app_in_scenario_is_rejected(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, dict(SMALL, ric={"disabled_apps": ["NoSuchApp"]}))
        out = tmp_path / "out"
        rc = main(["run", "--scenario", scenario, "--until", "60000", "--out", str(out)])
        assert rc == 2
        assert "unknown app(s): NoSuchApp (choose from" in capsys.readouterr().err
        assert not out.exists()

    def test_disable_app_flag_adds_to_the_scenario_list(self, tmp_path):
        scenario = write_scenario(tmp_path, dict(SMALL, ric={"disabled_apps": ["CfClusterer"]}))
        out = tmp_path / "out"
        rc = main(
            [
                "run", "--scenario", scenario, "--until", "60000", "--out", str(out),
                "--disable-app", "EnergyManager",
            ]
        )
        assert rc == 0
        actions = (out / "actions.log").read_text()
        assert "Recluster" not in actions
        assert "energy management stub active" not in actions
        assert "sensing management stub active" in actions

    def test_zero_baseline_leaves_recovery_time_undefined(self, tmp_path, caplog):
        # No UE reaches a 500 dB threshold, so the intact coverage is 0.
        scenario = write_scenario(tmp_path, dict(SMALL, planner={"snr_threshold_db": 500.0}))
        out = tmp_path / "out"
        with caplog.at_level(logging.WARNING, logger="rrs"):
            rc = main(
                [
                    "run", "--scenario", scenario, "--until", "60000", "--out", str(out),
                    "--require-recovery",
                ]
            )
        assert rc == 3
        summary = json.loads((out / "summary.json").read_text())
        assert summary["baseline_coverage"] == 0.0
        assert "recovery_time_ms" not in summary
        warnings = [r for r in caplog.records if r.name == "rrs" and r.levelno == logging.WARNING]
        assert [r.getMessage() for r in warnings] == ["intact coverage is 0, so the recovery time is undefined"]

    def test_info_log_reports_the_run_and_changes_no_output(self, tmp_path, caplog, capsys):
        scenario = write_scenario(tmp_path, SMALL)
        rc = main(["run", "--scenario", scenario, "--until", "60000", "--out", str(tmp_path / "quiet")])
        assert rc == 0
        quiet = capsys.readouterr().out
        with caplog.at_level(logging.INFO, logger="rrs"):
            rc = main(["run", "--scenario", scenario, "--until", "60000", "--out", str(tmp_path / "info")])
        assert rc == 0
        assert capsys.readouterr().out == quiet
        for name in ("metrics.csv", "actions.log", "summary.json"):
            assert (tmp_path / "info" / name).read_bytes() == (tmp_path / "quiet" / name).read_bytes()

        log = Simulation(load_scenario(scenario)).run(60_000)
        samples = log.samples
        tables = len({id(s.throughput_mbps) for s in samples})
        infos = [r.getMessage() for r in caplog.records if r.name == "rrs" and r.levelno == logging.INFO]
        assert len(infos) == 1
        match = re.fullmatch(
            r"(\d+) samples, (\d+) rate tables, (\d+) actions; "
            r"simulated in \d+\.\d{3} s, wrote artifacts in \d+\.\d{3} s",
            infos[0],
        )
        assert match is not None, infos[0]
        assert [int(n) for n in match.groups()] == [len(samples), tables, len(log.actions)]
        assert tables < len(samples)

    def test_a_run_does_not_depend_on_the_runs_before_it(self, tmp_path, capsys):
        quake = bundled_scenario_path("earthquake_demo.json")
        two_ue = bundled_scenario_path("two_ue_demo.json")
        for label, path, until in (("first", quake, 180_000), ("other", two_ue, 5_000), ("again", quake, 180_000)):
            assert main(["run", "--scenario", path, "--until", str(until), "--out", str(tmp_path / label)]) == 0
        for name in ("metrics.csv", "actions.log", "summary.json"):
            assert (tmp_path / "first" / name).read_bytes() == (tmp_path / "again" / name).read_bytes()


class TestRisBench:
    def test_csv_with_mean_rows(self, tmp_path):
        out = tmp_path / "bench.csv"
        rc = main(
            [
                "ris", "bench", "--panel", "8,2", "--seeds", "3",
                "--algorithms", "iterative,codebook", "--out", str(out),
            ]
        )
        assert rc == 0
        with open(out, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][0] == "algorithm"
        body = [r for r in rows[1:] if not r[0].startswith("mean:")]
        means = [r for r in rows[1:] if r[0].startswith("mean:")]
        assert len(body) == 6  # 2 algorithms x 3 seeds
        assert [r[0] for r in means] == ["mean:iterative", "mean:codebook"]


class TestPlan:
    def test_plan_for_bundled_earthquake(self, tmp_path, capsys):
        out = tmp_path / "plan.json"
        rc = main(
            [
                "plan", "--scenario", bundled_scenario_path("earthquake_demo.json"),
                "--out", str(out),
            ]
        )
        assert rc == 0
        plan = json.loads(out.read_text())
        assert len(plan["placements"]) == 3
        assert len(plan["backhaul"]) == 3
        stdout = capsys.readouterr().out
        assert "estimated coverage: 0.985" in stdout

    def test_unreachable_placement_exit_code(self, tmp_path, capsys):
        data = {
            "nodes": [
                {"id": "gw", "kind": "Gateway", "position": [100_000, 0, 10]},
                {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 43},
                {"id": "ue1", "kind": "UE", "position": [50, 10, 1.5]},
            ],
            "channel": {"exponent": 3.0},
            "disasters": [{"time_ms": 1000, "fail": ["bs1"]}],
            "planner": {
                "snr_threshold_db": 3.0,
                "max_nodes": 1,
                "uav_tx_power_dbm": 20.0,
                "candidate_spacing_m": 100.0,
                "candidate_bounds": [[0, 0], [200, 200]],
                "backhaul_threshold_db": 30.0,
            },
        }
        scenario = write_scenario(tmp_path, data)
        rc = main(["plan", "--scenario", scenario, "--out", str(tmp_path / "plan.json")])
        assert rc == 4
        assert "planning failed" in capsys.readouterr().err

    @pytest.mark.parametrize("satellite", [True, False], ids=["satellite", "no_satellite"])
    def test_failed_gateway_roots_no_backhaul(self, tmp_path, capsys, satellite):
        """The strike fails the only gateway with the base station: the UAV
        is fed by the satellite, or the plan fails with exit 4."""
        nodes = [
            {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
            {"id": "bs", "kind": "TerrestrialBS", "position": [100, 0, 25], "tx_power_dbm": 43},
            {"id": "ue", "kind": "UE", "position": [50, 10, 1.5]},
        ]
        if satellite:
            nodes.append({"id": "sat", "kind": "Satellite", "position": [0, 0, 550_000]})
        data = {
            "nodes": nodes,
            "disasters": [{"time_ms": 1_000, "fail": ["gw", "bs"]}],
            "planner": {"uav_tx_power_dbm": 45.0, "backhaul_threshold_db": 0.0},
        }
        out = tmp_path / "plan.json"
        rc = main(["plan", "--scenario", write_scenario(tmp_path, data), "--out", str(out)])
        if satellite:
            assert rc == 0
            assert [(e["child"], e["parent"]) for e in json.loads(out.read_text())["backhaul"]] == [("uav_0", "sat")]
        else:
            assert rc == 4
            assert capsys.readouterr().err == "planning failed: no feasible backhaul path for placement uav_0\n"
            assert not out.exists()


class TestCodebookBuild:
    def test_build_from_bundled_scenario(self, tmp_path, capsys):
        out = tmp_path / "cb.json"
        rc = main(
            [
                "codebook", "build",
                "--scenario", bundled_scenario_path("two_ue_demo.json"),
                "--panel", "ris1", "--part", "0", "--out", str(out),
            ]
        )
        assert rc == 0
        data = json.loads(out.read_text())
        assert data["version"] == 1
        assert len(data["codewords"]) == 7

    def test_unknown_panel(self, capsys):
        rc = main(
            [
                "codebook", "build",
                "--scenario", bundled_scenario_path("two_ue_demo.json"),
                "--panel", "nope",
            ]
        )
        assert rc == 2

    def test_part_without_reference_points(self, capsys):
        rc = main(
            [
                "codebook", "build",
                "--scenario", bundled_scenario_path("two_ue_demo.json"),
                "--panel", "ris1", "--part", "5",
            ]
        )
        assert rc == 2


class TestArtifactFiles:
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=["umask022", "umask077"])
    def test_mode_follows_umask_like_open(self, tmp_path, umask, capsys):
        scenario = write_scenario(tmp_path, SMALL)
        old = os.umask(umask)
        try:
            plain = tmp_path / "plain"
            open(plain, "w").close()
            assert main(["run", "--scenario", scenario, "--until", "10000", "--out", str(tmp_path / "run")]) == 0
            assert main(
                [
                    "plan", "--scenario", bundled_scenario_path("earthquake_demo.json"),
                    "--out", str(tmp_path / "plan.json"),
                ]
            ) == 0
            assert main(
                [
                    "codebook", "build",
                    "--scenario", bundled_scenario_path("two_ue_demo.json"),
                    "--panel", "ris1", "--out", str(tmp_path / "cb.json"),
                ]
            ) == 0
        finally:
            os.umask(old)
        want = stat.S_IMODE(plain.stat().st_mode)
        for path in (tmp_path / "run" / "metrics.csv", tmp_path / "plan.json", tmp_path / "cb.json"):
            assert stat.S_IMODE(path.stat().st_mode) == want, path

    def test_codebook_bytes_do_not_depend_on_the_date(self, tmp_path, monkeypatch, capsys):
        outputs = []
        for day in (datetime.date(2024, 1, 1), datetime.date(2031, 12, 31)):

            class FixedDate(datetime.date):
                @classmethod
                def today(cls, day=day):
                    return day

            monkeypatch.setattr(datetime, "date", FixedDate)
            out = tmp_path / f"cb_{day.isoformat()}.json"
            rc = main(
                [
                    "codebook", "build",
                    "--scenario", bundled_scenario_path("two_ue_demo.json"),
                    "--panel", "ris1", "--out", str(out),
                ]
            )
            assert rc == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]
