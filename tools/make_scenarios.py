"""Regenerate the bundled demo scenarios under src/rrsim/scenarios/.

The JSON files are checked in; this script only exists so the geometry and
node lists can be rebuilt from one place when a constant changes.
"""

import json
import math
import os

import numpy as np

OUT_DIR = os.path.join(os.path.dirname(__file__), "..", "src", "rrsim", "scenarios")

# Shared desk geometry: a 4x19 panel on the wall at the origin facing +y,
# the transmitter off to the left behind a partition wall that blocks its
# direct line to the arc where the receivers sit.
PANEL = {"rows": 4, "cols": 19, "pitch_m": 0.04, "normal_axis": 1}
TX_POS = [-2.5, 1.2, 1.0]
WALL = [[-1.2, 0.75, 0.0], [-1.1, 3.0, 2.0]]
REFERENCE_DISTANCE_M = 1.70


def arc_points(radius_m, angles_deg):
    return [
        [
            round(radius_m * math.cos(math.radians(a)), 6),
            round(radius_m * math.sin(math.radians(a)), 6),
            1.0,
        ]
        for a in angles_deg
    ]


def indoor_ris_demo():
    """Single-user throughput demo: blocked direct path, live RIS tuning,
    scripted RIS shutdown half way through."""
    ue = arc_points(1.75, [80.0])[0]
    return {
        "seed": 42,
        "ticks": {"non_rt_ms": 60000, "near_rt_ms": 100, "sample_ms": 100},
        "nodes": [
            {"id": "gw1", "kind": "Gateway", "position": [-4.0, 0.0, 1.0]},
            {"id": "bs1", "kind": "TerrestrialBS", "position": TX_POS, "tx_power_dbm": -2.0},
            {"id": "ris1", "kind": "RisPanel", "position": [0.0, 0.0, 1.0], "ris": PANEL},
            {"id": "ue1", "kind": "UE", "position": ue},
        ],
        "traffic": {"data_mbps": 25.0, "voice_mbps": 0.1},
        "obstacles": [WALL],
        "channel": {"exponent": 2.2, "d0_m": 1.0, "blockage_penalty_db": 32.0},
        "ric": {
            "policy": "max-throughput",
            "ris": {"ris1": {"tx": "bs1", "parts": {"0": {"ue": "ue1"}}}},
            "script": [{"time_ms": 30000, "policy": "ris-off", "ris_off": True}],
        },
    }


def two_ue_demo():
    """Panel split in halves, one receiver per half, offline codebooks built
    on a seven-angle reference ring."""
    ref_angles = list(np.linspace(55.0, 125.0, 7))
    refs = arc_points(REFERENCE_DISTANCE_M, ref_angles)
    rx1 = arc_points(1.78, [55.0])[0]
    rx2 = arc_points(1.62, [55.0])[0]
    panel = dict(PANEL, parts=2)
    return {
        "seed": 7,
        "ticks": {"non_rt_ms": 60000, "near_rt_ms": 100, "sample_ms": 100},
        "nodes": [
            {"id": "gw1", "kind": "Gateway", "position": [-4.0, 0.0, 1.0]},
            {"id": "tx1", "kind": "TerrestrialBS", "position": TX_POS, "tx_power_dbm": 20.0},
            {"id": "ris1", "kind": "RisPanel", "position": [0.0, 0.0, 1.0], "ris": panel},
            {"id": "rx1", "kind": "UE", "position": rx1},
            {"id": "rx2", "kind": "UE", "position": rx2},
        ],
        "obstacles": [WALL],
        "channel": {"exponent": 2.2, "d0_m": 1.0, "blockage_penalty_db": 22.0},
        "ric": {
            "policy": "fast-recovery",
            "ris": {
                "ris1": {
                    "tx": "tx1",
                    "parts": {
                        "0": {"ue": "rx1", "reference_points": refs},
                        "1": {"ue": "rx2", "reference_points": refs},
                    },
                }
            },
        },
    }


def earthquake_demo():
    """City-scale outage: 5x5 macro grid, a quake fails the south-west block
    and knocks the surrounding ring onto battery power."""
    spacing = 1000.0
    nodes = [
        {"id": "gw1", "kind": "Gateway", "position": [2500.0, 2500.0, 30.0]},
        {"id": "sat1", "kind": "Satellite", "position": [2500.0, 2500.0, 550000.0]},
    ]
    for i in range(5):
        for j in range(5):
            nodes.append(
                {
                    "id": f"bs_{i}{j}",
                    "kind": "TerrestrialBS",
                    "position": [500.0 + i * spacing, 500.0 + j * spacing, 25.0],
                    "tx_power_dbm": 43.0,
                }
            )
    rng = np.random.default_rng(20260824)
    for k in range(200):
        x, y = rng.uniform(0.0, 5000.0, 2)
        nodes.append(
            {"id": f"ue_{k:03d}", "kind": "UE", "position": [round(x, 1), round(y, 1), 1.5]}
        )
    failed = [f"bs_{i}{j}" for i in range(3) for j in range(3)] + ["bs_13"]
    battery = ["bs_03", "bs_23", "bs_30", "bs_31", "bs_32", "bs_04", "bs_33", "bs_14"]
    return {
        "seed": 11,
        "ticks": {"non_rt_ms": 60000, "near_rt_ms": 1000, "sample_ms": 5000},
        "nodes": nodes,
        "traffic": {"data_mbps": 2.0, "voice_mbps": 0.1},
        "disasters": [{"time_ms": 60000, "fail": failed, "power_loss": battery}],
        "channel": {"exponent": 3.0, "d0_m": 1.0, "blockage_penalty_db": 20.0},
        "planner": {
            "snr_threshold_db": 3.0,
            "max_nodes": 3,
            "uav_altitude_m": 120.0,
            "uav_tx_power_dbm": 45.0,
            "candidate_spacing_m": 500.0,
            "backhaul_threshold_db": 0.0,
        },
        "ric": {"policy": "fast-recovery"},
        "cfmimo": {"L": 2},
    }


BUILDERS = {
    "indoor_ris_demo.json": indoor_ris_demo,
    "two_ue_demo.json": two_ue_demo,
    "earthquake_demo.json": earthquake_demo,
}


def render(builder) -> str:
    """The text of the scenario file that builder returns."""
    return json.dumps(builder(), indent=2) + "\n"


def main():
    os.makedirs(OUT_DIR, exist_ok=True)
    for name, builder in BUILDERS.items():
        path = os.path.join(OUT_DIR, name)
        with open(path, "w") as fh:
            fh.write(render(builder))
        print("wrote", os.path.normpath(path))


if __name__ == "__main__":
    main()
