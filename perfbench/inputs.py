"""Scenario generators keyed by the benchmark seed.

The program only ever sees the JSON files written here. Seed 0 of the
earthquake generator reproduces the bundled ``earthquake_demo.json``; other
seeds redraw the UE positions the same way the bundled file was drawn.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

# --- earthquake city (quake_4h) ----------------------------------------------

QUAKE_UE_SEED = 20260824  # draw seed of the bundled demo's UEs
QUAKE_UNTIL_MS = 14_520_000


def quake_scenario(seed: int) -> dict:
    """5x5 macro grid, 200 UEs; the quake fails the south-west block and puts
    the ring around it on battery. Only the UE draw depends on the seed."""
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
    rng = np.random.default_rng(QUAKE_UE_SEED + seed)
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


# --- RIS emergency room (ris_emergency) ----------------------------------------

# Desk geometry of the two-UE demo: a 4x19 panel on the wall at the origin
# facing +y, the transmitter behind a partition wall that blocks its direct
# line to the arc where the receivers sit.
RIS_PANEL = {"rows": 4, "cols": 19, "pitch_m": 0.04, "normal_axis": 1, "parts": 2}
RIS_TX_POS = [-2.5, 1.2, 1.0]
RIS_WALL = [[-1.2, 0.75, 0.0], [-1.1, 3.0, 2.0]]
RIS_REFERENCE_DISTANCE_M = 1.70
RIS_REFERENCE_ANGLES = tuple(float(a) for a in np.linspace(55.0, 125.0, 7))
RIS_NEAR_RT_MS = 100
RIS_PHASE_MS = 30_000
RIS_PHASES = 10  # alternating fast-recovery / max-throughput, 5 simulated minutes
RIS_UNTIL_MS = RIS_PHASES * RIS_PHASE_MS
RIS_STEP_MS = 1_000  # walking UEs report a new position every second
RIS_STRIKES_PER_PHASE = 2
RIS_DEBRIS_PER_STRIKE = 2
RIS_DATA_MBPS = 30.0  # above the top MCS rate, so delivered rates follow the RIS


def arc_point(radius_m: float, angle_deg: float) -> list[float]:
    return [
        round(radius_m * math.cos(math.radians(angle_deg)), 6),
        round(radius_m * math.sin(math.radians(angle_deg)), 6),
        1.0,
    ]


def ris_emergency_scenario(seed: int) -> dict:
    """Two UEs served by the halves of one panel. Even phases run the codebook
    tracker while both UEs walk the reference arc; odd phases run the
    iterative tuner with the UEs still while debris strikes add blockages."""
    rng = np.random.default_rng([seed, 2])
    refs = [arc_point(RIS_REFERENCE_DISTANCE_M, a) for a in RIS_REFERENCE_ANGLES]
    angles = {"rx1": float(rng.uniform(55.0, 125.0)), "rx2": float(rng.uniform(55.0, 125.0))}
    radii = {"rx1": float(rng.uniform(1.60, 1.80)), "rx2": float(rng.uniform(1.55, 1.75))}
    start = {ue: arc_point(radii[ue], angles[ue]) for ue in angles}

    script, moves, disasters = [], [], []
    for phase in range(RIS_PHASES):
        t0 = phase * RIS_PHASE_MS
        if phase % 2 == 0:
            if phase:
                script.append({"time_ms": t0, "policy": "fast-recovery"})
            # Walk: a bounded random walk along the arc, one step per second.
            for t in range(t0 + RIS_STEP_MS, t0 + RIS_PHASE_MS, RIS_STEP_MS):
                for ue in ("rx1", "rx2"):
                    angles[ue] = min(125.0, max(55.0, angles[ue] + float(rng.normal(0.0, 2.5))))
                    moves.append({"time_ms": t, "node_id": ue,
                                  "position": arc_point(radii[ue], angles[ue])})
        else:
            script.append({"time_ms": t0, "policy": "max-throughput"})
            for k in range(RIS_STRIKES_PER_PHASE):
                t = t0 + (k + 1) * RIS_PHASE_MS // (RIS_STRIKES_PER_PHASE + 1)
                debris = []
                for _ in range(RIS_DEBRIS_PER_STRIKE):
                    x, y = rng.uniform(-3.5, 3.5), rng.uniform(2.2, 4.0)
                    w, d, h = rng.uniform(0.05, 0.4, 3)
                    debris.append([[round(x, 3), round(y, 3), 0.0],
                                   [round(x + w, 3), round(y + d, 3), round(h, 3)]])
                disasters.append({"time_ms": int(t), "fail": [], "power_loss": [],
                                  "blockages": debris})
    return {
        "seed": 7,
        "ticks": {"non_rt_ms": 60000, "near_rt_ms": RIS_NEAR_RT_MS, "sample_ms": 100},
        "nodes": [
            {"id": "gw1", "kind": "Gateway", "position": [-4.0, 0.0, 1.0]},
            {"id": "tx1", "kind": "TerrestrialBS", "position": RIS_TX_POS, "tx_power_dbm": 20.0},
            {"id": "ris1", "kind": "RisPanel", "position": [0.0, 0.0, 1.0], "ris": RIS_PANEL},
            {"id": "rx1", "kind": "UE", "position": start["rx1"]},
            {"id": "rx2", "kind": "UE", "position": start["rx2"]},
        ],
        "obstacles": [RIS_WALL],
        "traffic": {"data_mbps": RIS_DATA_MBPS, "voice_mbps": 0.1},
        "disasters": disasters,
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
            "script": script,
            "ue_moves": moves,
        },
    }


# --- blocked post-strike city (plan_blocked) ---------------------------------

PLAN_GATEWAY = (1500.0, 1500.0, 30.0)
PLAN_MASTS = 16
PLAN_REACH_M = 750.0  # candidate half-width: every candidate is in unblocked, not in blocked range
PLAN_MAST_RING_M = 90.0


def plan_blocked_scenario(seed: int) -> dict:
    """The earthquake city after the strike, with the gateway at the centre of
    the outage inside a ring of collapsed buildings: every gateway-UAV link
    is blocked although it would clear the threshold in the open, so the
    planner tries RIS relays before it falls back to the satellite.

    Only the UE draw depends on the seed; the rubble, the relay masts and the
    candidate lattice are fixed so that every seed asks for the same amount
    of relay search."""
    data = quake_scenario(seed)
    gx, gy, _ = PLAN_GATEWAY
    data["nodes"][0]["position"] = list(PLAN_GATEWAY)
    rubble = []
    for k in range(8):
        a = 2.0 * math.pi * k / 8.0
        cx, cy = gx + 40.0 * math.cos(a), gy + 40.0 * math.sin(a)
        half, top = 16.0, 60.0 + 2.0 * k
        rubble.append([[round(cx - half, 1), round(cy - half, 1), 0.0],
                       [round(cx + half, 1), round(cy + half, 1), top]])
    data["disasters"][0]["blockages"] = rubble
    data["disasters"][0]["power_loss"] = []
    planner = data["planner"]
    # The lattice is offset so that no candidate hovers over the gateway and
    # every candidate is within unblocked backhaul range of it.
    planner["candidate_bounds"] = [[gx - PLAN_REACH_M, gy - PLAN_REACH_M],
                                   [gx + PLAN_REACH_M, gy + PLAN_REACH_M]]
    # Masts of surviving high-rises that could carry a relay panel; they see
    # over the rubble ring from the gateway.
    planner["relay_sites"] = [
        [round(gx + PLAN_MAST_RING_M * math.cos(a), 1),
         round(gy + PLAN_MAST_RING_M * math.sin(a), 1), 210.0]
        for a in np.linspace(0.0, 2.0 * math.pi, PLAN_MASTS, endpoint=False)
    ]
    return data


def write_json(data: dict, path: str) -> str:
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    return path
