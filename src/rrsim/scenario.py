"""World model: node inventory, geometry, traffic surge profile, disaster schedule,
and scenario file ingestion."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Any

from .channel import DEFAULT_MCS, ChannelParams

DEFAULT_BATTERY_RESERVE_MS = 14_400_000  # 4 hours of internal energy reserve
DEFAULT_NON_RT_TICK_MS = 60_000
DEFAULT_NEAR_RT_TICK_MS = 100
DEFAULT_SAMPLE_INTERVAL_MS = 5_000

# Default surge curve knots, ms since strike -> multiplier. Data and voice
# peak at 2.6x / 91.5x half an hour in, hold for two hours, then decay.
_RISE_MS = 1_800_000
_PLATEAU_END_MS = 9_000_000
_DECAY_END_MS = 12_600_000
DEFAULT_DATA_SURGE = ((0, 1.0), (_RISE_MS, 2.6), (_PLATEAU_END_MS, 2.6), (_DECAY_END_MS, 0.8))
DEFAULT_VOICE_SURGE = ((0, 1.0), (_RISE_MS, 91.5), (_PLATEAU_END_MS, 91.5), (_DECAY_END_MS, 1.0))


class ParseError(Exception):
    pass


class ValidationError(Exception):
    pass


class UnknownNode(ValidationError):
    pass


class NodeKind(str, Enum):
    TERRESTRIAL_BS = "TerrestrialBS"
    MOBILE_BS = "MobileBS"
    UAV = "UAV"
    SATELLITE = "Satellite"
    RIS_PANEL = "RisPanel"
    UE = "UE"
    GATEWAY = "Gateway"


class NodeStatus(str, Enum):
    OPERATIONAL = "Operational"
    FAILED = "Failed"
    ON_BATTERY = "OnBattery"
    DEPLOYING = "Deploying"
    ACTIVE = "Active"


ACCESS_KINDS = frozenset({NodeKind.TERRESTRIAL_BS, NodeKind.MOBILE_BS, NodeKind.UAV})
SERVING_STATUSES = frozenset({NodeStatus.OPERATIONAL, NodeStatus.ON_BATTERY, NodeStatus.ACTIVE})


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: NodeKind
    position: tuple[float, float, float]
    status: NodeStatus = NodeStatus.OPERATIONAL
    tx_power_dbm: float = 30.0
    freq_ghz: float = 3.5
    battery_ms: int | None = None
    ris: dict[str, Any] | None = None  # RisPanel layout for kind == RIS_PANEL

    def validate(self) -> None:
        if self.kind == NodeKind.UAV and self.position[2] <= 0:
            raise ValidationError(f"UAV {self.node_id} altitude must be > 0")
        if self.status == NodeStatus.ON_BATTERY and not (self.battery_ms and self.battery_ms > 0):
            raise ValidationError(f"OnBattery node {self.node_id} needs battery_ms > 0")


@dataclass(frozen=True)
class TrafficProfile:
    data_mbps: float = 2.0
    voice_mbps: float = 0.1
    data_surge: tuple[tuple[int, float], ...] = DEFAULT_DATA_SURGE
    voice_surge: tuple[tuple[int, float], ...] = DEFAULT_VOICE_SURGE

    def validate(self) -> None:
        for curve in (self.data_surge, self.voice_surge):
            times = [t for t, _ in curve]
            if times != sorted(times):
                raise ValidationError("surge knots must be time-sorted")
            if any(m < 0 for _, m in curve):
                raise ValidationError("surge multipliers must be non-negative")


@dataclass(frozen=True)
class DisasterEvent:
    strike_time_ms: int
    failed: tuple[str, ...] = ()
    power_loss: tuple[str, ...] = ()
    blockages: tuple[tuple[tuple[float, float, float], tuple[float, float, float]], ...] = ()

    def validate(self) -> None:
        overlap = set(self.failed) & set(self.power_loss)
        if overlap:
            raise ValidationError(f"nodes in both failure and power-loss sets: {sorted(overlap)}")


@dataclass(frozen=True)
class Scenario:
    nodes: tuple[Node, ...]
    traffic: TrafficProfile = TrafficProfile()
    disasters: tuple[DisasterEvent, ...] = ()
    obstacles: tuple[tuple[tuple[float, float, float], tuple[float, float, float]], ...] = ()
    seed: int = 0
    non_rt_tick_ms: int = DEFAULT_NON_RT_TICK_MS
    near_rt_tick_ms: int = DEFAULT_NEAR_RT_TICK_MS
    sample_interval_ms: int = DEFAULT_SAMPLE_INTERVAL_MS
    battery_reserve_ms: int = DEFAULT_BATTERY_RESERVE_MS
    channel: ChannelParams = ChannelParams()
    cfmimo: dict[str, Any] = field(default_factory=dict)
    ric: dict[str, Any] = field(default_factory=dict)
    planner: dict[str, Any] = field(default_factory=dict)

    def validate(self) -> None:
        ids = [n.node_id for n in self.nodes]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"node ids unique: duplicates {dupes}")
        if not any(n.kind == NodeKind.GATEWAY for n in self.nodes):
            raise ValidationError("scenario needs at least one Gateway")
        for node in self.nodes:
            node.validate()
        self.traffic.validate()
        thresholds = [min_snr for min_snr, _ in self.channel.mcs_table]
        if thresholds != sorted(thresholds):
            raise ValidationError("MCS table must be sorted by min SNR")
        known = set(ids)
        for event in self.disasters:
            event.validate()
            for nid in (*event.failed, *event.power_loss):
                if nid not in known:
                    raise UnknownNode(f"disaster references unknown node {nid}")
        for panel_id, cfg in self.ric.get("ris", {}).items():
            if not isinstance(cfg, dict):
                raise ValidationError(f"RIS panel {panel_id}: entry must be an object")
            if cfg.get("tx") not in known:
                raise UnknownNode(f"RIS panel {panel_id} tx references unknown node {cfg.get('tx')!r}")

    def node(self, node_id: str) -> Node:
        for n in self.nodes:
            if n.node_id == node_id:
                return n
        raise UnknownNode(node_id)

    def nodes_of_kind(self, kind: NodeKind) -> list[Node]:
        return [n for n in self.nodes if n.kind == kind]


def traffic_multiplier(profile: TrafficProfile, traffic_class: str, t_since_strike_ms: float) -> float:
    """Piecewise-linear surge multiplier; pre-disaster times map to 1.0."""
    if traffic_class == "data":
        curve = profile.data_surge
    elif traffic_class == "voice":
        curve = profile.voice_surge
    else:
        raise ValueError(f"unknown traffic class {traffic_class!r}")
    if t_since_strike_ms < 0 or not curve:
        return 1.0
    times = [t for t, _ in curve]
    values = [m for _, m in curve]
    if t_since_strike_ms <= times[0]:
        return values[0]
    if t_since_strike_ms >= times[-1]:
        return values[-1]
    for i in range(1, len(times)):
        if t_since_strike_ms <= times[i]:
            span = times[i] - times[i - 1]
            frac = (t_since_strike_ms - times[i - 1]) / span
            return values[i - 1] + frac * (values[i] - values[i - 1])
    return values[-1]


def inject_disaster(scenario: Scenario, event: DisasterEvent) -> list[tuple[int, str, dict[str, Any]]]:
    """Expand one disaster into kernel event specs: the strike itself plus a
    battery expiry per power-loss node at strike + reserve."""
    event.validate()
    known = {n.node_id for n in scenario.nodes}
    for nid in (*event.failed, *event.power_loss):
        if nid not in known:
            raise UnknownNode(nid)
    specs: list[tuple[int, str, dict[str, Any]]] = [
        (
            event.strike_time_ms,
            "DisasterStrike",
            {
                "failed": list(event.failed),
                "power_loss": list(event.power_loss),
                "blockages": [list(map(list, b)) for b in event.blockages],
            },
        )
    ]
    for nid in event.power_loss:
        specs.append(
            (event.strike_time_ms + scenario.battery_reserve_ms, "BatteryExpiry", {"node_id": nid})
        )
    return specs


def _node_from_dict(raw: dict[str, Any]) -> Node:
    try:
        kind = NodeKind(raw["kind"])
    except ValueError as exc:
        raise ParseError(f"node {raw.get('id')!r}: unknown kind {raw.get('kind')!r}") from exc
    except KeyError as exc:
        raise ParseError(f"node entry missing key {exc}") from exc
    if "id" not in raw or "position" not in raw:
        raise ParseError(f"node entry missing 'id' or 'position': {raw}")
    pos = raw["position"]
    if len(pos) != 3:
        raise ParseError(f"node {raw['id']}: position must be [x, y, z]")
    return Node(
        node_id=str(raw["id"]),
        kind=kind,
        position=tuple(float(c) for c in pos),
        status=NodeStatus(raw.get("status", "Operational")),
        tx_power_dbm=float(raw.get("tx_power_dbm", 30.0)),
        freq_ghz=float(raw.get("freq_ghz", 3.5)),
        battery_ms=raw.get("battery_ms"),
        ris=raw.get("ris"),
    )


def _channel_from_dict(raw: dict[str, Any]) -> ChannelParams:
    mcs = raw.get("mcs_table")
    return ChannelParams(
        exponent=float(raw.get("exponent", 2.0)),
        d0_m=float(raw.get("d0_m", 1.0)),
        blockage_penalty_db=float(raw.get("blockage_penalty_db", 20.0)),
        noise_figure_db=float(raw.get("noise_figure_db", 7.0)),
        bandwidth_hz=float(raw.get("bandwidth_hz", 20e6)),
        mcs_table=tuple((float(a), float(b)) for a, b in mcs) if mcs else DEFAULT_MCS,
        scatter_floor_db=raw.get("scatter_floor_db"),
        fading=bool(raw.get("fading", False)),
    )


def _surge_from_dict(raw, default) -> tuple[tuple[int, float], ...]:
    if raw is None:
        return default
    return tuple((int(t), float(m)) for t, m in raw)


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    if "nodes" not in data:
        raise ParseError("scenario file missing 'nodes'")
    nodes = tuple(_node_from_dict(n) for n in data["nodes"])
    traffic_raw = data.get("traffic", {})
    traffic = TrafficProfile(
        data_mbps=float(traffic_raw.get("data_mbps", 2.0)),
        voice_mbps=float(traffic_raw.get("voice_mbps", 0.1)),
        data_surge=_surge_from_dict(traffic_raw.get("data_surge"), DEFAULT_DATA_SURGE),
        voice_surge=_surge_from_dict(traffic_raw.get("voice_surge"), DEFAULT_VOICE_SURGE),
    )
    disasters = tuple(
        DisasterEvent(
            strike_time_ms=int(d["time_ms"]),
            failed=tuple(d.get("fail", ())),
            power_loss=tuple(d.get("power_loss", ())),
            blockages=tuple(
                (tuple(map(float, lo)), tuple(map(float, hi))) for lo, hi in d.get("blockages", ())
            ),
        )
        for d in data.get("disasters", ())
    )
    obstacles = tuple(
        (tuple(map(float, lo)), tuple(map(float, hi))) for lo, hi in data.get("obstacles", ())
    )
    ticks = data.get("ticks", {})
    scenario = Scenario(
        nodes=nodes,
        traffic=traffic,
        disasters=disasters,
        obstacles=obstacles,
        seed=int(data.get("seed", 0)),
        non_rt_tick_ms=int(ticks.get("non_rt_ms", DEFAULT_NON_RT_TICK_MS)),
        near_rt_tick_ms=int(ticks.get("near_rt_ms", DEFAULT_NEAR_RT_TICK_MS)),
        sample_interval_ms=int(ticks.get("sample_ms", DEFAULT_SAMPLE_INTERVAL_MS)),
        battery_reserve_ms=int(data.get("battery_reserve_ms", DEFAULT_BATTERY_RESERVE_MS)),
        channel=_channel_from_dict(data.get("channel", {})),
        cfmimo=dict(data.get("cfmimo", {})),
        ric=dict(data.get("ric", {})),
        planner=dict(data.get("planner", {})),
    )
    scenario.validate()
    return scenario


def scenario_to_dict(s: Scenario) -> dict[str, Any]:
    return {
        "seed": s.seed,
        "ticks": {
            "non_rt_ms": s.non_rt_tick_ms,
            "near_rt_ms": s.near_rt_tick_ms,
            "sample_ms": s.sample_interval_ms,
        },
        "battery_reserve_ms": s.battery_reserve_ms,
        "nodes": [
            {
                "id": n.node_id,
                "kind": n.kind.value,
                "position": list(n.position),
                "status": n.status.value,
                "tx_power_dbm": n.tx_power_dbm,
                "freq_ghz": n.freq_ghz,
                **({"battery_ms": n.battery_ms} if n.battery_ms is not None else {}),
                **({"ris": n.ris} if n.ris is not None else {}),
            }
            for n in s.nodes
        ],
        "traffic": {
            "data_mbps": s.traffic.data_mbps,
            "voice_mbps": s.traffic.voice_mbps,
            "data_surge": [list(k) for k in s.traffic.data_surge],
            "voice_surge": [list(k) for k in s.traffic.voice_surge],
        },
        "disasters": [
            {
                "time_ms": d.strike_time_ms,
                "fail": list(d.failed),
                "power_loss": list(d.power_loss),
                "blockages": [[list(lo), list(hi)] for lo, hi in d.blockages],
            }
            for d in s.disasters
        ],
        "obstacles": [[list(lo), list(hi)] for lo, hi in s.obstacles],
        "channel": {
            "exponent": s.channel.exponent,
            "d0_m": s.channel.d0_m,
            "blockage_penalty_db": s.channel.blockage_penalty_db,
            "noise_figure_db": s.channel.noise_figure_db,
            "bandwidth_hz": s.channel.bandwidth_hz,
            "mcs_table": [list(row) for row in s.channel.mcs_table],
            **(
                {"scatter_floor_db": s.channel.scatter_floor_db}
                if s.channel.scatter_floor_db is not None
                else {}
            ),
            "fading": s.channel.fading,
        },
        "cfmimo": s.cfmimo,
        "ric": s.ric,
        "planner": s.planner,
    }


def load_scenario(file_path: str) -> Scenario:
    try:
        with open(file_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {file_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{file_path}:{exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)


def save_scenario(s: Scenario, file_path: str) -> None:
    with open(file_path, "w") as fh:
        json.dump(scenario_to_dict(s), fh, indent=2)
        fh.write("\n")


def with_seed(s: Scenario, seed: int) -> Scenario:
    return replace(s, seed=seed)
