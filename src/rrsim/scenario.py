"""World model: node inventory, geometry, traffic surge profile, disaster schedule,
and scenario file ingestion."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from enum import Enum
from itertools import pairwise
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
# Iterating an Enum is slow: the names a node may use, listed once.
_KINDS, _STATUSES = tuple(k.value for k in NodeKind), tuple(s.value for s in NodeStatus)

POLICY_FAST_RECOVERY = "fast-recovery"
POLICY_MAX_THROUGHPUT = "max-throughput"
POLICY_RIS_OFF = "ris-off"
POLICIES = (POLICY_FAST_RECOVERY, POLICY_MAX_THROUGHPUT, POLICY_RIS_OFF)


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
        for name, load in (("data_mbps", self.data_mbps), ("voice_mbps", self.voice_mbps)):
            if not (0.0 <= load < math.inf):
                raise ValidationError(f"traffic {name} must be finite and non-negative, got {load}")
        for curve in (self.data_surge, self.voice_surge):
            times = [t for t, _ in curve]
            if times != sorted(times):
                raise ValidationError("surge knots must be time-sorted")
            if not all(0.0 <= m < math.inf for _, m in curve):
                raise ValidationError("surge multipliers must be finite and non-negative")


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
        panels = {n.node_id: n for n in self.nodes if n.kind == NodeKind.RIS_PANEL}
        for panel_id, cfg in self.ric.get("ris", {}).items():
            if not isinstance(cfg, dict):
                raise ValidationError(f"RIS panel {panel_id}: entry must be an object")
            if cfg.get("tx") not in known:
                raise UnknownNode(f"RIS panel {panel_id} tx references unknown node {cfg.get('tx')!r}")
            if panel_id not in panels:
                raise UnknownNode(f"{_where('ric', 'ris', panel_id)}: unknown RIS panel {panel_id!r}")
            _check_ris_parts(cfg.get("parts", {}), panels[panel_id], known, "ric", "ris", panel_id, "parts")
        for i, move in enumerate(self.ric.get("ue_moves", ())):
            if move.get("node_id") not in known:
                raise UnknownNode(f"ric.ue_moves[{i}].node_id: unknown node {move.get('node_id')!r}")


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
    if t_since_strike_ms <= curve[0][0]:
        return curve[0][1]
    if t_since_strike_ms >= curve[-1][0]:
        return curve[-1][1]
    for (t0, m0), (t1, m1) in pairwise(curve):
        if t_since_strike_ms <= t1:
            return m0 + (t_since_strike_ms - t0) / (t1 - t0) * (m1 - m0)
    return curve[-1][1]


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


def _where(*path: str | int) -> str:
    """The field path ("nodes", 3, "position", 0) as nodes[3].position[0]."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:]


# The kinds of _number: converters by what each expects.
_NOUNS = {int: "an integer", float: "a number"}


def _kind(noun: str, convert: type, accept):
    """A kind that gives convert(value) if accept passes it."""

    def kind(value: Any) -> Any:
        x = convert(value)
        if accept(x):
            return x
        raise ValueError

    _NOUNS[kind] = noun
    return kind


_finite = _kind("a finite number", float, math.isfinite)
_positive = _kind("a finite number > 0", float, lambda x: 0.0 < x < math.inf)
_count = _kind("an integer >= 1", int, lambda n: n >= 1)
_part_count = _kind("the integer 1 or 2", lambda v: v, lambda v: type(v) is int and v in (1, 2))


def _number(kind, value: Any, *path: str | int) -> Any:
    """kind(value), for a kind of _NOUNS, or a ParseError that names the
    field. The path is formatted only on failure."""
    try:
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{_where(*path)}: expected {_NOUNS[kind]}, got {value!r}") from None


# The default of a _field that must be present.
_REQUIRED = object()


def _field(raw: dict[str, Any], key: str, kind, default: Any, *path: str | int) -> Any:
    value = raw.get(key, default)
    if value is _REQUIRED:
        raise ParseError(f"{_where(*path, key)}: missing")
    return _number(kind, value, *path, key)


def _flag(raw: dict[str, Any], key: str, *path: str | int) -> bool:
    """raw[key], False when absent; any value but true or false is a
    ParseError."""
    value = raw.get(key, False)
    if not isinstance(value, bool):
        raise ParseError(f"{_where(*path, key)}: expected true or false, got {value!r}")
    return value


def _object(raw, *path: str | int) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ParseError(f"{_where(*path)}: expected an object, got {raw!r}")
    return raw


def _settings(raw, kinds: dict[str, Any], *path: str | int) -> dict[str, Any]:
    """A free-form object, with the value of each key of kinds converted."""
    settings = dict(_object(raw, *path))
    for key, kind in kinds.items():
        if key in settings:
            settings[key] = _number(kind, settings[key], *path, key)
    return settings


def _optional(raw: dict[str, Any], key: str, kind, *path: str | int) -> Any:
    return None if raw.get(key) is None else _number(kind, raw[key], *path, key)


def _list(raw, *path: str | int):
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"{_where(*path)}: expected a list, got {raw!r}")
    return raw


def _point(raw, *path: str | int, dims: int = 3) -> tuple[float, ...]:
    """dims finite coordinates."""
    if not isinstance(raw, (list, tuple)) or len(raw) != dims:
        shape = "[x, y, z]" if dims == 3 else "[x, y]"
        raise ParseError(f"{_where(*path)}: expected a point {shape} of finite numbers, got {raw!r}")
    try:
        point = tuple(map(float, raw))
        if math.isfinite(sum(point)):  # a sum that overflows takes the slow path
            return point
    except (TypeError, ValueError, OverflowError):
        pass
    return tuple(_number(_finite, c, *path, k) for k, c in enumerate(raw))


def _choice(raw, choices, *path: str | int):
    """raw if it is one of choices, else a ParseError that names the field
    by the last key of its path and lists the choices."""
    if raw not in choices:
        raise ParseError(f"{_where(*path)}: unknown {path[-1]} {raw!r} (choose from {', '.join(choices)})")
    return raw


def _pair(raw, shape: str, *path: str | int):
    if not isinstance(raw, (list, tuple)) or len(raw) != 2:
        raise ParseError(f"{_where(*path)}: expected a pair {shape}, got {raw!r}")
    return raw


def _corners(raw, *path: str | int, dims: int = 3) -> tuple[tuple[float, ...], tuple[float, ...]]:
    lo, hi = _pair(raw, "of corners [lo, hi]", *path)
    return _point(lo, *path, 0, dims=dims), _point(hi, *path, 1, dims=dims)


def _boxes(raw, *path: str | int) -> tuple:
    """Axis-aligned boxes, each a pair of corners."""
    return tuple(_corners(box, *path, j) for j, box in enumerate(_list(raw, *path)))


def _pairs(raw, first, second, *path: str | int) -> tuple[tuple[Any, Any], ...]:
    """Rows of two numbers: first(a), second(b)."""
    rows = [_pair(row, "[a, b]", *path, i) for i, row in enumerate(_list(raw, *path))]
    return tuple(
        (_number(first, a, *path, i, 0), _number(second, b, *path, i, 1))
        for i, (a, b) in enumerate(rows)
    )


# Panel layout keys read by World, with their types.
_RIS_LAYOUT = {"rows": int, "cols": int, "pitch_m": float, "normal_axis": int, "parts": _part_count}


def _node_from_dict(raw, index: int) -> Node:
    raw = _object(raw, "nodes", index)
    kind = _choice(raw.get("kind"), _KINDS, "nodes", index, "kind")
    status = _choice(raw.get("status", "Operational"), _STATUSES, "nodes", index, "status")
    if "id" not in raw or "position" not in raw:
        raise ParseError(f"node entry missing 'id' or 'position': {raw}")
    ris = raw.get("ris")
    if ris is not None:
        ris = _settings(ris, _RIS_LAYOUT, "nodes", index, "ris")
    return Node(
        node_id=str(raw["id"]),
        kind=NodeKind(kind),
        position=_point(raw["position"], "nodes", index, "position"),
        status=NodeStatus(status),
        tx_power_dbm=_number(_finite, raw.get("tx_power_dbm", 30.0), "nodes", index, "tx_power_dbm"),
        freq_ghz=_number(_positive, raw.get("freq_ghz", 3.5), "nodes", index, "freq_ghz"),
        battery_ms=_optional(raw, "battery_ms", int, "nodes", index),
        ris=ris,
    )


def _channel_from_dict(raw: dict[str, Any]) -> ChannelParams:
    mcs = raw.get("mcs_table")
    return ChannelParams(
        exponent=_field(raw, "exponent", _finite, 2.0, "channel"),
        d0_m=_field(raw, "d0_m", _positive, 1.0, "channel"),
        blockage_penalty_db=_field(raw, "blockage_penalty_db", _finite, 20.0, "channel"),
        noise_figure_db=_field(raw, "noise_figure_db", _finite, 7.0, "channel"),
        bandwidth_hz=_field(raw, "bandwidth_hz", _positive, 20e6, "channel"),
        mcs_table=_pairs(mcs, _finite, _finite, "channel", "mcs_table") if mcs else DEFAULT_MCS,
        scatter_floor_db=_optional(raw, "scatter_floor_db", _finite, "channel"),
        fading=_flag(raw, "fading", "channel"),
    )


def _surge(raw: dict[str, Any], key: str, default) -> tuple[tuple[int, float], ...]:
    return default if raw.get(key) is None else _pairs(raw[key], int, float, "traffic", key)


def _check_ris_parts(parts, panel: Node, known: set[str], *path: str) -> None:
    """Each part of a ric.ris entry names a part of the panel (0, and 1
    when the panel is split in halves), a known `ue` and 3-D reference
    points."""
    part_ids = ("0", "1") if (panel.ris or {}).get("parts") == 2 else ("0",)
    for key, part in _object(parts, *path).items():
        if key not in part_ids:
            raise ParseError(f"{_where(*path)}: unknown part {key!r} (choose from {', '.join(part_ids)})")
        part = _object(part, *path, key)
        if part.get("ue") not in known:
            raise UnknownNode(f"{_where(*path, key, 'ue')}: unknown node {part.get('ue')!r}")
        points = (*path, key, "reference_points")
        for k, point in enumerate(_list(part.get("reference_points") or (), *points)):
            _point(point, *points, k)


def _ric(raw) -> dict[str, Any]:
    """The free-form ric object, with each policy name and `ris_off` flag
    checked and the time of each script entry and the time and position of
    each UE move converted."""
    ric = dict(_object(raw, "ric"))
    if "policy" in ric:
        _choice(ric["policy"], POLICIES, "ric", "policy")
    if "script" in ric:
        path = ("ric", "script")
        script = []
        for i, entry in enumerate(_list(ric["script"], *path)):
            time_ms = _field(_object(entry, *path, i), "time_ms", int, _REQUIRED, *path, i)
            if "policy" in entry:
                _choice(entry["policy"], POLICIES, *path, i, "policy")
            _flag(entry, "ris_off", *path, i)
            script.append({**entry, "time_ms": time_ms})
        ric["script"] = script
    if "ue_moves" in ric:
        path = ("ric", "ue_moves")
        moves = []
        for i, move in enumerate(_list(ric["ue_moves"], *path)):
            time_ms = _field(_object(move, *path, i), "time_ms", int, _REQUIRED, *path, i)
            position = _point(move.get("position"), *path, i, "position")
            moves.append({**move, "time_ms": time_ms, "position": position})
        ric["ue_moves"] = moves
    return ric


# Planner numbers converted at load; build_plan keeps its defaults.
_PLANNER = {
    **dict.fromkeys(
        ("snr_threshold_db", "uav_altitude_m", "uav_tx_power_dbm", "backhaul_threshold_db"), _finite
    ),
    **dict.fromkeys(("uav_freq_ghz", "candidate_spacing_m"), _positive),
    "max_nodes": int,
}


def _planner(raw) -> dict[str, Any]:
    planner = _settings(raw, _PLANNER, "planner")
    if planner.get("max_nodes", 0) < 0:
        raise ParseError(f"planner.max_nodes: expected an integer >= 0, got {planner['max_nodes']!r}")
    bounds = planner.get("candidate_bounds")
    if bounds is not None:
        lo, hi = planner["candidate_bounds"] = _corners(bounds, "planner", "candidate_bounds", dims=2)
        if lo[0] > hi[0] or lo[1] > hi[1]:
            raise ParseError(f"planner.candidate_bounds: expected lo <= hi, got {bounds!r}")
    if "relay_sites" in planner:
        path = ("planner", "relay_sites")
        sites = _list(planner["relay_sites"], *path)
        planner["relay_sites"] = tuple(_point(site, *path, i) for i, site in enumerate(sites))
    return planner


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    if "nodes" not in data:
        raise ParseError("scenario file missing 'nodes'")
    nodes = tuple(_node_from_dict(n, i) for i, n in enumerate(data["nodes"]))
    traffic_raw = data.get("traffic", {})
    traffic = TrafficProfile(
        data_mbps=_field(traffic_raw, "data_mbps", float, 2.0, "traffic"),
        voice_mbps=_field(traffic_raw, "voice_mbps", float, 0.1, "traffic"),
        data_surge=_surge(traffic_raw, "data_surge", DEFAULT_DATA_SURGE),
        voice_surge=_surge(traffic_raw, "voice_surge", DEFAULT_VOICE_SURGE),
    )
    disasters = tuple(
        DisasterEvent(
            strike_time_ms=_field(_object(d, "disasters", i), "time_ms", int, _REQUIRED, "disasters", i),
            failed=tuple(d.get("fail", ())),
            power_loss=tuple(d.get("power_loss", ())),
            blockages=_boxes(d.get("blockages", ()), "disasters", i, "blockages"),
        )
        for i, d in enumerate(data.get("disasters", ()))
    )
    ticks = data.get("ticks", {})
    scenario = Scenario(
        nodes=nodes,
        traffic=traffic,
        disasters=disasters,
        obstacles=_boxes(data.get("obstacles", ()), "obstacles"),
        seed=_field(data, "seed", int, 0),
        non_rt_tick_ms=_field(ticks, "non_rt_ms", int, DEFAULT_NON_RT_TICK_MS, "ticks"),
        near_rt_tick_ms=_field(ticks, "near_rt_ms", int, DEFAULT_NEAR_RT_TICK_MS, "ticks"),
        sample_interval_ms=_field(ticks, "sample_ms", int, DEFAULT_SAMPLE_INTERVAL_MS, "ticks"),
        battery_reserve_ms=_field(data, "battery_reserve_ms", int, DEFAULT_BATTERY_RESERVE_MS),
        channel=_channel_from_dict(data.get("channel", {})),
        cfmimo=_settings(data.get("cfmimo", {}), {"L": _count}, "cfmimo"),
        ric=_ric(data.get("ric", {})),
        planner=_planner(data.get("planner", {})),
    )
    scenario.validate()
    return scenario


def load_scenario(file_path: str) -> Scenario:
    try:
        with open(file_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {file_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{file_path}:{exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)
