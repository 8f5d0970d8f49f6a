"""World model: node inventory, geometry, traffic surge profile, disaster schedule,
and scenario file ingestion.

A scenario file is parsed once, here, into frozen values. Each settings
object (`channel`, `traffic`, `planner`, `ric` with its RIS panels, parts and
script rows, `cfmimo`, and a node's `ris`) is a type whose fields hold their
defaults. One reader, `_read`, turns a JSON object into any of them, or into
a `Node` or a `DisasterEvent`, whose keys are not all field names; the top
level, `ticks` and `ric.ue_moves` go through the same checks. At every level
a key that is not a field, a missing required key, or a value of the wrong
shape is a `ParseError` that names its path.

A value is checked once, when it is built: `Node`, `TrafficProfile`,
`DisasterEvent`, `PlannerSettings` and `CellFreeSettings` check their own
fields, and `Scenario` its tick ranges, seed, battery reserve and event
times, each node's `RisLayout` (by `RisLayout.check`, with the node's path),
and what spans objects, such as the node ids that settings refer to and
RIS links with a segment of length zero (`_check_ris_links`). The
reader of a field whose type checks its range checks only the JSON type,
under the same noun. A scenario built in Python or by `dataclasses.replace`
is checked the same way, so a `Scenario` that exists is valid, and the rest
of the program reads its attributes as they are.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import MISSING, dataclass, field, fields
from enum import Enum
from functools import partial
from itertools import chain, pairwise
from typing import Any, Callable, NamedTuple, NoReturn

import numpy as np

from .channel import ChannelParams, RisPanel

DEFAULT_BATTERY_RESERVE_MS = 14_400_000  # 4 hours of internal energy reserve
DEFAULT_NON_RT_TICK_MS = 60_000
DEFAULT_NEAR_RT_TICK_MS = 100
DEFAULT_SAMPLE_INTERVAL_MS = 5_000
# The tick ranges of the controller tiers, ms.
NON_RT_MIN_INTERVAL_MS = 1_000
NEAR_RT_MIN_INTERVAL_MS = 10
NEAR_RT_MAX_INTERVAL_MS = 1_000

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


class _Range(NamedTuple):
    """A range rule that a type checks in `__post_init__`: the noun of its
    message and the test. The reader of such a field checks only its JSON
    type, under the same noun, so both failures read alike."""

    noun: str
    test: Callable[[Any], bool]

    def check(self, value: Any, *path: str | int) -> None:
        if not self.test(value):
            raise ValidationError(f"{_where(*path)}: expected {self.noun}, got {value!r}")


_AT_LEAST_0 = _Range("an integer >= 0", lambda n: n >= 0)
_AT_LEAST_1 = _Range("an integer >= 1", lambda n: n >= 1)
_NON_RT_TICK = _Range(f"an integer >= {NON_RT_MIN_INTERVAL_MS}", lambda n: n >= NON_RT_MIN_INTERVAL_MS)
_NEAR_RT_TICK = _Range(
    f"an integer in [{NEAR_RT_MIN_INTERVAL_MS}, {NEAR_RT_MAX_INTERVAL_MS}]",
    lambda n: NEAR_RT_MIN_INTERVAL_MS <= n <= NEAR_RT_MAX_INTERVAL_MS,
)
# Exact for an int too large for a float, which `float()` would not convert.
_ABOVE_0 = _Range("a finite number > 0", lambda x: 0.0 < x <= sys.float_info.max)
_AXIS = _Range("an integer in [0, 2]", lambda n: 0 <= n <= 2)
_PART_COUNT = _Range("the integer 1 or 2", lambda n: n in (1, 2))


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

POLICY_FAST_RECOVERY = "fast-recovery"
POLICY_MAX_THROUGHPUT = "max-throughput"
POLICY_RIS_OFF = "ris-off"
POLICIES = (POLICY_FAST_RECOVERY, POLICY_MAX_THROUGHPUT, POLICY_RIS_OFF)


@dataclass(frozen=True)
class RisLayout:
    """A node's `ris`: the element grid of a RisPanel, split in halves when
    parts is 2."""

    rows: int = 4
    cols: int = 19
    pitch_m: float = 0.04
    normal_axis: int = 1
    parts: int = 1

    def check(self, *path: str | int) -> None:
        """The layout's range rules, with path the layout's place in a
        scenario file. A layout does not know which node holds it, so
        `Scenario` checks each one with its node's index."""
        _AT_LEAST_1.check(self.rows, *path, "rows")
        _AT_LEAST_1.check(self.cols, *path, "cols")
        _ABOVE_0.check(self.pitch_m, *path, "pitch_m")
        _AXIS.check(self.normal_axis, *path, "normal_axis")
        _PART_COUNT.check(self.parts, *path, "parts")


@dataclass(frozen=True)
class Node:
    node_id: str
    kind: NodeKind
    position: tuple[float, float, float]
    status: NodeStatus = NodeStatus.OPERATIONAL
    tx_power_dbm: float = 30.0
    freq_ghz: float = 3.5
    battery_ms: int | None = None
    ris: RisLayout | None = None  # a RisPanel's grid, the default one if not given; only a RisPanel has one

    def __post_init__(self) -> None:
        if self.kind == NodeKind.RIS_PANEL and self.ris is None:
            object.__setattr__(self, "ris", RisLayout())
        if self.kind == NodeKind.UAV and self.position[2] <= 0:
            raise ValidationError(f"UAV {self.node_id} altitude must be > 0")
        if self.status == NodeStatus.ON_BATTERY and not (self.battery_ms and self.battery_ms > 0):
            raise ValidationError(f"OnBattery node {self.node_id} needs battery_ms > 0")

    @property
    def serving(self) -> bool:
        return self.status in SERVING_STATUSES


@dataclass(frozen=True)
class TrafficProfile:
    data_mbps: float = 2.0
    voice_mbps: float = 0.1
    data_surge: tuple[tuple[int, float], ...] = DEFAULT_DATA_SURGE
    voice_surge: tuple[tuple[int, float], ...] = DEFAULT_VOICE_SURGE

    def __post_init__(self) -> None:
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

    def __post_init__(self) -> None:
        overlap = set(self.failed) & set(self.power_loss)
        if overlap:
            raise ValidationError(f"nodes in both failure and power-loss sets: {sorted(overlap)}")


@dataclass(frozen=True)
class RisPart:
    """`ric.ris.<panel>.parts.<id>`: the UE that a panel part serves, and the
    points of its offline codebook (none, no codebook)."""

    ue: str
    reference_points: tuple[tuple[float, float, float], ...] = ()


@dataclass(frozen=True)
class RisPanelSettings:
    """`ric.ris.<panel>`: the panel's transmitter, and its parts by id ("0",
    and "1" for a panel split in halves)."""

    tx: str
    parts: dict[str, RisPart] = field(default_factory=dict)


@dataclass(frozen=True)
class ScriptEntry:
    """`ric.script[i]`: at time_ms, switch to policy (None keeps the
    current one) and, with ris_off, set every panel part to state 0."""

    time_ms: int
    policy: str | None = None
    ris_off: bool = False


class UeMove(NamedTuple):
    """`ric.ue_moves[i]`: the UE node_id walks to position at time_ms."""

    time_ms: int
    node_id: str
    position: tuple[float, float, float]


@dataclass(frozen=True)
class RicSettings:
    policy: str = POLICY_MAX_THROUGHPUT
    ris: dict[str, RisPanelSettings] = field(default_factory=dict)
    script: tuple[ScriptEntry, ...] = ()
    ue_moves: tuple[UeMove, ...] = ()
    disabled_apps: tuple[str, ...] = ()  # built-in apps that are not registered


@dataclass(frozen=True)
class PlannerSettings:
    """The coverage threshold, which the measurement and the failure monitor
    share with the planner, and the UAVs of one planning pass. Without
    candidate_bounds, the candidates span the UEs out of service plus one
    spacing."""

    snr_threshold_db: float = 3.0
    max_nodes: int = 3
    uav_altitude_m: float = 120.0
    uav_tx_power_dbm: float = 35.0
    uav_freq_ghz: float = 3.5
    candidate_spacing_m: float = 500.0
    candidate_bounds: tuple[tuple[float, float], tuple[float, float]] | None = None
    backhaul_threshold_db: float = 10.0
    relay_sites: tuple[tuple[float, float, float], ...] = ()

    def __post_init__(self) -> None:
        _AT_LEAST_0.check(self.max_nodes, "planner", "max_nodes")
        # Floats, as the defaults are: the altitude becomes the z of every
        # candidate, which `rrs plan` writes.
        for name in ("uav_altitude_m", "uav_freq_ghz", "candidate_spacing_m"):
            _ABOVE_0.check(getattr(self, name), "planner", name)
            object.__setattr__(self, name, float(getattr(self, name)))


@dataclass(frozen=True)
class CellFreeSettings:
    L: int = 2  # access points serving each UE

    def __post_init__(self) -> None:
        _AT_LEAST_1.check(self.L, "cfmimo", "L")


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
    cfmimo: CellFreeSettings = CellFreeSettings()
    ric: RicSettings = RicSettings()
    planner: PlannerSettings = PlannerSettings()

    def __post_init__(self) -> None:
        _AT_LEAST_0.check(self.seed, "seed")
        _NON_RT_TICK.check(self.non_rt_tick_ms, "ticks", "non_rt_ms")
        _NEAR_RT_TICK.check(self.near_rt_tick_ms, "ticks", "near_rt_ms")
        _AT_LEAST_1.check(self.sample_interval_ms, "ticks", "sample_ms")
        _AT_LEAST_1.check(self.battery_reserve_ms, "battery_reserve_ms")
        ids = [n.node_id for n in self.nodes]
        if len(ids) != len(set(ids)):
            dupes = sorted({i for i in ids if ids.count(i) > 1})
            raise ValidationError(f"node ids unique: duplicates {dupes}")
        if not any(n.kind == NodeKind.GATEWAY for n in self.nodes):
            raise ValidationError("scenario needs at least one Gateway")
        for i, node in enumerate(self.nodes):
            if node.ris is not None and node.kind != NodeKind.RIS_PANEL:
                raise ValidationError(
                    f"nodes[{i}].ris: only a RisPanel has a layout, {node.node_id} is a {node.kind.value}"
                )
            if node.ris is not None:
                node.ris.check("nodes", i, "ris")
            if node.ris is not None and node.ris.parts == 2 and node.ris.rows * node.ris.cols < 2:
                raise ValidationError(
                    f"nodes[{i}].ris: a panel in 2 parts needs at least 2 elements, {node.node_id} has "
                    f"{node.ris.rows * node.ris.cols}"
                )
        thresholds = [min_snr for min_snr, _ in self.channel.mcs_table]
        if thresholds != sorted(thresholds):
            raise ValidationError("MCS table must be sorted by min SNR")
        kinds = {n.node_id: n.kind for n in self.nodes}
        for i, event in enumerate(self.disasters):
            _AT_LEAST_0.check(event.strike_time_ms, "disasters", i, "time_ms")
            for nid in (*event.failed, *event.power_loss):
                if nid not in kinds:
                    raise UnknownNode(f"disaster references unknown node {nid}")
        panels = {n.node_id: n for n in self.nodes if n.kind == NodeKind.RIS_PANEL}
        for panel_id, panel in self.ric.ris.items():
            if panel.tx not in kinds:
                raise UnknownNode(f"RIS panel {panel_id} tx references unknown node {panel.tx!r}")
            if panel_id not in panels:
                raise UnknownNode(f"ric.ris.{panel_id}: unknown RIS panel {panel_id!r}")
            part_ids = ("0", "1") if panels[panel_id].ris.parts == 2 else ("0",)
            for part_id, part in panel.parts.items():
                path = f"ric.ris.{panel_id}.parts"
                if part_id not in part_ids:
                    raise ValidationError(
                        f"{path}: unknown part {part_id!r} (choose from {', '.join(part_ids)})"
                    )
                if part.ue not in kinds:
                    raise UnknownNode(f"{path}.{part_id}.ue: unknown node {part.ue!r}")
                if kinds[part.ue] != NodeKind.UE:
                    kind = kinds[part.ue].value
                    raise ValidationError(f"{path}.{part_id}.ue: {part.ue} is a {kind}, not a UE")
        for i, move in enumerate(self.ric.ue_moves):
            _AT_LEAST_0.check(move.time_ms, "ric", "ue_moves", i, "time_ms")
            if move.node_id not in kinds:
                raise UnknownNode(f"ric.ue_moves[{i}].node_id: unknown node {move.node_id!r}")
            if kinds[move.node_id] != NodeKind.UE:
                kind = kinds[move.node_id].value
                raise ValidationError(f"ric.ue_moves[{i}].node_id: {move.node_id} is a {kind}, not a UE")
        if self.ric.ris:
            _check_ris_links(self)


def _check_ris_links(scenario: Scenario) -> None:
    """No RIS link may have a segment of length zero, which the channel
    model cannot evaluate. The panel's tx and each part's UE may not be on
    an element where they start or where a move takes them, nor on each
    other at the start or after any move, the moves taken as the kernel
    takes them: by time, then as listed. A reference point may not be on an
    element, nor on the tx where it starts, where the codebooks are built.
    The distances are computed as the model computes them."""
    index = {n.node_id: i for i, n in enumerate(scenario.nodes)}
    moves = scenario.ric.ue_moves
    in_order = sorted(range(len(moves)), key=lambda i: moves[i].time_ms)
    for panel_id, settings in scenario.ric.ris.items():
        node = scenario.nodes[index[panel_id]]
        layout = node.ris
        elements = RisPanel.planar(
            panel_id, node.position, layout.rows, layout.cols, layout.pitch_m, layout.normal_axis
        ).element_positions
        tx_id, ues = settings.tx, sorted({part.ue for part in settings.parts.values()})
        # Each place that must be off the elements (its field path and
        # point), and each pair of places that a link joins at one time, as
        # their indices in `points`, with the name of the second.
        here = {nid: m for m, nid in enumerate(dict.fromkeys((tx_id, *ues)))}  # the tx first
        paths = [("nodes", index[nid], "position") for nid in here]
        points = [scenario.nodes[path[1]].position for path in paths]
        tx_name = f"{tx_id}, the tx"
        pairs = [(here[ue], here[tx_id]) for ue in ues]
        names = [tx_name] * len(ues)
        for i in in_order:
            nid = moves[i].node_id
            if nid in here:
                here[nid] = len(points)
                paths.append(("ric", "ue_moves", i, "position"))
                points.append(moves[i].position)
                if nid == tx_id:
                    pairs += [(here[tx_id], here[ue]) for ue in ues]
                    names += [f"{ue}, a UE" for ue in ues]
                else:
                    pairs.append((here[nid], here[tx_id]))
                    names.append(tx_name)
        for part_id, part in settings.parts.items():
            for k, point in enumerate(part.reference_points):
                pairs.append((len(points), 0))  # the tx where it starts
                names.append(tx_name)
                paths.append(("ric", "ris", panel_id, "parts", part_id, "reference_points", k))
                points.append(point)
        rx = np.fromiter(chain.from_iterable(points), float, 3 * len(points)).reshape(-1, 3)
        # A point at distance zero from an element is at distance zero from
        # the elements' bounding box, so only such points are compared with
        # every element.
        gap = np.maximum(elements.min(axis=0) - rx, 0.0) + np.maximum(rx - elements.max(axis=0), 0.0)
        for m in np.flatnonzero((gap * gap <= 0.0).all(axis=1)).tolist():
            hit = np.flatnonzero(np.linalg.norm(rx[m] - elements, axis=1) <= 0.0)
            if hit.size:
                where = _where(*paths[m])
                raise ValidationError(f"{where}: {points[m]} is on element {hit[0]} of RIS panel {panel_id}")
        ends = np.fromiter(chain.from_iterable(pairs), int, 2 * len(pairs)).reshape(-1, 2)
        on = np.flatnonzero(np.linalg.norm(rx[ends[:, 0]] - rx[ends[:, 1]], axis=1) <= 0.0)
        if on.size:
            n = int(on[0])
            m = pairs[n][0]
            raise ValidationError(f"{_where(*paths[m])}: {points[m]} is on {names[n]} of RIS panel {panel_id}")


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


# --- reading a scenario file ---------------------------------------------------
#
# A reader takes a JSON value and its field path, and gives the value of the
# field or raises a ParseError that names the path. The path is formatted
# only on failure.


def _where(*path: str | int) -> str:
    """The field path ("nodes", 3, "position", 0) as nodes[3].position[0];
    the top level is "scenario"."""
    return "".join(f"[{p}]" if isinstance(p, int) else f".{p}" for p in path)[1:] or "scenario"


def _kind(noun: str, types: frozenset, convert=None, accept=None):
    """A reader of a value whose type is one of types, compared exactly, so
    that a bool is not an int: convert(value), or the value itself when
    convert is None, if accept passes it."""

    def read(value: Any, *path: str | int) -> Any:
        if type(value) in types:
            try:
                x = value if convert is None else convert(value)
                if accept is None or accept(x):
                    return x
            except OverflowError:  # float() of an int too large
                pass
        raise ParseError(f"{_where(*path)}: expected {noun}, got {value!r}")

    return read


# The JSON types a field may hold.
_INT, _NUMBER, _BOOL = frozenset((int,)), frozenset((int, float)), frozenset((bool,))


def _integer(noun: str):
    """A reader of a JSON integer; a bool, a float or a string is not one."""
    return _kind(noun, _INT)


_int = _integer("an integer")
# The number readers take an int or a float, never a bool or a string.
_float = _kind("a number", _NUMBER, float)
_finite = _kind("a finite number", _NUMBER, float, math.isfinite)
_positive = _kind(_ABOVE_0.noun, _NUMBER, float, _ABOVE_0.test)
# The readers of the fields whose types check their ranges: each checks only
# that the value is an integer, or a number.
_typed_natural, _typed_count = _integer(_AT_LEAST_0.noun), _integer(_AT_LEAST_1.noun)
_typed_positive = _kind(_ABOVE_0.noun, _NUMBER)
_flag = _kind("true or false", _BOOL)


def _name(raw, *path: str | int) -> str:
    """A node or app name."""
    if isinstance(raw, str):
        return raw
    raise ParseError(f"{_where(*path)}: expected a string, got {raw!r}")


def _optional(read):
    """read, with null as None."""
    return lambda value, *path: None if value is None else read(value, *path)


def _object(raw, *path: str | int) -> dict[str, Any]:
    if not isinstance(raw, dict):
        raise ParseError(f"{_where(*path)}: expected an object, got {raw!r}")
    return raw


def _list(raw, *path: str | int):
    if not isinstance(raw, (list, tuple)):
        raise ParseError(f"{_where(*path)}: expected a list, got {raw!r}")
    return raw


def _rows(read):
    """A reader of a list, each of whose items read reads."""
    return lambda raw, *path: tuple([read(row, *path, i) for i, row in enumerate(_list(raw, *path))])


def _point(raw, *path: str | int, dims: int = 3) -> tuple[float, ...]:
    """dims finite coordinates."""
    if not isinstance(raw, (list, tuple)) or len(raw) != dims:
        shape = "[x, y, z]" if dims == 3 else "[x, y]"
        raise ParseError(f"{_where(*path)}: expected a point {shape} of finite numbers, got {raw!r}")
    # Most of a large scenario is points, so a 3-D point of plain ints and
    # floats with a finite sum takes an unrolled fast path. Any other point
    # (a string, a bool, an int too large, a sum that overflows) takes the
    # coordinate reader, which names the bad coordinate.
    if dims == 3:
        x, y, z = raw
        if type(x) in _NUMBER and type(y) in _NUMBER and type(z) in _NUMBER:
            try:
                point = (float(x), float(y), float(z))
                if math.isfinite(point[0] + point[1] + point[2]):
                    return point
            except OverflowError:
                pass
    return tuple(_finite(c, *path, k) for k, c in enumerate(raw))


def _choice(choices, raw, *path: str | int):
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


def _bounds(raw, *path: str | int) -> tuple[tuple[float, ...], tuple[float, ...]]:
    lo, hi = _corners(raw, *path, dims=2)
    if lo[0] > hi[0] or lo[1] > hi[1]:
        raise ParseError(f"{_where(*path)}: expected lo <= hi, got {raw!r}")
    return lo, hi


def _pairs(first, second):
    """A reader of rows of two numbers: first(a), second(b)."""

    def read(raw, *path: str | int) -> tuple[tuple[Any, Any], ...]:
        rows = [_pair(row, "[a, b]", *path, i) for i, row in enumerate(_list(raw, *path))]
        return tuple((first(a, *path, i, 0), second(b, *path, i, 1)) for i, (a, b) in enumerate(rows))

    return read


def _keys(*keys: str):
    """keys as an ordered set-like view."""
    return dict.fromkeys(keys).keys()


def _reject(raw, keys, required, *path: str | int) -> NoReturn:
    _object(raw, *path)
    if not keys >= raw.keys():
        key = min(raw.keys() - keys)
        raise ParseError(f"{_where(*path)}: unknown key {key!r} (choose from {', '.join(keys)})")
    key = next(key for key in required if key not in raw)
    raise ParseError(f"{_where(*path, key)}: missing")


def _record(table, required, raw, *path: str | int) -> dict[str, Any]:
    """The fields that the JSON object raw gives, by name. table maps each
    key that raw may have to its field and reader, and required holds the
    keys that raw must have (set-like views, in the order messages list
    them)."""
    if not (isinstance(raw, dict) and table.keys() >= raw.keys() >= required):
        _reject(raw, table.keys(), required, *path)
    return {name: read(value, *path, key) for key, value in raw.items() for name, read in (table[key],)}


# The table and the required keys of each type that `_read` reads.
_SCHEMAS: dict[type, tuple[dict[str, tuple[str, Any]], Any]] = {}


def _schema(cls: type, **readers) -> None:
    """Register cls, whose keys are its field names, with the reader of each;
    the fields without a default are required."""
    required = [f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING]
    _SCHEMAS[cls] = {key: (key, read) for key, read in readers.items()}, _keys(*required)


def _read(cls: type, raw, *path: str | int):
    """The JSON object raw as cls."""
    return cls(**_record(*_SCHEMAS[cls], raw, *path))


def _objects(cls: type):
    """A reader of an object whose every value is a cls, by key."""
    return lambda raw, *path: {
        key: _read(cls, value, *path, key) for key, value in _object(raw, *path).items()
    }


def _enum(enum: type[Enum]):
    """A reader of the value of a member of enum. Calling an Enum is slow,
    so the reader looks its members up in a dict."""
    members = {member.value: member for member in enum}

    def read(raw, *path: str | int) -> Enum:
        try:
            return members[raw]
        except (KeyError, TypeError):
            return _choice(tuple(members), raw, *path)

    return read


_MOVE_KEYS = _keys(*UeMove._fields)
_new_move = tuple.__new__  # UeMove(...) without its Python-level __new__


def _ue_moves(raw, *path: str | int) -> tuple[UeMove, ...]:
    """`ric.ue_moves`. A walk has a row per UE per step, so the rows are
    read in one loop, not by `_read`."""
    moves = []
    for i, row in enumerate(_list(raw, *path)):
        if not (isinstance(row, dict) and row.keys() == _MOVE_KEYS):
            _reject(row, _MOVE_KEYS, _MOVE_KEYS, *path, i)
        time_ms = _typed_natural(row["time_ms"], *path, i, "time_ms")
        node_id = _name(row["node_id"], *path, i, "node_id")
        moves.append(_new_move(UeMove, (time_ms, node_id, _point(row["position"], *path, i, "position"))))
    return tuple(moves)


_points, _policy = _rows(_point), partial(_choice, POLICIES)
_schema(
    RisLayout, rows=_typed_count, cols=_typed_count, pitch_m=_typed_positive,
    normal_axis=_integer(_AXIS.noun), parts=_integer(_PART_COUNT.noun),
)
_schema(
    TrafficProfile, data_mbps=_float, voice_mbps=_float,
    data_surge=_pairs(_int, _float), voice_surge=_pairs(_int, _float),
)
_schema(
    ChannelParams, exponent=_finite, d0_m=_positive, blockage_penalty_db=_finite,
    noise_figure_db=_finite, bandwidth_hz=_positive, mcs_table=_pairs(_finite, _finite),
    scatter_floor_db=_optional(_finite), fading=_flag,
)
_schema(
    PlannerSettings, snr_threshold_db=_finite, max_nodes=_typed_natural, uav_altitude_m=_typed_positive,
    uav_tx_power_dbm=_finite, uav_freq_ghz=_typed_positive, candidate_spacing_m=_typed_positive,
    candidate_bounds=_optional(_bounds), backhaul_threshold_db=_finite, relay_sites=_points,
)
_schema(CellFreeSettings, L=_typed_count)
_schema(RisPart, ue=_name, reference_points=_points)
_schema(RisPanelSettings, tx=_name, parts=_objects(RisPart))
_schema(ScriptEntry, time_ms=_int, policy=_policy, ris_off=_flag)
_schema(
    RicSettings, policy=_policy, ris=_objects(RisPanelSettings),
    script=_rows(partial(_read, ScriptEntry)), ue_moves=_ue_moves, disabled_apps=_rows(_name),
)
# The objects whose keys are not all field names: a node's `id` is its
# node_id, a disaster's `time_ms` and `fail` are its strike_time_ms and
# failed, and `ticks` holds three Scenario fields.
_SCHEMAS[Node] = {
    "id": ("node_id", _name),
    "kind": ("kind", _enum(NodeKind)),
    "position": ("position", _point),
    "status": ("status", _enum(NodeStatus)),
    "tx_power_dbm": ("tx_power_dbm", _finite),
    "freq_ghz": ("freq_ghz", _positive),
    "battery_ms": ("battery_ms", _optional(_int)),
    "ris": ("ris", partial(_read, RisLayout)),
}, _keys("id", "kind", "position")
_SCHEMAS[DisasterEvent] = {
    "time_ms": ("strike_time_ms", _typed_natural),
    "fail": ("failed", _rows(_name)),
    "power_loss": ("power_loss", _rows(_name)),
    "blockages": ("blockages", _rows(_corners)),
}, _keys("time_ms")
_TICKS = {
    "non_rt_ms": ("non_rt_tick_ms", _integer(_NON_RT_TICK.noun)),
    "near_rt_ms": ("near_rt_tick_ms", _integer(_NEAR_RT_TICK.noun)),
    "sample_ms": ("sample_interval_ms", _typed_count),
}
_SCENARIO = {key: (key, read) for key, read in {
    "seed": _typed_natural,
    "ticks": partial(_record, _TICKS, _keys()),
    "nodes": _rows(partial(_read, Node)),
    "obstacles": _rows(_corners),
    "traffic": partial(_read, TrafficProfile),
    "disasters": _rows(partial(_read, DisasterEvent)),
    "battery_reserve_ms": _typed_count,
    "channel": partial(_read, ChannelParams),
    "planner": partial(_read, PlannerSettings),
    "ric": partial(_read, RicSettings),
    "cfmimo": partial(_read, CellFreeSettings),
}.items()}


def scenario_from_dict(data: dict[str, Any]) -> Scenario:
    settings = _record(_SCENARIO, _keys("nodes"), data)
    return Scenario(**settings.pop("ticks", {}), **settings)


def load_scenario(file_path: str) -> Scenario:
    try:
        with open(file_path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read scenario file {file_path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"{file_path}:{exc.lineno}: {exc.msg}") from exc
    return scenario_from_dict(data)
