"""Mutable run-time world state and immutable topology snapshots.

The scenario stays frozen after load; everything that changes during a run
(node status, batteries, obstacles added at strike time, RIS configurations,
heartbeats) lives here. Node and obstacle changes go through `World` methods
that bump `World.version`, the key of the snapshot and link-budget caches.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .ris_opt import PanelState
from .scenario import (
    ACCESS_KINDS,
    SERVING_STATUSES,
    Node,
    NodeKind,
    NodeStatus,
    Scenario,
)

DEFAULT_HEARTBEAT_MS = 10_000
DEFAULT_SNR_THRESHOLD_DB = 3.0


@dataclass
class NodeState:
    node_id: str
    kind: NodeKind
    position: tuple[float, float, float]
    status: NodeStatus
    tx_power_dbm: float
    freq_ghz: float
    battery_ms: int | None = None

    @classmethod
    def from_node(cls, node: Node) -> "NodeState":
        return cls(
            node.node_id,
            node.kind,
            node.position,
            node.status,
            node.tx_power_dbm,
            node.freq_ghz,
            node.battery_ms,
        )

    @property
    def serving(self) -> bool:
        return self.status in SERVING_STATUSES


@dataclass(frozen=True)
class TopologySnapshot:
    """Frozen view of the world as of one instant; safe to hand to planners."""

    now_ms: int
    nodes: tuple[NodeState, ...]
    obstacles: tuple
    last_heartbeat: dict[str, int]
    heartbeat_window_ms: int

    def by_kind(self, kind: NodeKind) -> list[NodeState]:
        return [n for n in self.nodes if n.kind == kind]

    def ues(self) -> list[NodeState]:
        return self.by_kind(NodeKind.UE)

    def gateways(self) -> list[NodeState]:
        return self.by_kind(NodeKind.GATEWAY)

    def heartbeat_fresh(self, node_id: str) -> bool:
        last = self.last_heartbeat.get(node_id)
        return last is not None and self.now_ms - last <= self.heartbeat_window_ms

    def _rebind(self, now_ms: int, last_heartbeat: dict[str, int]) -> "TopologySnapshot":
        """This snapshot at another instant: nodes and obstacles shared, clock
        and heartbeat dict replaced. A plain copy of the instance dict, so
        the frozen fields are not set one by one as `dataclasses.replace`
        does through `__init__`."""
        snap = object.__new__(TopologySnapshot)
        snap.__dict__.update(self.__dict__, now_ms=now_ms, last_heartbeat=last_heartbeat)
        return snap

    def operational_access_nodes(self) -> list[NodeState]:
        return [
            n
            for n in self.nodes
            if n.kind in ACCESS_KINDS and n.serving and self.heartbeat_fresh(n.node_id)
        ]


def access_snr_matrix(
    access_nodes: list[NodeState],
    ue_positions: np.ndarray,
    params: ch.ChannelParams,
    obstacles,
) -> np.ndarray:
    """SNR dB from each access node to each UE position, (n_nodes, n_ues)."""
    n_ue = ue_positions.shape[0]
    if not access_nodes or n_ue == 0:
        return np.full((len(access_nodes), n_ue), -np.inf)
    noise = params.noise_floor_dbm()
    rows = []
    for node in access_nodes:
        pos = np.asarray(node.position, float)
        d = np.linalg.norm(ue_positions - pos, axis=1)
        d = np.maximum(d, params.d0_m)
        pl = ch.free_space_pl_db(params.d0_m, node.freq_ghz) + 10.0 * params.exponent * np.log10(
            d / params.d0_m
        )
        blocked = ch.segment_blocked_many(pos, ue_positions, obstacles)
        pl = pl + params.blockage_penalty_db * blocked
        rows.append(node.tx_power_dbm - pl - noise)
    return np.vstack(rows)


def best_snr_db(
    access_nodes: list[NodeState],
    ue_positions: np.ndarray,
    params: ch.ChannelParams,
    obstacles,
) -> tuple[np.ndarray, list[str | None]]:
    """Best SNR per UE position and the id of the serving node."""
    n_ue = ue_positions.shape[0]
    matrix = access_snr_matrix(access_nodes, ue_positions, params, obstacles)
    if matrix.size == 0:
        return np.full(n_ue, -np.inf), [None] * n_ue
    best_idx = np.argmax(matrix, axis=0)
    best = matrix[best_idx, np.arange(n_ue)]
    servers: list[str | None] = [
        access_nodes[i].node_id if finite else None
        for i, finite in zip(best_idx.tolist(), np.isfinite(best).tolist())
    ]
    return best, servers


class World:
    """Live state of one simulation run."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        self.nodes: dict[str, NodeState] = {
            n.node_id: NodeState.from_node(n) for n in scenario.nodes
        }
        self.obstacles: list = [tuple(map(tuple, box)) for box in scenario.obstacles]
        # Replaced on every heartbeat, never mutated in place, so snapshots
        # can share it.
        self.last_heartbeat: dict[str, int] = {nid: 0 for nid in self.nodes}
        self.heartbeat_window_ms: int = max(
            scenario.non_rt_tick_ms, 2 * DEFAULT_HEARTBEAT_MS
        )
        self.panels: dict[str, ch.RisPanel] = {}
        self.panel_states: dict[str, PanelState] = {}
        self._next_deploy_index = 0
        # Bumped by every method below that changes nodes or obstacles; caches
        # of snapshots and link budgets are keyed on it.
        self.version = 0
        # (version, ids of the serving nodes) for heartbeat().
        self._serving_ids: tuple[int, list[str]] = (-1, [])
        for node in scenario.nodes:
            if node.kind == NodeKind.RIS_PANEL:
                self._register_panel(node)

    def _register_panel(self, node: Node) -> None:
        spec = node.ris or {}
        panel = ch.RisPanel.planar(
            node.node_id,
            node.position,
            rows=int(spec.get("rows", 4)),
            cols=int(spec.get("cols", 19)),
            pitch_m=float(spec.get("pitch_m", 0.04)),
            normal_axis=int(spec.get("normal_axis", 1)),
        )
        parts = spec.get("parts")
        if parts == 2:
            panel.split_halves()
        self.panels[node.node_id] = panel
        self.panel_states[node.node_id] = PanelState(panel)

    # --- state transitions -------------------------------------------------

    def apply_strike(self, failed: list[str], power_loss: list[str], blockages, now_ms: int) -> None:
        for nid in failed:
            self.nodes[nid].status = NodeStatus.FAILED
        reserve = self.scenario.battery_reserve_ms
        for nid in power_loss:
            node = self.nodes[nid]
            node.status = NodeStatus.ON_BATTERY
            node.battery_ms = reserve
        for box in blockages:
            self.obstacles.append((tuple(box[0]), tuple(box[1])))
        self.version += 1

    def expire_battery(self, node_id: str) -> bool:
        node = self.nodes[node_id]
        if node.status == NodeStatus.ON_BATTERY:
            node.status = NodeStatus.FAILED
            node.battery_ms = None
            self.version += 1
            return True
        return False

    def move_node(self, node_id: str, position) -> None:
        self.nodes[node_id].position = tuple(position)
        self.version += 1

    def heartbeat(self, now_ms: int) -> None:
        """Every serving node reports now. Which nodes serve changes only with
        the version, so their ids are kept until it moves."""
        if self._serving_ids[0] != self.version:
            self._serving_ids = (
                self.version,
                [nid for nid, node in self.nodes.items() if node.status in SERVING_STATUSES],
            )
        beats = dict(self.last_heartbeat)
        for node_id in self._serving_ids[1]:
            beats[node_id] = now_ms
        self.last_heartbeat = beats

    def add_deployed_node(
        self,
        kind: NodeKind,
        position,
        tx_power_dbm: float,
        freq_ghz: float,
        status: NodeStatus = NodeStatus.ACTIVE,
        now_ms: int = 0,
    ) -> NodeState:
        node_id = f"deployed_{self._next_deploy_index}"
        self._next_deploy_index += 1
        state = NodeState(node_id, kind, tuple(position), status, tx_power_dbm, freq_ghz)
        self.nodes[node_id] = state
        self.last_heartbeat = {**self.last_heartbeat, node_id: now_ms}
        self.version += 1
        return state

    # --- views -------------------------------------------------------------

    def snapshot(self, now_ms: int) -> TopologySnapshot:
        return TopologySnapshot(
            now_ms=now_ms,
            nodes=tuple(
                NodeState(
                    n.node_id, n.kind, n.position, n.status, n.tx_power_dbm, n.freq_ghz, n.battery_ms
                )
                for n in sorted(self.nodes.values(), key=lambda n: n.node_id)
            ),
            obstacles=tuple(self.obstacles),
            last_heartbeat=self.last_heartbeat,
            heartbeat_window_ms=self.heartbeat_window_ms,
        )

    def active_node_count(self) -> int:
        return sum(1 for n in self.nodes.values() if n.serving)

    def ue_positions(self) -> tuple[list[str], np.ndarray]:
        ues = sorted(
            (n for n in self.nodes.values() if n.kind == NodeKind.UE), key=lambda n: n.node_id
        )
        ids = [n.node_id for n in ues]
        positions = np.array([n.position for n in ues], float).reshape(len(ues), 3)
        return ids, positions
