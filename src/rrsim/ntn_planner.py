"""Non-real-time recovery planning: outage detection, coverage mapping, greedy
aerial-node placement and backhaul tree formation with RIS relay fallback."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from . import channel as ch
from .ris_opt import iterative_optimize, model_evaluator
from .scenario import NodeKind, NodeStatus
from .world import (
    DEFAULT_SNR_THRESHOLD_DB,
    NodeState,
    TopologySnapshot,
    access_snr_matrix,
    best_snr_db,
)

DEFAULT_UAV_ALTITUDE_M = 120.0
DEFAULT_UAV_TX_DBM = 35.0
DEFAULT_BACKHAUL_THRESHOLD_DB = 10.0
DEFAULT_RELAY_ELEMENTS = (8, 8)
SATELLITE_SNR_DB = 12.0  # always-reachable space segment, fixed link quality


class PlannerError(Exception):
    pass


class UnreachablePlacement(PlannerError):
    def __init__(self, node_id: str) -> None:
        super().__init__(f"no feasible backhaul path for placement {node_id}")
        self.node_id = node_id


@dataclass(frozen=True)
class GridSpec:
    origin: tuple[float, float]
    cell_size_m: float
    nx: int
    ny: int
    height_m: float = 1.5

    def cell_centers(self) -> np.ndarray:
        xs = self.origin[0] + (np.arange(self.nx) + 0.5) * self.cell_size_m
        ys = self.origin[1] + (np.arange(self.ny) + 0.5) * self.cell_size_m
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        centers = np.column_stack(
            [gx.ravel(), gy.ravel(), np.full(self.nx * self.ny, self.height_m)]
        )
        return centers


@dataclass
class CoverageMap:
    grid: GridSpec
    best_snr_db: np.ndarray  # (nx * ny,)
    best_node: list[str | None]


@dataclass(frozen=True)
class Placement:
    node_id: str
    kind: NodeKind
    position: tuple[float, float, float]
    tx_power_dbm: float
    freq_ghz: float


@dataclass(frozen=True)
class BackhaulEdge:
    child: str
    parent: str
    via: str  # "direct" or "ris_relay"
    relay_position: tuple[float, float, float] | None = None
    snr_db: float = 0.0


@dataclass
class DeploymentPlan:
    placements: list[Placement] = field(default_factory=list)
    backhaul: list[BackhaulEdge] = field(default_factory=list)
    estimated_coverage_ratio: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return {
            "placements": [
                {
                    "id": p.node_id,
                    "kind": p.kind.value,
                    "position": list(p.position),
                    "tx_power_dbm": p.tx_power_dbm,
                    "freq_ghz": p.freq_ghz,
                }
                for p in self.placements
            ],
            "backhaul": [
                {
                    "child": e.child,
                    "parent": e.parent,
                    "via": e.via,
                    **({"relay_position": list(e.relay_position)} if e.relay_position else {}),
                    "snr_db": round(e.snr_db, 6),
                }
                for e in self.backhaul
            ],
            "estimated_coverage_ratio": self.estimated_coverage_ratio,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True)


def detect_outage(
    snapshot: TopologySnapshot,
    snr_threshold_db: float,
    params: ch.ChannelParams,
) -> tuple[set[str], set[str], set[str]]:
    """Classify nodes as operational or failed and find out-of-service UEs."""
    operational, failed = node_health(snapshot)
    access = snapshot.operational_access_nodes()
    return operational, failed, ues_out_of_service(snapshot, access, snr_threshold_db, params)


def node_health(snapshot: TopologySnapshot) -> tuple[set[str], set[str]]:
    """Non-UE nodes that serve with a fresh heartbeat, and the others."""
    operational: set[str] = set()
    failed: set[str] = set()
    for node in snapshot.nodes:
        if node.kind == NodeKind.UE:
            continue
        if node.serving and snapshot.heartbeat_fresh(node.node_id):
            operational.add(node.node_id)
        else:
            failed.add(node.node_id)
    return operational, failed


def ues_out_of_service(
    snapshot: TopologySnapshot,
    access: list[NodeState],
    snr_threshold_db: float,
    params: ch.ChannelParams,
) -> set[str]:
    """UEs whose best SNR from the given access nodes is below the threshold."""
    ues = snapshot.ues()
    if not ues:
        return set()
    positions = np.array([u.position for u in ues], float)
    best, _ = best_snr_db(access, positions, params, snapshot.obstacles)
    return {u.node_id for u, snr in zip(ues, best) if snr < snr_threshold_db}


def coverage_map(
    snapshot: TopologySnapshot,
    grid: GridSpec,
    params: ch.ChannelParams,
) -> CoverageMap:
    centers = grid.cell_centers()
    access = snapshot.operational_access_nodes()
    best, servers = best_snr_db(access, centers, params, snapshot.obstacles)
    return CoverageMap(grid, best, servers)


def candidate_lattice(
    bounds: tuple[tuple[float, float], tuple[float, float]],
    spacing_m: float,
    altitude_m: float = DEFAULT_UAV_ALTITUDE_M,
) -> list[tuple[float, float, float]]:
    """Fixed lattice of aerial candidate positions over a bounding box."""
    (x0, y0), (x1, y1) = bounds
    xs = np.arange(x0, x1 + 1e-9, spacing_m)
    ys = np.arange(y0, y1 + 1e-9, spacing_m)
    return [(float(x), float(y), altitude_m) for x in xs for y in ys]


def coverage_sets(
    candidates: Sequence[Sequence[float]],
    ue_ids: list[str],
    ue_positions: np.ndarray,
    snr_threshold_db: float,
    params: ch.ChannelParams,
    obstacles,
    tx_power_dbm: float = DEFAULT_UAV_TX_DBM,
    freq_ghz: float = 3.5,
) -> list[set[str]]:
    """UE ids each candidate position would cover at the SNR threshold."""
    sets: list[set[str]] = []
    for pos in candidates:
        node = NodeState("cand", NodeKind.UAV, tuple(pos), NodeStatus.ACTIVE, tx_power_dbm, freq_ghz)
        matrix = access_snr_matrix([node], ue_positions, params, obstacles)
        covered = {ue_ids[j] for j in range(len(ue_ids)) if matrix[0, j] >= snr_threshold_db}
        sets.append(covered)
    return sets


def place_ntn(
    out_of_service: set[str],
    candidates: Sequence[Sequence[float]],
    ue_ids: list[str],
    ue_positions: np.ndarray,
    max_nodes: int,
    snr_threshold_db: float,
    params: ch.ChannelParams,
    obstacles=(),
    tx_power_dbm: float = DEFAULT_UAV_TX_DBM,
    freq_ghz: float = 3.5,
) -> list[Placement]:
    """Greedy maximum coverage: repeatedly take the candidate covering the most
    still-uncovered UEs; ties resolve to the lowest candidate index."""
    if max_nodes <= 0 or not out_of_service:
        return []
    if not len(candidates):
        raise PlannerError("candidate positions required when UEs are out of service")
    sets = coverage_sets(
        candidates, ue_ids, ue_positions, snr_threshold_db, params, obstacles, tx_power_dbm, freq_ghz
    )
    uncovered = set(out_of_service)
    chosen: list[int] = []
    while uncovered and len(chosen) < max_nodes:
        best_idx, best_gain = -1, 0
        for idx, covered in enumerate(sets):
            if idx in chosen:
                continue
            gain = len(covered & uncovered)
            if gain > best_gain:
                best_gain = gain
                best_idx = idx
        if best_idx < 0:
            break
        chosen.append(best_idx)
        uncovered -= sets[best_idx]
    return [
        Placement(
            node_id=f"uav_{rank}",
            kind=NodeKind.UAV,
            position=tuple(float(c) for c in candidates[idx]),
            tx_power_dbm=tx_power_dbm,
            freq_ghz=freq_ghz,
        )
        for rank, idx in enumerate(chosen)
    ]


def _link_snr_db(a_pos, b_pos, tx_power_dbm: float, freq_ghz: float, params: ch.ChannelParams, obstacles) -> tuple[float, bool]:
    blocked = ch.los_blocked(a_pos, b_pos, obstacles)
    pl = ch.path_loss(a_pos, b_pos, freq_ghz, params, blocked=blocked)
    return tx_power_dbm - pl - params.noise_floor_dbm(), blocked


def _relay_candidates(obstacles, extra_sites: Sequence[Sequence[float]], offset_m: float = 5.0):
    sites = [tuple(float(c) for c in p) for p in extra_sites]
    for lo, hi in obstacles:
        for x in (lo[0] - offset_m, hi[0] + offset_m):
            for y in (lo[1] - offset_m, hi[1] + offset_m):
                sites.append((x, y, max(hi[2] + offset_m, 10.0)))
    return sites


def _try_ris_relay(
    a_pos,
    b_pos,
    tx_power_dbm: float,
    freq_ghz: float,
    params: ch.ChannelParams,
    obstacles,
    relay_sites,
    threshold_db: float,
) -> tuple[tuple[float, float, float], float] | None:
    """Best relay site with clear LOS on both segments and feasible cascaded SNR."""
    rows, cols = DEFAULT_RELAY_ELEMENTS
    best: tuple[tuple[float, float, float], float] | None = None
    for site in relay_sites:
        if ch.los_blocked(a_pos, site, obstacles) or ch.los_blocked(site, b_pos, obstacles):
            continue
        panel = ch.RisPanel.planar("relay", site, rows, cols, pitch_m=0.04)
        evaluator = model_evaluator(
            panel, a_pos, tx_power_dbm, b_pos, freq_ghz, params, obstacles=obstacles
        )
        config, _ = iterative_optimize(evaluator, panel.n_elements, panel.n_states)
        power = evaluator(config)
        snr = power - params.noise_floor_dbm()
        if snr >= threshold_db and (best is None or snr > best[1]):
            best = (tuple(site), snr)
    return best


def form_backhaul(
    placements: list[Placement],
    snapshot: TopologySnapshot,
    params: ch.ChannelParams,
    backhaul_threshold_db: float = DEFAULT_BACKHAUL_THRESHOLD_DB,
    relay_sites: Sequence[Sequence[float]] = (),
) -> list[BackhaulEdge]:
    """Minimum-cost forest rooted at gateways; infeasible blocked edges retry
    through a RIS relay before the placement is declared unreachable."""
    gateways = snapshot.gateways()
    if not gateways:
        raise PlannerError("at least one gateway required")
    satellites = [
        n for n in snapshot.by_kind(NodeKind.SATELLITE) if n.serving
    ]
    anchors: dict[str, tuple[float, float, float]] = {
        g.node_id: g.position for g in gateways
    }
    pending = {p.node_id: p for p in placements}
    edges: list[BackhaulEdge] = []
    all_relay_sites = _relay_candidates(snapshot.obstacles, relay_sites)
    # Anchor and child positions are fixed for the whole call, so each
    # (parent, child) relay search is done at most once.
    relays: dict[tuple[str, str], tuple[tuple[float, float, float], float] | None] = {}

    while pending:
        best_edge: BackhaulEdge | None = None
        best_cost = math.inf
        for child_id in sorted(pending):
            child = pending[child_id]
            for parent_id in sorted(anchors):
                snr, blocked = _link_snr_db(
                    anchors[parent_id],
                    child.position,
                    child.tx_power_dbm,
                    child.freq_ghz,
                    params,
                    snapshot.obstacles,
                )
                cost = ch.path_loss(
                    anchors[parent_id], child.position, child.freq_ghz, params, blocked=blocked
                )
                if snr >= backhaul_threshold_db:
                    if cost < best_cost:
                        best_cost = cost
                        best_edge = BackhaulEdge(child_id, parent_id, "direct", None, snr)
                elif blocked:
                    # Feasible only because of blockage: try a reflective relay.
                    unblocked_snr = child.tx_power_dbm - ch.path_loss(
                        anchors[parent_id], child.position, child.freq_ghz, params
                    ) - params.noise_floor_dbm()
                    if unblocked_snr < backhaul_threshold_db:
                        continue
                    if (parent_id, child_id) not in relays:
                        relays[parent_id, child_id] = _try_ris_relay(
                            anchors[parent_id],
                            child.position,
                            child.tx_power_dbm,
                            child.freq_ghz,
                            params,
                            snapshot.obstacles,
                            all_relay_sites,
                            backhaul_threshold_db,
                        )
                    relay = relays[parent_id, child_id]
                    if relay is not None:
                        site, snr_via = relay
                        relay_cost = child.tx_power_dbm - snr_via - params.noise_floor_dbm()
                        if relay_cost < best_cost:
                            best_cost = relay_cost
                            best_edge = BackhaulEdge(child_id, parent_id, "ris_relay", site, snr_via)
        if best_edge is None:
            if satellites:
                # Space segment as the fall-back root: fixed-quality feed.
                child_id = sorted(pending)[0]
                edges.append(
                    BackhaulEdge(child_id, satellites[0].node_id, "direct", None, SATELLITE_SNR_DB)
                )
                anchors[child_id] = pending.pop(child_id).position
                continue
            raise UnreachablePlacement(sorted(pending)[0])
        edges.append(best_edge)
        anchors[best_edge.child] = pending.pop(best_edge.child).position
    return edges


def build_plan(
    snapshot: TopologySnapshot,
    params: ch.ChannelParams,
    planner_cfg: dict[str, Any],
    out_of_service: set[str] | None = None,
) -> DeploymentPlan:
    """Full non-real-time planning pass on one topology snapshot. A caller
    that already has the snapshot's out-of-service UEs passes them in."""
    snr_threshold = float(planner_cfg.get("snr_threshold_db", DEFAULT_SNR_THRESHOLD_DB))
    max_nodes = int(planner_cfg.get("max_nodes", 3))
    altitude = float(planner_cfg.get("uav_altitude_m", DEFAULT_UAV_ALTITUDE_M))
    spacing = float(planner_cfg.get("candidate_spacing_m", 500.0))
    tx_power = float(planner_cfg.get("uav_tx_power_dbm", DEFAULT_UAV_TX_DBM))
    freq = float(planner_cfg.get("uav_freq_ghz", 3.5))
    backhaul_threshold = float(
        planner_cfg.get("backhaul_threshold_db", DEFAULT_BACKHAUL_THRESHOLD_DB)
    )

    ues = snapshot.ues()
    ue_ids = [u.node_id for u in ues]
    ue_positions = np.array([u.position for u in ues], float).reshape(len(ues), 3)
    if out_of_service is None:
        out_of_service = ues_out_of_service(
            snapshot, snapshot.operational_access_nodes(), snr_threshold, params
        )
    if not out_of_service:
        baseline = _coverage_ratio(snapshot, [], snr_threshold, params)
        return DeploymentPlan(estimated_coverage_ratio=baseline)

    bounds = planner_cfg.get("candidate_bounds")
    if bounds is None:
        oos_pos = ue_positions[[ue_ids.index(u) for u in sorted(out_of_service)]]
        lo = oos_pos[:, :2].min(axis=0) - spacing
        hi = oos_pos[:, :2].max(axis=0) + spacing
        bounds = ((float(lo[0]), float(lo[1])), (float(hi[0]), float(hi[1])))
    else:
        bounds = (tuple(bounds[0]), tuple(bounds[1]))
    candidates = candidate_lattice(bounds, spacing, altitude)

    placements = place_ntn(
        out_of_service,
        candidates,
        ue_ids,
        ue_positions,
        max_nodes,
        snr_threshold,
        params,
        snapshot.obstacles,
        tx_power,
        freq,
    )
    backhaul = form_backhaul(
        placements,
        snapshot,
        params,
        backhaul_threshold,
        planner_cfg.get("relay_sites", ()),
    )
    estimate = _coverage_ratio(snapshot, placements, snr_threshold, params)
    return DeploymentPlan(placements, backhaul, estimate)


def _coverage_ratio(
    snapshot: TopologySnapshot,
    placements: list[Placement],
    snr_threshold_db: float,
    params: ch.ChannelParams,
) -> float:
    ues = snapshot.ues()
    if not ues:
        return 1.0
    positions = np.array([u.position for u in ues], float)
    access = snapshot.operational_access_nodes() + [
        NodeState(p.node_id, p.kind, p.position, NodeStatus.ACTIVE, p.tx_power_dbm, p.freq_ghz)
        for p in placements
    ]
    best, _ = best_snr_db(access, positions, params, snapshot.obstacles)
    return float(np.count_nonzero(best >= snr_threshold_db)) / len(ues)
