"""Non-real-time recovery planning: greedy aerial-node placement and backhaul
tree formation with RIS relay fallback. A planning pass reads the live
`World`: its nodes and obstacles, the scenario's channel and
`PlannerSettings`, and the UEs to cover, which are `World.out_of_service()`,
the set the failure monitor reads, from the link budget the measurement
reads. The UAV defaults of the functions below are those of
`PlannerSettings`. Backhaul is rooted at the serving gateways only, with a
serving satellite as the fallback."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import AbstractSet, Any, Sequence

import numpy as np

from . import channel as ch
from .ris_opt import iterative_optimize_all, model_evaluator
from .scenario import Node, NodeKind, NodeStatus, PlannerSettings
from .world import World, access_snr_matrix

DEFAULT_RELAY_ELEMENTS = (8, 8)
SATELLITE_SNR_DB = 12.0  # always-reachable space segment, fixed link quality


class PlannerError(Exception):
    pass


class UnreachablePlacement(PlannerError):
    def __init__(self, node_id: str) -> None:
        super().__init__(f"no feasible backhaul path for placement {node_id}")
        self.node_id = node_id


@dataclass(frozen=True)
class BackhaulEdge:
    child: str
    parent: str
    via: str  # "direct" or "ris_relay"
    relay_position: tuple[float, float, float] | None = None
    snr_db: float = 0.0


@dataclass
class DeploymentPlan:
    placements: list[Node] = field(default_factory=list)  # the UAVs to deploy
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


def candidate_lattice(
    bounds: tuple[tuple[float, float], tuple[float, float]],
    spacing_m: float,
    altitude_m: float = PlannerSettings.uav_altitude_m,
) -> list[tuple[float, float, float]]:
    """Fixed lattice of aerial candidate positions over a bounding box."""
    (x0, y0), (x1, y1) = bounds
    xs = np.arange(x0, x1 + 1e-9, spacing_m)
    ys = np.arange(y0, y1 + 1e-9, spacing_m)
    return [(float(x), float(y), altitude_m) for x in xs for y in ys]


def _uav(node_id: str, position: Sequence[float], tx_power_dbm: float, freq_ghz: float) -> Node:
    """An active UAV; `Node` rejects one at altitude <= 0."""
    return Node(node_id, NodeKind.UAV, tuple(position), NodeStatus.ACTIVE, tx_power_dbm, freq_ghz)


def coverage_sets(
    candidates: Sequence[Sequence[float]],
    ue_ids: list[str],
    ue_positions: np.ndarray,
    snr_threshold_db: float,
    params: ch.ChannelParams,
    obstacles,
    tx_power_dbm: float = PlannerSettings.uav_tx_power_dbm,
    freq_ghz: float = PlannerSettings.uav_freq_ghz,
) -> list[set[str]]:
    """UE ids each candidate position would cover at the SNR threshold, from
    one SNR matrix over all candidates."""
    nodes = [_uav("cand", pos, tx_power_dbm, freq_ghz) for pos in candidates]
    matrix = access_snr_matrix(nodes, ue_positions, params, obstacles)
    return [{ue_ids[j] for j in np.flatnonzero(row >= snr_threshold_db).tolist()} for row in matrix]


def place_ntn(
    out_of_service: AbstractSet[str],
    candidates: Sequence[Sequence[float]],
    ue_ids: list[str],
    ue_positions: np.ndarray,
    max_nodes: int,
    snr_threshold_db: float,
    params: ch.ChannelParams,
    obstacles=(),
    tx_power_dbm: float = PlannerSettings.uav_tx_power_dbm,
    freq_ghz: float = PlannerSettings.uav_freq_ghz,
) -> list[Node]:
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
        _uav(f"uav_{rank}", [float(c) for c in candidates[idx]], tx_power_dbm, freq_ghz)
        for rank, idx in enumerate(chosen)
    ]


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
    sites = [
        site for site in relay_sites
        if not (ch.los_blocked(a_pos, site, obstacles) or ch.los_blocked(site, b_pos, obstacles))
    ]
    evaluators = [
        model_evaluator(
            ch.RisPanel.planar("relay", site, rows, cols, pitch_m=0.04),
            a_pos, tx_power_dbm, b_pos, freq_ghz, params, obstacles=obstacles,
        )
        for site in sites
    ]
    # The sites' sweeps are independent searches of one size: one stack.
    sweeps = iterative_optimize_all(evaluators, rows * cols, len(ch.HV4_STATES))
    best: tuple[tuple[float, float, float], float] | None = None
    for site, evaluator, (config, _) in zip(sites, evaluators, sweeps):
        power = evaluator(config)
        snr = power - params.noise_floor_dbm()
        if snr >= threshold_db and (best is None or snr > best[1]):
            best = (tuple(site), snr)
    return best


def form_backhaul(
    placements: list[Node],
    world: World,
    backhaul_threshold_db: float = PlannerSettings.backhaul_threshold_db,
    relay_sites: Sequence[Sequence[float]] = (),
) -> list[BackhaulEdge]:
    """Minimum-cost forest rooted at the world's serving gateways, over its
    channel and obstacles; infeasible blocked edges retry through a RIS relay
    before a serving satellite, the first by id, feeds the placement, or it
    is declared unreachable."""
    params, obstacles = world.scenario.channel, world.obstacles
    nodes = sorted(world.nodes.values(), key=lambda n: n.node_id)
    gateways = [n for n in nodes if n.kind == NodeKind.GATEWAY and n.serving]
    satellites = [n for n in nodes if n.kind == NodeKind.SATELLITE and n.serving]
    anchors: dict[str, tuple[float, float, float]] = {
        g.node_id: g.position for g in gateways
    }
    pending = {p.node_id: p for p in placements}
    edges: list[BackhaulEdge] = []
    all_relay_sites = _relay_candidates(obstacles, relay_sites)
    # Anchor and child positions are fixed for the whole call, so each
    # (parent, child) relay search is done at most once.
    relays: dict[tuple[str, str], tuple[tuple[float, float, float], float] | None] = {}

    noise = params.noise_floor_dbm()
    while pending:
        best_edge: BackhaulEdge | None = None
        best_cost = math.inf
        for child_id in sorted(pending):
            child = pending[child_id]
            for parent_id in sorted(anchors):
                anchor = anchors[parent_id]
                blocked = ch.los_blocked(anchor, child.position, obstacles)
                clear_loss = ch.path_loss(anchor, child.position, child.freq_ghz, params)
                cost = clear_loss + params.blockage_penalty_db if blocked else clear_loss
                snr = child.tx_power_dbm - cost - noise
                if snr >= backhaul_threshold_db:
                    if cost < best_cost:
                        best_cost = cost
                        best_edge = BackhaulEdge(child_id, parent_id, "direct", None, snr)
                elif blocked:
                    # Feasible only because of blockage: try a reflective relay.
                    if child.tx_power_dbm - clear_loss - noise < backhaul_threshold_db:
                        continue
                    if (parent_id, child_id) not in relays:
                        relays[parent_id, child_id] = _try_ris_relay(
                            anchor,
                            child.position,
                            child.tx_power_dbm,
                            child.freq_ghz,
                            params,
                            obstacles,
                            all_relay_sites,
                            backhaul_threshold_db,
                        )
                    relay = relays[parent_id, child_id]
                    if relay is not None:
                        site, snr_via = relay
                        relay_cost = child.tx_power_dbm - snr_via - noise
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


def build_plan(world: World, max_nodes: int | None = None) -> DeploymentPlan:
    """Full non-real-time planning pass on the live world, with the
    scenario's planner settings, for the UEs out of service now. max_nodes,
    when given, replaces `planner.max_nodes`. The estimate counts the UEs in
    service or covered by a placement."""
    cfg, params, obstacles = world.scenario.planner, world.scenario.channel, world.obstacles
    snr_threshold = world.snr_threshold_db
    if max_nodes is None:
        max_nodes = cfg.max_nodes
    spacing, tx_power, freq = cfg.candidate_spacing_m, cfg.uav_tx_power_dbm, cfg.uav_freq_ghz

    ue_ids, ue_positions = world.ue_positions()
    out_of_service = world.out_of_service()
    if not out_of_service:
        return DeploymentPlan(estimated_coverage_ratio=1.0)

    bounds = cfg.candidate_bounds
    if bounds is None:
        oos_pos = ue_positions[[ue_ids.index(u) for u in sorted(out_of_service)]]
        lo = oos_pos[:, :2].min(axis=0) - spacing
        hi = oos_pos[:, :2].max(axis=0) + spacing
        bounds = ((float(lo[0]), float(lo[1])), (float(hi[0]), float(hi[1])))
    candidates = candidate_lattice(bounds, spacing, cfg.uav_altitude_m)

    placements = place_ntn(
        out_of_service,
        candidates,
        ue_ids,
        ue_positions,
        max_nodes,
        snr_threshold,
        params,
        obstacles,
        tx_power,
        freq,
    )
    backhaul = form_backhaul(placements, world, cfg.backhaul_threshold_db, cfg.relay_sites)
    reach = coverage_sets(
        [p.position for p in placements], ue_ids, ue_positions, snr_threshold, params,
        obstacles, tx_power, freq,
    )
    covered = set().union(*reach)
    served = sum(1 for u in ue_ids if u in covered or u not in out_of_service)
    return DeploymentPlan(placements, backhaul, served / len(ue_ids))
