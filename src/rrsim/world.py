"""Mutable run-time world state, the one view that the measurement, the
controller apps and the planner read, and the one model of every radio link:
the access link budget, and each RIS panel part's link from its tx to its UE.

The scenario stays frozen after load; everything that changes during a run
(node status, batteries, obstacles added at strike time, RIS configurations)
lives here, and only `World` methods write it. `World.nodes` holds frozen
scenario `Node`s: a change stores a new one, which checks itself as it is
built, and a write to a node's field raises `FrozenInstanceError`. A node is
live while it serves (`Node.serving`). Node and obstacle changes bump `World.version`,
the key of the link budget; RIS configurations
change through `World.configure_ris`. A UE is out of service when its best SNR in the
link budget is below the scenario's coverage threshold (`World.out_of_service`).
`World.ris_evaluator` builds every model-driven evaluator of a panel's link,
and `World.best_links` lets a stronger RIS link override the budget for the
measurement, one `cascaded_gain` per panel part.

What a UE move leaves alone is kept: each panel keeps the tx half of its
reflected terms for the last tx position, frequency and channel it served
(`RisPanel.tx_half`; another tx position, as after `move_node` moves the
tx, computes it again).
"""

from __future__ import annotations

from dataclasses import replace
from typing import NamedTuple, Sequence

import numpy as np

from . import channel as ch
from .ris_opt import ModelEvaluator, model_evaluator
from .scenario import ACCESS_KINDS, Node, NodeKind, NodeStatus, Scenario


class LinkBudget(NamedTuple):
    """Access SNR of one world state: rows follow `access_ids`, columns
    `ue_ids` (sorted), and each UE's best SNR with its serving row."""

    ue_ids: list[str]
    access_ids: tuple[str, ...]
    snr_db: np.ndarray  # (n_access, n_ues)
    best_db: np.ndarray  # (n_ues,)
    server_rows: np.ndarray  # (n_ues,) the snr_db row of best_db, -1 where none is finite

    def out_of_service(self, threshold_db: float) -> frozenset[str]:
        """The UEs whose best SNR is below the threshold."""
        return frozenset(
            [ue_id for ue_id, snr in zip(self.ue_ids, self.best_db.tolist()) if snr < threshold_db]
        )


def access_snr_matrix(
    access_nodes: list[Node],
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
        pl = ch._path_loss_db_vec(d, node.freq_ghz, params)
        blocked = ch.segment_blocked_many(pos, ue_positions, obstacles)
        pl = pl + params.blockage_penalty_db * blocked
        rows.append(node.tx_power_dbm - pl - noise)
    return np.vstack(rows)


def _best_server(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best SNR per column of an access SNR matrix and its row, -1 where no
    row is finite."""
    n_ue = matrix.shape[1]
    if matrix.size == 0:
        return np.full(n_ue, -np.inf), np.full(n_ue, -1, dtype=np.intp)
    rows = np.argmax(matrix, axis=0)
    best = matrix[rows, np.arange(n_ue)]
    rows[~np.isfinite(best)] = -1
    return best, rows


class World:
    """Live state of one simulation run."""

    def __init__(self, scenario: Scenario) -> None:
        self.scenario = scenario
        # The coverage threshold of the measurement, the failure monitor and
        # the planner.
        self.snr_threshold_db: float = scenario.planner.snr_threshold_db
        self.nodes: dict[str, Node] = {n.node_id: n for n in scenario.nodes}
        self.obstacles: list = [tuple(map(tuple, box)) for box in scenario.obstacles]
        self.panels: dict[str, ch.RisPanel] = {}
        # Each panel's element states, read-only: `configure_ris` replaces the
        # array. _ris_bytes holds their bytes in sorted panel order.
        self.ris_configs: dict[str, np.ndarray] = {}
        self._ris_bytes: tuple[bytes, ...] = ()
        self._next_deploy_index = 0
        # Bumped by every method below that changes nodes or obstacles; the
        # link budget is keyed on it.
        self.version = 0
        # (version, link budget) of the last version read.
        self._at_version: tuple[int, LinkBudget] | None = None
        # (link budget, threshold, the UEs out of service in it).
        self._outage: tuple[LinkBudget, float, frozenset[str]] | None = None
        # (panel id, part id) -> the UE that the part serves, in sorted order.
        self.ris_parts: dict[tuple[str, int], str] = dict(sorted(
            ((panel_id, int(part_id)), part.ue)
            for panel_id, settings in scenario.ric.ris.items()
            for part_id, part in settings.parts.items()
        ))
        for node in scenario.nodes:
            if node.kind == NodeKind.RIS_PANEL:
                self._register_panel(node)

    def _register_panel(self, node: Node) -> None:
        layout = node.ris
        panel = ch.RisPanel.planar(
            node.node_id,
            node.position,
            rows=layout.rows,
            cols=layout.cols,
            pitch_m=layout.pitch_m,
            normal_axis=layout.normal_axis,
        )
        if layout.parts == 2:
            panel.split_halves()
        self.panels[node.node_id] = panel
        self._set_ris_config(node.node_id, np.zeros(panel.n_elements, dtype=int))

    def _set_ris_config(self, panel_id: str, config: np.ndarray) -> None:
        config.flags.writeable = False
        self.ris_configs[panel_id] = config
        self._ris_bytes = tuple(c.tobytes() for _, c in sorted(self.ris_configs.items()))

    # --- state transitions -------------------------------------------------

    def apply_strike(
        self, failed: Sequence[str], power_loss: Sequence[str], blockages, now_ms: int
    ) -> list[str]:
        """The ids of the nodes that the strike at now_ms puts on battery,
        each with `battery_ms` now_ms + the scenario's reserve. A failed node
        stays failed, and a node already on battery keeps draining the charge
        it has."""
        nodes, expiry = self.nodes, now_ms + self.scenario.battery_reserve_ms
        for nid in failed:
            nodes[nid] = replace(nodes[nid], status=NodeStatus.FAILED)
        on_battery = []
        for nid in power_loss:
            if nodes[nid].status not in (NodeStatus.FAILED, NodeStatus.ON_BATTERY):
                nodes[nid] = replace(nodes[nid], status=NodeStatus.ON_BATTERY, battery_ms=expiry)
                on_battery.append(nid)
        for box in blockages:
            self.obstacles.append((tuple(box[0]), tuple(box[1])))
        self.version += 1
        return on_battery

    def expire_battery(self, node_id: str) -> bool:
        node = self.nodes[node_id]
        if node.status == NodeStatus.ON_BATTERY:
            self.nodes[node_id] = replace(node, status=NodeStatus.FAILED, battery_ms=None)
            self.version += 1
            return True
        return False

    def move_node(self, node_id: str, position) -> None:
        self.nodes[node_id] = replace(self.nodes[node_id], position=tuple(position))
        self.version += 1

    def configure_ris(self, panel_id: str, part_id: int, codeword: Sequence[int]) -> None:
        """Set the elements of one panel part to the codeword. The version
        stays, so link tables outlive the change; `link_state()` moves."""
        members = self.panels[panel_id].part_elements(part_id)
        if len(codeword) != members.size:
            raise ValueError(f"codeword length {len(codeword)} != part size {members.size}")
        config = self.ris_configs[panel_id].copy()
        config[members] = np.asarray(codeword, int)
        self._set_ris_config(panel_id, config)

    def add_deployed_node(self, kind: NodeKind, position, tx_power_dbm: float, freq_ghz: float) -> Node:
        node_id = f"deployed_{self._next_deploy_index}"
        node = Node(node_id, kind, tuple(position), NodeStatus.ACTIVE, tx_power_dbm, freq_ghz)
        self._next_deploy_index += 1
        self.nodes[node_id] = node
        self.version += 1
        return node

    # --- views -------------------------------------------------------------

    def link_state(self) -> tuple[int, tuple[bytes, ...]]:
        """A key that changes whenever any link can: the version, and the
        bytes of each panel's configuration in sorted panel order, kept from
        the last write. A configuration revisited gives its old key back."""
        return self.version, self._ris_bytes

    def link_budget(self) -> LinkBudget:
        """The access SNR from every serving access node, in sorted id order,
        to every UE. Which nodes serve changes only with the version, so the
        budget is kept until it moves; the measurement, the controller apps
        and the planner share it, and must not modify it."""
        if self._at_version is None or self._at_version[0] != self.version:
            serving = (n for n in self.nodes.values() if n.serving and n.kind in ACCESS_KINDS)
            access = sorted(serving, key=lambda n: n.node_id)
            ue_ids, positions = self.ue_positions()
            snr = access_snr_matrix(access, positions, self.scenario.channel, self.obstacles)
            budget = LinkBudget(ue_ids, tuple(n.node_id for n in access), snr, *_best_server(snr))
            self._at_version = (self.version, budget)
        return self._at_version[1]

    def ris_evaluator(self, panel_id: str, rx_pos, part_id: int | None = None) -> ModelEvaluator:
        """Power (dBm) at rx_pos through the panel from its configured tx, in
        the current world. With part_id it takes that part's configuration,
        spliced over the panel's current one; otherwise a full-panel config."""
        tx = self.nodes[self.scenario.ric.ris[panel_id].tx]
        panel = self.panels[panel_id]
        return model_evaluator(
            panel, tx.position, tx.tx_power_dbm, rx_pos, tx.freq_ghz,
            self.scenario.channel,
            obstacles=self.obstacles,
            part_elements=None if part_id is None else panel.part_elements(part_id),
            base_config=self.ris_configs[panel_id],
        )

    def best_links(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """UE ids, best SNR per UE and its server code. The SNR and codes are
        the cached link budget, whose code is the serving access row; a RIS
        link that is stronger overrides a UE with the code len(access_ids) +
        the panel's sorted index, and only then are the arrays copied. Each
        part's link is one `cascaded_gain` at the panel's configuration."""
        ue_ids, access_ids, _, best, codes = self.link_budget()
        panel_index = {panel_id: p for p, panel_id in enumerate(sorted(self.panels))}
        params = self.scenario.channel
        noise = params.noise_floor_dbm()
        copied = False
        for (panel_id, _), ue_id in self.ris_parts.items():
            j = ue_ids.index(ue_id)
            tx = self.nodes[self.scenario.ric.ris[panel_id].tx]
            gain = ch.cascaded_gain(
                tx.position, self.panels[panel_id], self.ris_configs[panel_id],
                self.nodes[ue_id].position, tx.freq_ghz, params, self.obstacles,
            )
            snr = ch.received_power_dbm(tx.tx_power_dbm, gain) - noise
            if snr > best[j]:
                if not copied:  # the cached link budget stays untouched
                    best, codes, copied = best.copy(), codes.copy(), True
                best[j] = snr
                codes[j] = len(access_ids) + panel_index[panel_id]
        return ue_ids, best, codes

    def out_of_service(self) -> frozenset[str]:
        """The UEs whose best SNR in the link budget is below the coverage
        threshold: one set per link budget, the same object until the
        version moves."""
        budget, threshold = self.link_budget(), self.snr_threshold_db
        outage = self._outage
        if outage is None or outage[0] is not budget or outage[1] != threshold:
            outage = self._outage = (budget, threshold, budget.out_of_service(threshold))
        return outage[2]

    def ue_positions(self) -> tuple[list[str], np.ndarray]:
        ues = sorted(
            (n for n in self.nodes.values() if n.kind == NodeKind.UE), key=lambda n: n.node_id
        )
        ids = [n.node_id for n in ues]
        positions = np.array([n.position for n in ues], float).reshape(len(ues), 3)
        return ids, positions
