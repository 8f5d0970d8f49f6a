"""Controller layer: non-real-time and near-real-time loops hosting pluggable
apps that plan recovery and reconfigure radio resources."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import ntn_planner as planner
from .ris_opt import (
    Codebook,
    ModelEvaluator,
    build_codebook,
    iterative_optimize,
    model_evaluator,
    select_codeword,
)
from .cfmimo import ClusterAssignment, cluster
from .scenario import NodeStatus
from .simcore import Event, EventKind, Kernel
from .world import DEFAULT_SNR_THRESHOLD_DB, TopologySnapshot, World, access_snr_matrix

NON_RT_MIN_INTERVAL_MS = 1_000
NEAR_RT_MIN_INTERVAL_MS = 10
NEAR_RT_MAX_INTERVAL_MS = 1_000

POLICY_FAST_RECOVERY = "fast-recovery"
POLICY_MAX_THROUGHPUT = "max-throughput"
POLICY_RIS_OFF = "ris-off"


class RicError(Exception):
    pass


class DuplicateName(RicError):
    pass


class InvalidInterval(RicError):
    pass


@dataclass(frozen=True)
class Action:
    kind: str  # DeployPlan | ApplyRisConfig | Recluster | SwitchPolicy | Note
    params: dict[str, Any] = field(default_factory=dict)


Handler = Callable[["Controller", TopologySnapshot], list[Action]]


@dataclass(frozen=True)
class ControllerApp:
    name: str
    tier: str  # "NonRT" | "NearRT"
    handler: Handler
    interval_ms: int | None = None  # periodic trigger
    event_kind: EventKind | None = None  # event trigger


class Controller:
    """Registers apps, dispatches their ticks, and applies returned actions.

    Handlers see an immutable topology snapshot; only the controller mutates
    the world, so app effects serialize in action order. A failing handler is
    logged and never halts the run.
    """

    def __init__(self, world: World, kernel: Kernel, ric_cfg: dict[str, Any] | None = None) -> None:
        self.world = world
        self.kernel = kernel
        self.cfg = dict(ric_cfg or world.scenario.ric)
        self.params = world.scenario.channel
        self.policy: str = self.cfg.get("policy", POLICY_MAX_THROUGHPUT)
        self.apps: dict[str, ControllerApp] = {}
        self.blackboard: dict[str, Any] = {}
        self.codebooks: dict[tuple[str, int], Codebook] = {}
        self.cluster_assignment: ClusterAssignment | None = None
        self.topology_version = 0
        self._snapshot_cache: tuple[tuple[int, int], TopologySnapshot] | None = None
        # (world version, operational access ids) -> UEs out of service.
        self._outage_cache: tuple[tuple[int, tuple[str, ...]], set[str]] | None = None
        # (panel, UE) -> (world version, evaluator); the table outlives
        # configuration changes, which do not bump the version.
        self._ris_links: dict[tuple[str, str], tuple[int, ModelEvaluator]] = {}
        self._script = sorted(self.cfg.get("script", ()), key=lambda s: s["time_ms"])
        kernel.on(EventKind.NON_RT_TICK, self._on_tick)
        kernel.on(EventKind.NEAR_RT_TICK, self._on_tick)
        kernel.on(EventKind.UE_MOVE, self._on_ue_move)
        self._build_offline_codebooks()

    # --- registration ------------------------------------------------------

    def register_app(self, app: ControllerApp) -> None:
        if app.name in self.apps:
            raise DuplicateName(app.name)
        if app.interval_ms is not None:
            if app.tier == "NonRT" and app.interval_ms < NON_RT_MIN_INTERVAL_MS:
                raise InvalidInterval(f"{app.name}: NonRT interval must be >= 1 s")
            if app.tier == "NearRT" and not (
                NEAR_RT_MIN_INTERVAL_MS <= app.interval_ms <= NEAR_RT_MAX_INTERVAL_MS
            ):
                raise InvalidInterval(f"{app.name}: NearRT interval must be in [10 ms, 1 s]")
        self.apps[app.name] = app
        if app.interval_ms is not None:
            kind = EventKind.NON_RT_TICK if app.tier == "NonRT" else EventKind.NEAR_RT_TICK
            self.kernel.schedule(self.kernel.clock + app.interval_ms, kind, {"app": app.name})

    # --- dispatch ----------------------------------------------------------

    def snapshot(self) -> TopologySnapshot:
        """The world as of now. Node tuples are rebuilt only when the world
        or the topology version changed; a moved clock or new heartbeats just
        rebind those two fields."""
        key = (self.world.version, self.topology_version)
        cached = self._snapshot_cache
        if cached is None or cached[0] != key:
            snap = self.world.snapshot(self.kernel.clock)
        else:
            snap = cached[1]
            now, beats = self.kernel.clock, self.world.last_heartbeat
            if snap.now_ms == now and snap.last_heartbeat is beats:
                return snap
            snap = snap._rebind(now, beats)
        self._snapshot_cache = (key, snap)
        return snap

    def _on_tick(self, kernel: Kernel, event: Event) -> None:
        app = self.apps.get(event.payload.get("app", ""))
        if app is None:
            return
        self._run_app(app)
        if app.interval_ms is not None:
            kernel.schedule(kernel.clock + app.interval_ms, event.kind, event.payload)

    def _on_ue_move(self, kernel: Kernel, event: Event) -> None:
        node_id = event.payload.get("node_id", "")
        if node_id in self.world.nodes and "position" in event.payload:
            self.world.move_node(node_id, event.payload["position"])
        for app in self.apps.values():
            if app.event_kind == EventKind.UE_MOVE:
                self._run_app(app)

    def _run_app(self, app: ControllerApp) -> None:
        try:
            actions = app.handler(self, self.snapshot())
        except Exception as exc:
            self.kernel.log.log_action(self.kernel.clock, f"AppError {app.name}: {exc}")
            return
        for action in actions:
            self.apply_action(action, app)

    # --- action application -------------------------------------------------

    def apply_action(self, action: Action, app: ControllerApp) -> None:
        now = self.kernel.clock
        if action.kind == "DeployPlan":
            if app.tier != "NonRT":
                raise RicError("DeployPlan actions are reserved to the NonRT tier")
            plan: planner.DeploymentPlan = action.params["plan"]
            for p in plan.placements:
                self.world.add_deployed_node(
                    p.kind, p.position, p.tx_power_dbm, p.freq_ghz, NodeStatus.ACTIVE, now
                )
            self.topology_version += 1
            self.blackboard["plan_deployed"] = True
            self.kernel.log.log_action(
                now,
                f"DeployPlan by {app.name}: {len(plan.placements)} nodes, "
                f"{len(plan.backhaul)} backhaul edges, "
                f"estimate {plan.estimated_coverage_ratio:.3f}",
            )
        elif action.kind == "ApplyRisConfig":
            if app.tier != "NearRT":
                raise RicError("per-element RIS state changes are reserved to the NearRT tier")
            panel_id = action.params["panel"]
            part_id = int(action.params["part"])
            config = action.params["config"]
            self.world.panel_states[panel_id].apply_part(part_id, config)
            self.kernel.log.log_action(
                now,
                f"ApplyRisConfig by {app.name}: panel {panel_id} part {part_id} "
                f"feedback={action.params.get('feedback', 0)}",
            )
        elif action.kind == "Recluster":
            max_aps = int(action.params.get("L", 2))
            self.cluster_assignment = self._recluster(max_aps)
            self.kernel.log.log_action(now, f"Recluster by {app.name}: L={max_aps}")
        elif action.kind == "SwitchPolicy":
            self.policy = action.params["name"]
            self.kernel.log.log_action(now, f"SwitchPolicy by {app.name}: {self.policy}")
        elif action.kind == "Note":
            self.kernel.log.log_action(now, f"{app.name}: {action.params.get('text', '')}")
        else:
            raise RicError(f"unknown action kind {action.kind}")

    def _recluster(self, max_aps: int) -> ClusterAssignment:
        snapshot = self.snapshot()
        access = snapshot.operational_access_nodes()
        ues = snapshot.ues()
        if not access or not ues:
            return ClusterAssignment({})
        positions = np.array([u.position for u in ues], float)
        matrix = access_snr_matrix(access, positions, self.params, snapshot.obstacles)
        gains = {
            ue.node_id: {access[i].node_id: float(matrix[i, j]) for i in range(len(access))}
            for j, ue in enumerate(ues)
        }
        return cluster(gains, max_aps, {a.node_id for a in access})

    # --- RIS plumbing --------------------------------------------------------

    def ris_part_assignments(self, panel_id: str) -> dict[int, str]:
        cfg = self.cfg.get("ris", {}).get(panel_id, {})
        return {int(pid): part["ue"] for pid, part in cfg.get("parts", {}).items()}

    def ris_tx_node(self, panel_id: str):
        cfg = self.cfg.get("ris", {}).get(panel_id, {})
        return self.world.nodes[cfg["tx"]]

    def ris_evaluator(self, panel_id: str, rx_pos, part_id: int | None = None) -> ModelEvaluator:
        """Power (dBm) at rx_pos through the panel from its configured tx, in
        the current world. With part_id it takes that part's configuration,
        spliced over the panel's current one; otherwise a full-panel config."""
        tx = self.ris_tx_node(panel_id)
        panel = self.world.panels[panel_id]
        return model_evaluator(
            panel, tx.position, tx.tx_power_dbm, rx_pos, tx.freq_ghz, self.params,
            obstacles=self.world.obstacles,
            part_elements=None if part_id is None else panel.part_elements(part_id),
            base_config=self.world.panel_states[panel_id].config,
        )

    def ris_power_at(self, panel_id: str, full_config, ue_id: str) -> float:
        """Received power (dBm) at a UE through the panel at the given config.
        The link table is kept per (panel, UE) until the world version moves."""
        version = self.world.version
        cached = self._ris_links.get((panel_id, ue_id))
        if cached is None or cached[0] != version:
            cached = (version, self.ris_evaluator(panel_id, self.world.nodes[ue_id].position))
            self._ris_links[panel_id, ue_id] = cached
        return cached[1](full_config)

    def _build_offline_codebooks(self) -> None:
        for panel_id, cfg in self.cfg.get("ris", {}).items():
            if panel_id not in self.world.panels:
                continue
            self.ris_tx_node(panel_id)  # an unknown tx fails even with no part to build
            for pid_str, part_cfg in cfg.get("parts", {}).items():
                points = part_cfg.get("reference_points")
                if not points:
                    continue
                part_id = int(pid_str)
                self.codebooks[(panel_id, part_id)] = build_codebook(
                    self.world.panels[panel_id],
                    part_id,
                    points,
                    lambda point, panel_id=panel_id, part_id=part_id: self.ris_evaluator(
                        panel_id, point, part_id
                    ),
                )


# --- built-in applications ---------------------------------------------------


def _out_of_service(ctl: Controller, snapshot: TopologySnapshot) -> set[str]:
    """The snapshot's out-of-service UEs. The set depends only on the world
    and on which access nodes are up, so it is recomputed only when one of
    them changed; the planner reuses the monitor's set of the same tick."""
    access = snapshot.operational_access_nodes()
    key = (ctl.world.version, tuple(n.node_id for n in access))
    if ctl._outage_cache is None or ctl._outage_cache[0] != key:
        threshold = float(
            ctl.world.scenario.planner.get("snr_threshold_db", DEFAULT_SNR_THRESHOLD_DB)
        )
        ctl._outage_cache = (key, planner.ues_out_of_service(snapshot, access, threshold, ctl.params))
    return ctl._outage_cache[1]


def _failure_monitor(ctl: Controller, snapshot: TopologySnapshot) -> list[Action]:
    _, failed = planner.node_health(snapshot)
    oos = _out_of_service(ctl, snapshot)
    previous = ctl.blackboard.get("out_of_service")
    ctl.blackboard["out_of_service"] = oos
    ctl.blackboard["failed_nodes"] = failed
    if previous != oos and oos:
        return [Action("Note", {"text": f"outage detected: {len(oos)} UEs out of service"})]
    return []


def _recovery_planner(ctl: Controller, snapshot: TopologySnapshot) -> list[Action]:
    oos = ctl.blackboard.get("out_of_service") or set()
    if not oos or ctl.blackboard.get("plan_deployed"):
        return []
    plan = planner.build_plan(
        snapshot, ctl.params, ctl.world.scenario.planner, _out_of_service(ctl, snapshot)
    )
    if not plan.placements:
        return []
    return [Action("DeployPlan", {"plan": plan})]


def _ris_codebook_tracker(ctl: Controller, snapshot: TopologySnapshot) -> list[Action]:
    if ctl.policy != POLICY_FAST_RECOVERY:
        return []
    actions: list[Action] = []
    for (panel_id, part_id), codebook in sorted(ctl.codebooks.items()):
        ue_id = ctl.ris_part_assignments(panel_id).get(part_id)
        if ue_id is None or ue_id not in ctl.world.nodes:
            continue
        codeword = select_codeword(codebook, ctl.world.nodes[ue_id].position)
        state = ctl.world.panel_states[panel_id]
        members = state.panel.part_elements(part_id)
        if list(state.config[members]) != codeword:
            actions.append(
                Action(
                    "ApplyRisConfig",
                    {"panel": panel_id, "part": part_id, "config": codeword, "feedback": 0},
                )
            )
    return actions


def _ris_iterative_tuner(ctl: Controller, snapshot: TopologySnapshot) -> list[Action]:
    if ctl.policy != POLICY_MAX_THROUGHPUT:
        return []
    if ctl.blackboard.get("ris_tuned_version") == ctl.topology_version:
        return []
    actions: list[Action] = []
    for panel_id, panel in sorted(ctl.world.panels.items()):
        state = ctl.world.panel_states[panel_id]
        for part_id, ue_id in sorted(ctl.ris_part_assignments(panel_id).items()):
            if ue_id not in ctl.world.nodes:
                continue
            members = panel.part_elements(part_id)
            evaluator = ctl.ris_evaluator(panel_id, ctl.world.nodes[ue_id].position, part_id)
            # Refine whatever is currently applied (e.g. a codeword picked
            # under fast-recovery); the sweep never makes it worse.
            config, trace = iterative_optimize(
                evaluator, members.size, panel.n_states,
                initial=list(state.config[members]),
            )
            actions.append(
                Action(
                    "ApplyRisConfig",
                    {
                        "panel": panel_id,
                        "part": part_id,
                        "config": config,
                        "feedback": trace.feedback_messages,
                    },
                )
            )
    ctl.blackboard["ris_tuned_version"] = ctl.topology_version
    return actions


def _cf_clusterer(ctl: Controller, snapshot: TopologySnapshot) -> list[Action]:
    if ctl.blackboard.get("cluster_version") == ctl.topology_version:
        return []
    ctl.blackboard["cluster_version"] = ctl.topology_version
    max_aps = int(ctl.world.scenario.cfmimo.get("L", 2))
    return [Action("Recluster", {"L": max_aps})]


def _script_runner(ctl: Controller, snapshot: TopologySnapshot) -> list[Action]:
    actions: list[Action] = []
    remaining = []
    for entry in ctl._script:
        if entry["time_ms"] > snapshot.now_ms:
            remaining.append(entry)
            continue
        if "policy" in entry:
            actions.append(Action("SwitchPolicy", {"name": entry["policy"]}))
        if entry.get("ris_off"):
            for panel_id, panel in sorted(ctl.world.panels.items()):
                for part_id in sorted({int(p) for p in np.unique(panel.partition)}):
                    members = panel.part_elements(part_id)
                    actions.append(
                        Action(
                            "ApplyRisConfig",
                            {
                                "panel": panel_id,
                                "part": part_id,
                                "config": [0] * members.size,
                                "feedback": 0,
                            },
                        )
                    )
    ctl._script = remaining
    return actions


def _stub(text: str) -> Handler:
    def handler(ctl: Controller, snapshot: TopologySnapshot) -> list[Action]:
        key = f"stub_announced_{text}"
        if ctl.blackboard.get(key):
            return []
        ctl.blackboard[key] = True
        return [Action("Note", {"text": text})]

    return handler


def builtin_apps(
    non_rt_interval_ms: int = 60_000,
    near_rt_interval_ms: int = 100,
) -> list[ControllerApp]:
    """Default app set: failure monitoring and recovery planning in the NonRT
    tier; RIS tracking/tuning, clustering and scripted policy switches in the
    NearRT tier; energy and sensing management are log-only stubs."""
    return [
        ControllerApp("FailureMonitor", "NonRT", _failure_monitor, non_rt_interval_ms),
        ControllerApp("RecoveryPlanner", "NonRT", _recovery_planner, non_rt_interval_ms),
        ControllerApp("RisCodebookTracker", "NearRT", _ris_codebook_tracker, near_rt_interval_ms),
        ControllerApp("RisIterativeTuner", "NearRT", _ris_iterative_tuner, near_rt_interval_ms),
        ControllerApp("CfClusterer", "NearRT", _cf_clusterer, near_rt_interval_ms),
        ControllerApp("ScriptRunner", "NearRT", _script_runner, near_rt_interval_ms),
        ControllerApp("EnergyManager", "NonRT", _stub("energy management stub active"), non_rt_interval_ms),
        ControllerApp("SensingManager", "NonRT", _stub("sensing management stub active"), non_rt_interval_ms),
    ]
