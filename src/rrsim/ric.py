"""Controller layer: non-real-time and near-real-time loops hosting pluggable
apps that plan recovery and reconfigure radio resources."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import ntn_planner as planner
from .ris_opt import Codebook, build_codebook, iterative_optimize, select_codeword
from .cfmimo import ClusterAssignment, top_l_clusters
from .scenario import (
    DEFAULT_NEAR_RT_TICK_MS,
    DEFAULT_NON_RT_TICK_MS,
    NEAR_RT_MAX_INTERVAL_MS,
    NEAR_RT_MIN_INTERVAL_MS,
    NON_RT_MIN_INTERVAL_MS,
    POLICY_FAST_RECOVERY,
    POLICY_MAX_THROUGHPUT,
)
from .simcore import Event, EventKind, Kernel
from .world import World


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


Handler = Callable[["Controller"], list[Action]]
Gate = Callable[["Controller"], bool]


@dataclass(frozen=True)
class ControllerApp:
    name: str
    tier: str  # "NonRT" | "NearRT"
    handler: Handler
    interval_ms: int
    # True when the handler would return [] and change nothing; the app is
    # then skipped. None runs the app at every tick.
    idle: Gate | None = None


class Controller:
    """Registers apps, dispatches their ticks, and applies returned actions.

    Handlers read the live world through the controller; only the
    controller's actions mutate it, so app effects serialize in action order
    and each app sees what the apps before it did. The recovery planner reads
    the same world: at a planning tick `World.out_of_service()` is the set
    that the failure monitor has just read, from one link budget. The RIS
    apps and the offline codebooks take each panel part's UE and evaluator
    from the world too (`World.ris_parts`, `World.ris_evaluator`); the
    controller keeps only the codebooks. A failing handler is logged and
    never halts the run.

    Every app is periodic: a change to the world reaches an app through its
    idle gate at its next tick. Apps tick in groups: a group has one kernel
    event per firing, which runs its apps in registration order. An app joins
    the latest group only when it has the same tier and interval, is
    registered at the same clock, and no kernel event was scheduled since
    that group's tick. Its own tick would then have had the next sequence id,
    and since neither handlers nor actions schedule kernel events, the two
    ticks would stay adjacent in the queue at every fire time. So grouping
    keeps the order of everything the kernel runs.

    After a tick, a group whose gates are all state-only (`_STATE_GATES`)
    and all idle puts its next firing to sleep in the kernel instead of
    scheduling it, with `_wake_key` and the next script entry's time. The
    kernel skips each firing that comes due while the key holds and the
    clock is before that time, and still gives it its sequence id, so no
    other event moves. A group with any other gate, or whose tick kind has
    an observer besides this controller, runs at every firing.
    """

    def __init__(self, world: World, kernel: Kernel) -> None:
        self.world = world
        self.kernel = kernel
        self.cfg = world.scenario.ric
        self.policy: str = self.cfg.policy
        self.apps: dict[str, ControllerApp] = {}
        # (tier, interval, clock, events scheduled so far) when the latest
        # group's tick was scheduled, and that group's apps.
        self._open_group: tuple[tuple[str, int, int, int], list[ControllerApp]] | None = None
        self.blackboard: dict[str, Any] = {}
        self.codebooks: dict[tuple[str, int], Codebook] = {}
        self.cluster_assignment: ClusterAssignment | None = None
        self._script = sorted(self.cfg.script, key=lambda s: s.time_ms)
        kernel.on(EventKind.NON_RT_TICK, self._on_tick)
        kernel.on(EventKind.NEAR_RT_TICK, self._on_tick)
        self._build_offline_codebooks()

    # --- registration ------------------------------------------------------

    def register_app(self, app: ControllerApp) -> None:
        if app.name in self.apps:
            raise DuplicateName(app.name)
        if app.tier == "NonRT" and app.interval_ms < NON_RT_MIN_INTERVAL_MS:
            raise InvalidInterval(f"{app.name}: NonRT interval must be >= {NON_RT_MIN_INTERVAL_MS} ms")
        if app.tier == "NearRT" and not (
            NEAR_RT_MIN_INTERVAL_MS <= app.interval_ms <= NEAR_RT_MAX_INTERVAL_MS
        ):
            raise InvalidInterval(
                f"{app.name}: NearRT interval must be in [{NEAR_RT_MIN_INTERVAL_MS}, {NEAR_RT_MAX_INTERVAL_MS}] ms"
            )
        self.apps[app.name] = app
        tick = (app.tier, app.interval_ms, self.kernel.clock)
        if self._open_group is not None and self._open_group[0] == (*tick, self.kernel.scheduled):
            self._open_group[1].append(app)
            return
        group = [app]
        kind = EventKind.NON_RT_TICK if app.tier == "NonRT" else EventKind.NEAR_RT_TICK
        self.kernel.schedule(self.kernel.clock + app.interval_ms, kind, {"apps": group})
        self._open_group = ((*tick, self.kernel.scheduled), group)

    # --- dispatch ----------------------------------------------------------

    def _on_tick(self, kernel: Kernel, event: Event) -> None:
        group = event.payload["apps"]
        self._run_apps(group)
        period = group[0].interval_ms
        if all(app.idle in _STATE_GATES and app.idle(self) for app in group):
            wake = self._script[0].time_ms if self._script else math.inf
            kernel.sleep(kernel.clock + period, period, event.kind, event.payload, self._wake_key, wake)
        else:
            kernel.schedule(kernel.clock + period, event.kind, event.payload)

    def _wake_key(self) -> tuple:
        """What the state-only gates read besides their own blackboard keys
        and the clock."""
        return self.world.link_state(), self.policy, len(self._script)

    def _run_apps(self, apps: list[ControllerApp]) -> None:
        """Runs the apps in order. Each gate is checked just before its app's
        slot, so it sees what the apps before it in the group have done."""
        for app in apps:
            if app.idle is None or not app.idle(self):
                self._run_app(app)

    def _run_app(self, app: ControllerApp) -> None:
        try:
            actions = app.handler(self)
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
                self.world.add_deployed_node(p.kind, p.position, p.tx_power_dbm, p.freq_ghz)
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
            self.world.configure_ris(panel_id, part_id, config)
            self.kernel.log.log_action(
                now,
                f"ApplyRisConfig by {app.name}: panel {panel_id} part {part_id} "
                f"feedback={action.params.get('feedback', 0)}",
            )
        elif action.kind == "Recluster":
            max_aps = int(action.params["L"])
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
        links = self.world.link_budget()
        if not links.access_ids or not links.ue_ids:
            return ClusterAssignment({})
        return top_l_clusters(links.access_ids, links.ue_ids, links.snr_db, max_aps)

    # --- RIS codebooks -------------------------------------------------------

    def _build_offline_codebooks(self) -> None:
        for panel_id, settings in self.cfg.ris.items():
            for pid_str, part in settings.parts.items():
                if not part.reference_points:
                    continue
                part_id = int(pid_str)
                self.codebooks[(panel_id, part_id)] = build_codebook(
                    self.world.panels[panel_id],
                    part_id,
                    part.reference_points,
                    lambda point, panel_id=panel_id, part_id=part_id: self.world.ris_evaluator(
                        panel_id, point, part_id
                    ),
                )


# --- built-in applications ---------------------------------------------------


def _failure_monitor(ctl: Controller) -> list[Action]:
    oos = ctl.world.out_of_service()
    previous = ctl.blackboard.get("out_of_service")
    ctl.blackboard["out_of_service"] = oos
    if oos and previous is not oos and previous != oos:
        return [Action("Note", {"text": f"outage detected: {len(oos)} UEs out of service"})]
    return []


def _planner_idle(ctl: Controller) -> bool:
    return not ctl.blackboard.get("out_of_service") or bool(ctl.blackboard.get("plan_deployed"))


def _recovery_planner(ctl: Controller) -> list[Action]:
    if _planner_idle(ctl):
        return []
    plan = planner.build_plan(ctl.world)
    if not plan.placements:
        return []
    return [Action("DeployPlan", {"plan": plan})]


def _tracker_off(ctl: Controller) -> bool:
    return ctl.policy != POLICY_FAST_RECOVERY or not ctl.codebooks


def _tracker_idle(ctl: Controller) -> bool:
    """Off, or in a link state where a past run found nothing to change:
    besides the policy and the codebooks, the tracker's output depends only on
    UE positions and panel configurations. The key is only a memo for the
    dispatcher; the handler checks just `_tracker_off`."""
    return _tracker_off(ctl) or ctl.blackboard.get("codebook_key") == ctl.world.link_state()


def _ris_codebook_tracker(ctl: Controller) -> list[Action]:
    if _tracker_off(ctl):
        return []
    actions: list[Action] = []
    for (panel_id, part_id), codebook in sorted(ctl.codebooks.items()):
        ue_id = ctl.world.ris_parts[(panel_id, part_id)]
        codeword = select_codeword(codebook, ctl.world.nodes[ue_id].position)
        members = ctl.world.panels[panel_id].part_elements(part_id)
        if list(ctl.world.ris_configs[panel_id][members]) != codeword:
            actions.append(
                Action(
                    "ApplyRisConfig",
                    {"panel": panel_id, "part": part_id, "config": codeword, "feedback": 0},
                )
            )
    if not actions:  # only a state with nothing to change is safe to skip
        ctl.blackboard["codebook_key"] = ctl.world.link_state()
    return actions


def _tuner_idle(ctl: Controller) -> bool:
    return (
        ctl.policy != POLICY_MAX_THROUGHPUT
        or ctl.blackboard.get("ris_tuned_version") == ctl.world.version
    )


def _ris_iterative_tuner(ctl: Controller) -> list[Action]:
    if _tuner_idle(ctl):
        return []
    actions: list[Action] = []
    for (panel_id, part_id), ue_id in ctl.world.ris_parts.items():
        panel = ctl.world.panels[panel_id]
        members = panel.part_elements(part_id)
        evaluator = ctl.world.ris_evaluator(panel_id, ctl.world.nodes[ue_id].position, part_id)
        # Refine whatever is currently applied (e.g. a codeword picked
        # under fast-recovery); the sweep never makes it worse.
        config, trace = iterative_optimize(
            evaluator, members.size, panel.n_states,
            initial=list(ctl.world.ris_configs[panel_id][members]),
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
    ctl.blackboard["ris_tuned_version"] = ctl.world.version
    return actions


def _clusterer_idle(ctl: Controller) -> bool:
    return ctl.blackboard.get("cluster_version") == ctl.world.version


def _cf_clusterer(ctl: Controller) -> list[Action]:
    if _clusterer_idle(ctl):
        return []
    ctl.blackboard["cluster_version"] = ctl.world.version
    return [Action("Recluster", {"L": ctl.world.scenario.cfmimo.L})]


def _script_idle(ctl: Controller) -> bool:
    """No entry is due: the script is sorted by time."""
    return not ctl._script or ctl._script[0].time_ms > ctl.kernel.clock


def _script_runner(ctl: Controller) -> list[Action]:
    if _script_idle(ctl):
        return []
    actions: list[Action] = []
    remaining = []
    for entry in ctl._script:
        if entry.time_ms > ctl.kernel.clock:
            remaining.append(entry)
            continue
        if entry.policy is not None:
            actions.append(Action("SwitchPolicy", {"name": entry.policy}))
        if entry.ris_off:
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


# Gates whose answer depends only on the world's link state, the policy, the
# script and the clock against its next entry, and blackboard keys that only
# their own handlers write, each to the current state. A group whose gates
# are all of these and all idle stays idle until `Controller._wake_key`
# moves or the next script entry falls due, so its ticks may sleep.
_STATE_GATES = frozenset({_tracker_idle, _tuner_idle, _clusterer_idle, _script_idle})


def _stub(name: str, text: str, interval_ms: int) -> ControllerApp:
    """A NonRT app that announces its note once."""
    key = f"stub_announced_{text}"

    def idle(ctl: Controller) -> bool:
        return bool(ctl.blackboard.get(key))

    def handler(ctl: Controller) -> list[Action]:
        if idle(ctl):
            return []
        ctl.blackboard[key] = True
        return [Action("Note", {"text": text})]

    return ControllerApp(name, "NonRT", handler, interval_ms, idle=idle)


def builtin_apps(
    non_rt_interval_ms: int = DEFAULT_NON_RT_TICK_MS,
    near_rt_interval_ms: int = DEFAULT_NEAR_RT_TICK_MS,
) -> list[ControllerApp]:
    """Default app set: failure monitoring and recovery planning in the NonRT
    tier; RIS tracking/tuning, clustering and scripted policy switches in the
    NearRT tier; energy and sensing management are log-only stubs. Only the
    failure monitor has no idle gate: it writes `out_of_service`, the key the
    planner's gate reads just after it, from the set that the world keeps per
    link budget, so a run at an unchanged version costs one identity test."""
    non_rt, near_rt = non_rt_interval_ms, near_rt_interval_ms
    return [
        ControllerApp("FailureMonitor", "NonRT", _failure_monitor, non_rt),
        ControllerApp("RecoveryPlanner", "NonRT", _recovery_planner, non_rt, idle=_planner_idle),
        ControllerApp("RisCodebookTracker", "NearRT", _ris_codebook_tracker, near_rt, idle=_tracker_idle),
        ControllerApp("RisIterativeTuner", "NearRT", _ris_iterative_tuner, near_rt, idle=_tuner_idle),
        ControllerApp("CfClusterer", "NearRT", _cf_clusterer, near_rt, idle=_clusterer_idle),
        ControllerApp("ScriptRunner", "NearRT", _script_runner, near_rt, idle=_script_idle),
        _stub("EnergyManager", "energy management stub active", non_rt),
        _stub("SensingManager", "sensing management stub active", non_rt),
    ]
