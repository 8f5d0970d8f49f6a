"""End-to-end simulation runner: wires the event kernel, world state, the RIC
`Controller` and periodic metrics sampling for one scenario run.

A `Scenario` is checked when it is built, so the runner checks none of it
again: it schedules the expiry of each node loaded on battery, each disaster
and each UE move from the parsed values as they are, and checks only the
disabled app names against the apps it is given. Every world change that the
scenario schedules (a strike, a battery expiry, a UE move) is handled here;
the `Controller` handles only its ticks. A sample reads its links, RIS links
included, from `World.best_links` alone."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from . import channel as ch
from .ric import Controller, ControllerApp, builtin_apps
from .scenario import DisasterEvent, NodeStatus, Scenario, ValidationError, traffic_multiplier
from .simcore import Event, EventKind, Kernel, MetricsLog, RateTable, Sample
from .world import World


@dataclass(eq=False, slots=True)
class _LinkEntry:
    """What a sample takes from one `World.link_state()` key: the UE ids,
    best SNR per UE and server code per UE (-1 for none); without fading also
    the coverage ratio, the served mask, each served UE's share and the
    largest share (-inf with none served), plus the last such sample's cap
    and rate table. NaN equals no cap, so the first sample builds its table."""

    key: tuple
    ue_ids: list[str]
    best: np.ndarray
    codes: np.ndarray
    coverage_ratio: float
    served: np.ndarray
    share: np.ndarray
    top: float
    cap: float = math.nan
    table: RateTable | None = None


class Simulation:
    """One deterministic run of a scenario.

    Identical (scenario, seed) pairs produce bit-identical metrics logs. The
    apps named in `disabled_apps` or in the scenario's `ric.disabled_apps`
    are not registered; a name that is not in the app list is a
    `ValidationError`.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        apps: list[ControllerApp] | None = None,
        disabled_apps: set[str] | None = None,
    ) -> None:
        app_list = apps if apps is not None else builtin_apps(
            scenario.non_rt_tick_ms, scenario.near_rt_tick_ms
        )
        names = [app.name for app in app_list]
        disabled = set(disabled_apps or ()) | set(scenario.ric.disabled_apps)
        unknown = sorted(disabled.difference(names))
        if unknown:
            raise ValidationError(
                f"unknown app(s): {', '.join(unknown)} (choose from {', '.join(names)})"
            )
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.kernel = Kernel(self.seed)
        self.world = World(scenario)
        self.controller = Controller(self.world, self.kernel)
        self._strike_time: int | None = None
        self._mcs = ch.McsStaircase(scenario.channel.mcs_table)
        # The entry of the last link state.
        self._entry: _LinkEntry | None = None

        self.kernel.on(EventKind.DISASTER_STRIKE, self._on_strike)
        self.kernel.on(EventKind.BATTERY_EXPIRY, self._on_battery_expiry)
        self.kernel.on(EventKind.UE_MOVE, self._on_ue_move)
        self.kernel.on(EventKind.MEASUREMENT_DONE, self._on_measurement)

        for app in app_list:
            if app.name not in disabled:
                self.controller.register_app(app)

        for node in scenario.nodes:
            if node.status == NodeStatus.ON_BATTERY:
                self.kernel.schedule(node.battery_ms, EventKind.BATTERY_EXPIRY, {"node_id": node.node_id})
        for disaster in scenario.disasters:
            self.kernel.schedule(disaster.strike_time_ms, EventKind.DISASTER_STRIKE, {"disaster": disaster})
        for move in scenario.ric.ue_moves:
            self.kernel.schedule(
                move.time_ms, EventKind.UE_MOVE, {"node_id": move.node_id, "position": move.position}
            )
        self.kernel.schedule(0, EventKind.MEASUREMENT_DONE)

    # --- event handlers ------------------------------------------------------

    def _on_strike(self, kernel: Kernel, event: Event) -> None:
        disaster: DisasterEvent = event.payload["disaster"]
        on_battery = self.world.apply_strike(
            disaster.failed, disaster.power_loss, disaster.blockages, kernel.clock
        )
        for node_id in on_battery:
            expiry = self.world.nodes[node_id].battery_ms
            kernel.schedule(expiry, EventKind.BATTERY_EXPIRY, {"node_id": node_id})
        self._strike_time = kernel.clock
        kernel.log.log_action(
            kernel.clock,
            f"DisasterStrike: {len(disaster.failed)} failed, {len(on_battery)} on battery, "
            f"{len(disaster.blockages)} new blockages",
        )

    def _on_battery_expiry(self, kernel: Kernel, event: Event) -> None:
        node_id = event.payload["node_id"]
        if self.world.expire_battery(node_id):
            kernel.log.log_action(kernel.clock, f"BatteryExpiry: {node_id} failed")

    def _on_ue_move(self, kernel: Kernel, event: Event) -> None:
        self.world.move_node(event.payload["node_id"], event.payload["position"])

    def _on_measurement(self, kernel: Kernel, event: Event) -> None:
        sample = self.measure(kernel.clock)
        kernel.log.add_sample(sample)
        kernel.schedule(
            kernel.clock + self.scenario.sample_interval_ms, EventKind.MEASUREMENT_DONE
        )

    # --- measurement -----------------------------------------------------------

    def _offered_load_mbps(self, now_ms: int) -> float:
        profile = self.scenario.traffic
        t_since = -1.0 if self._strike_time is None else float(now_ms - self._strike_time)
        data = profile.data_mbps * traffic_multiplier(profile, "data", t_since)
        voice = profile.voice_mbps * traffic_multiplier(profile, "voice", t_since)
        return data + voice

    def _link_entry(self) -> _LinkEntry:
        """The links of the current `World.link_state()` with their coverage
        and contention, computed once per key."""
        key = self.world.link_state()
        entry = self._entry
        if entry is None or entry.key != key:
            ue_ids, best, codes = self.world.best_links()
            ratio, served, share = self._contention(best, codes)
            top = float(share.max()) if share.size else -np.inf
            entry = self._entry = _LinkEntry(key, ue_ids, best, codes, ratio, served, share, top)
        return entry

    def _contention(
        self, best: np.ndarray, codes: np.ndarray
    ) -> tuple[float, np.ndarray, np.ndarray]:
        """Coverage ratio, the served mask and each served UE's share: a
        covered UE with a server shares that server's rate equally with the
        other covered UEs on it."""
        covered = best >= self.world.snr_threshold_db
        served = covered & (codes >= 0)
        served_codes = codes[served]
        share = self._mcs.rates_at(best[served]) / np.bincount(served_codes)[served_codes]
        ratio = np.count_nonzero(covered) / best.size if best.size else 1.0
        return ratio, served, share

    def _capped_table(
        self, ue_ids: list[str], served: np.ndarray, share: np.ndarray, offered: float
    ) -> RateTable:
        """Served UEs at min(offered, share), every other UE at 0."""
        rates = np.zeros(len(ue_ids))
        rates[served] = np.where(share < offered, share, offered)  # min(offered, share)
        return RateTable(zip(ue_ids, rates.tolist()))

    def measure(self, now_ms: int, apply_fading: bool | None = None) -> Sample:
        entry = self._link_entry()
        ue_ids = entry.ue_ids
        offered = self._offered_load_mbps(now_ms)
        fading = self.scenario.channel.fading if apply_fading is None else apply_fading
        if fading:
            # Rayleigh amplitude per UE link, drawn from the run's fading stream.
            rng = self.kernel.rng("channel.fading")
            n_ue = len(ue_ids)
            amp = np.abs(
                rng.standard_normal(n_ue) + 1j * rng.standard_normal(n_ue)
            ) / np.sqrt(2.0)
            best = entry.best + 20.0 * np.log10(np.maximum(amp, 1e-12))
            ratio, served, share = self._contention(best, entry.codes)
            table = self._capped_table(ue_ids, served, share, offered)
            return Sample(now_ms, ratio, table)
        # The rates stand while the entry and its cap do. The cap is the
        # offered load, or inf above the largest share, where no UE is capped;
        # caps compare bitwise, so 0.0 and -0.0 differ and NaN never repeats.
        cap = math.inf if offered > entry.top else offered
        last = entry.cap
        if not (cap == last and math.copysign(1.0, cap) == math.copysign(1.0, last)):
            entry.table = self._capped_table(ue_ids, entry.served, entry.share, offered)
            entry.cap = cap
        return Sample(now_ms, entry.coverage_ratio, entry.table)

    def baseline_coverage(self) -> float:
        """Coverage ratio of the intact scenario before any event fires."""
        return self.measure(0, apply_fading=False).coverage_ratio

    def run(self, until_ms: int) -> MetricsLog:
        return self.kernel.run_until(until_ms)


def summarize_run(sim: Simulation, log: MetricsLog, recovery: Any) -> dict[str, Any]:
    pre = log.samples[0].coverage_ratio if log.samples else None
    post = log.samples[-1].coverage_ratio if log.samples else None
    return {
        "seed": sim.seed,
        "recovery_time_ms": recovery if isinstance(recovery, int) else "not_recovered",
        "pre_disaster_coverage": pre,
        "final_coverage": post,
        "n_samples": len(log.samples),
        "actions": [[t, desc] for t, desc in log.actions],
    }
