"""End-to-end simulation runner: wires the event kernel, world state, RIC
controller and periodic metrics sampling for one scenario run."""

from __future__ import annotations

from typing import Any

import numpy as np

from . import channel as ch
from .ric import Controller, ControllerApp, builtin_apps
from .scenario import ACCESS_KINDS, Scenario, inject_disaster, traffic_multiplier
from .simcore import Event, EventKind, Kernel, MetricsLog, Sample
from .world import DEFAULT_HEARTBEAT_MS, DEFAULT_SNR_THRESHOLD_DB, World, best_snr_db


class Simulation:
    """One deterministic run of a scenario.

    Identical (scenario, seed) pairs produce bit-identical metrics logs.
    """

    def __init__(
        self,
        scenario: Scenario,
        seed: int | None = None,
        apps: list[ControllerApp] | None = None,
        disabled_apps: set[str] | None = None,
    ) -> None:
        scenario.validate()
        self.scenario = scenario
        self.seed = scenario.seed if seed is None else seed
        self.kernel = Kernel(self.seed)
        self.world = World(scenario)
        self.controller = Controller(self.world, self.kernel)
        self.snr_threshold_db = float(
            scenario.planner.get("snr_threshold_db", DEFAULT_SNR_THRESHOLD_DB)
        )
        self._strike_time: int | None = None
        self._mcs = ch.McsStaircase(scenario.channel.mcs_table)
        self._links: tuple[int, tuple] | None = None
        # (servers list, server code per UE with -1 for none)
        self._codes: tuple[list[str | None], np.ndarray] | None = None

        self.kernel.on(EventKind.DISASTER_STRIKE, self._on_strike)
        self.kernel.on(EventKind.BATTERY_EXPIRY, self._on_battery_expiry)
        self.kernel.on(EventKind.HEARTBEAT_DUE, self._on_heartbeat)
        self.kernel.on(EventKind.MEASUREMENT_DONE, self._on_measurement)

        disabled = disabled_apps or set(scenario.ric.get("disabled_apps", ()))
        app_list = apps if apps is not None else builtin_apps(
            scenario.non_rt_tick_ms, scenario.near_rt_tick_ms
        )
        for app in app_list:
            if app.name not in disabled:
                self.controller.register_app(app)

        for disaster in scenario.disasters:
            for fire_time, kind, payload in inject_disaster(scenario, disaster):
                self.kernel.schedule(fire_time, EventKind(kind), payload)
        for move in scenario.ric.get("ue_moves", ()):
            self.kernel.schedule(
                int(move["time_ms"]),
                EventKind.UE_MOVE,
                {"node_id": move["node_id"], "position": move["position"]},
            )
        self.world.heartbeat(0)
        self.kernel.schedule(DEFAULT_HEARTBEAT_MS, EventKind.HEARTBEAT_DUE)
        self.kernel.schedule(0, EventKind.MEASUREMENT_DONE)

    # --- event handlers ------------------------------------------------------

    def _on_strike(self, kernel: Kernel, event: Event) -> None:
        self.world.apply_strike(
            event.payload["failed"],
            event.payload["power_loss"],
            event.payload["blockages"],
            kernel.clock,
        )
        self.controller.topology_version += 1
        self._strike_time = kernel.clock
        kernel.log.log_action(
            kernel.clock,
            f"DisasterStrike: {len(event.payload['failed'])} failed, "
            f"{len(event.payload['power_loss'])} on battery, "
            f"{len(event.payload['blockages'])} new blockages",
        )

    def _on_battery_expiry(self, kernel: Kernel, event: Event) -> None:
        node_id = event.payload["node_id"]
        if self.world.expire_battery(node_id):
            self.controller.topology_version += 1
            kernel.log.log_action(kernel.clock, f"BatteryExpiry: {node_id} failed")

    def _on_heartbeat(self, kernel: Kernel, event: Event) -> None:
        self.world.heartbeat(kernel.clock)
        kernel.schedule(kernel.clock + DEFAULT_HEARTBEAT_MS, EventKind.HEARTBEAT_DUE)

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

    def _terrestrial_links(self) -> tuple[list[str], np.ndarray, list[str | None], int]:
        """UE ids, best terrestrial SNR per UE, its serving node and the
        active-node count, recomputed only when the world version moved."""
        if self._links is None or self._links[0] != self.world.version:
            ue_ids, positions = self.world.ue_positions()
            access = sorted(
                (n for n in self.world.nodes.values() if n.kind in ACCESS_KINDS and n.serving),
                key=lambda n: n.node_id,
            )
            best, servers = best_snr_db(
                access, positions, self.scenario.channel, self.world.obstacles
            )
            self._links = (
                self.world.version,
                (ue_ids, best, servers, self.world.active_node_count()),
            )
        return self._links[1]

    def _ue_snr_db(self) -> tuple[list[str], np.ndarray, list[str | None], int]:
        ue_ids, best, servers, active_nodes = self._terrestrial_links()
        copied = False

        # RIS-assisted links override the terrestrial path where stronger.
        for panel_id in sorted(self.world.panels):
            for part_id, ue_id in sorted(self.controller.ris_part_assignments(panel_id).items()):
                if ue_id not in ue_ids:
                    continue
                j = ue_ids.index(ue_id)
                power = self.controller.ris_power_at(
                    panel_id, self.world.panel_states[panel_id].config, ue_id
                )
                snr = power - self.scenario.channel.noise_floor_dbm()
                if snr > best[j]:
                    if not copied:  # the cached terrestrial arrays stay untouched
                        best, servers, copied = best.copy(), list(servers), True
                    best[j] = snr
                    servers[j] = panel_id
        return ue_ids, best, servers, active_nodes

    def _server_codes(self, servers: list[str | None]) -> np.ndarray:
        """An integer code per UE for its serving node, -1 for none. Kept
        while `_ue_snr_db` hands back the same list: the cached terrestrial
        one, unless a RIS panel overrode a link. The cache holds the list, so
        its identity cannot be reused."""
        if self._codes is None or self._codes[0] is not servers:
            index: dict[str, int] = {}
            codes = [-1 if s is None else index.setdefault(s, len(index)) for s in servers]
            self._codes = (servers, np.array(codes, dtype=np.intp))
        return self._codes[1]

    def measure(self, now_ms: int, apply_fading: bool | None = None) -> Sample:
        ue_ids, best, servers, active_nodes = self._ue_snr_db()
        n_ue = len(ue_ids)
        if n_ue == 0:
            return Sample(now_ms, 1.0, {}, active_nodes)
        fading = self.scenario.channel.fading if apply_fading is None else apply_fading
        if fading:
            # Rayleigh amplitude per UE link, drawn from the run's fading stream.
            rng = self.kernel.rng("channel.fading")
            amp = np.abs(
                rng.standard_normal(n_ue) + 1j * rng.standard_normal(n_ue)
            ) / np.sqrt(2.0)
            best = best + 20.0 * np.log10(np.maximum(amp, 1e-12))
        covered = best >= self.snr_threshold_db
        coverage_ratio = np.count_nonzero(covered) / n_ue

        # A covered UE with a server shares that server's rate equally with
        # the other covered UEs on it, capped at the offered load.
        offered = self._offered_load_mbps(now_ms)
        codes = self._server_codes(servers)
        served = covered & (codes >= 0)
        served_codes = codes[served]
        share = self._mcs.rates_at(best[served]) / np.bincount(served_codes)[served_codes]
        rates = np.zeros(n_ue)
        rates[served] = np.where(share < offered, share, offered)  # min(offered, share)
        return Sample(now_ms, coverage_ratio, dict(zip(ue_ids, rates.tolist())), active_nodes)

    def baseline_coverage(self) -> float:
        """Coverage ratio of the intact scenario before any event fires."""
        return self.measure(0, apply_fading=False).coverage_ratio

    def run(self, until_ms: int) -> MetricsLog:
        return self.kernel.run_until(until_ms)


def run_scenario(
    scenario: Scenario,
    until_ms: int,
    seed: int | None = None,
    disabled_apps: set[str] | None = None,
) -> tuple[Simulation, MetricsLog]:
    sim = Simulation(scenario, seed=seed, disabled_apps=disabled_apps)
    log = sim.run(until_ms)
    return sim, log


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
