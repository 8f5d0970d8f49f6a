"""Acceptance suite: one test per release criterion, each printing a single
PASS line with the measured numbers when it holds.

Criteria (tolerances pinned inline):
  1. iterative sweep on a 76-element, 4-state panel costs exactly 304 calls
  2. mean-power ordering iterative >= grouping >= codebook over 100 seeds,
     with evaluation counts 64 > 16 > 0 and an exhaustive-dominance check
  3. fixed-point sweep reaches >= 95% of the exhaustive optimum in >= 95/100
     seeds; cascaded gain matches an independent oracle to 1e-9 relative
  4. two-UE demo: iterative >= codebook >= all-zero at all 7 points per UE,
     with zero feedback messages for codebook selection
  5. indoor demo: RIS off < 10 Mbps, tuned in [18, 21] Mbps, and the
     scripted mid-run shutdown drops the rate within one NearRT tick
  6. earthquake demo recovers (finite recovery time); without the planner it
     does not; battery-only sites fail exactly 4 h after the strike
  7. greedy placement >= (1 - 1/e) x brute force on exhaustive small
     instances; simulated restored coverage >= the plan's estimate
  8. every CLI command is byte-deterministic across repeated invocations
"""

import cmath
import filecmp
import itertools
import json
import math
import time

import numpy as np
import pytest

from rrsim import bench as bench_mod
from rrsim import channel as ch
from rrsim import ntn_planner as planner_mod
from rrsim.cli import bundled_scenario_path, main
from rrsim.ris_opt import (
    build_codebook,
    exhaustive_optimize,
    iterative_fixed_point,
    iterative_optimize,
    model_evaluator,
    select_codeword,
)
from rrsim.runner import Simulation
from rrsim.scenario import load_scenario
from rrsim.simcore import NOT_RECOVERED, recovery_time, rng_stream


def report(criterion: int, details: str) -> None:
    print(f"criterion {criterion}: PASS ({details})")


@pytest.fixture(scope="module")
def earthquake_run():
    """Full earthquake demo run shared by the recovery checks."""
    scenario = load_scenario(bundled_scenario_path("earthquake_demo.json"))
    sim = Simulation(scenario)
    baseline = sim.baseline_coverage()
    log = sim.run(14_520_000)
    return scenario, baseline, log


class TestCriterion1:
    def test_evaluation_count_is_exact(self):
        start = time.perf_counter()
        calls = [0]

        def evaluator(config):
            calls[0] += 1
            return -float(sum(config))

        _, trace = iterative_optimize(evaluator, 76, 4)
        elapsed = time.perf_counter() - start
        assert calls[0] == 304
        assert trace.evaluations_used == 304
        assert elapsed < 1.0
        report(1, f"304 evaluator calls, {elapsed:.3f} s")


class TestCriterion2:
    def test_mean_ordering_and_costs(self):
        start = time.perf_counter()
        results = bench_mod.run_bench(
            16, 4, range(100), ("iterative", "grouping", "codebook"), group_count=4
        )
        means = {a: bench_mod.mean_power_dbm(results, a) for a in ("iterative", "grouping", "codebook")}
        assert means["iterative"] >= means["grouping"] >= means["codebook"]
        evals = {a: {r.evaluations for r in results if r.algorithm == a}
                 for a in ("iterative", "grouping", "codebook")}
        assert evals["iterative"] == {64}
        assert evals["grouping"] == {16}
        assert evals["codebook"] == {0}
        feedback = {r.feedback_messages for r in results if r.algorithm == "codebook"}
        assert feedback == {0}

        # exhaustive dominates iterative per seed where the search is small
        violations = 0
        for seed in range(20):
            geometry = bench_mod.bench_geometry(seed, 10, 2)
            evaluator = geometry.evaluator_for(geometry.ue_pos)
            config, _ = iterative_optimize(evaluator, 10, 2)
            _, best = exhaustive_optimize(evaluator, 10, 2)
            if best < evaluator(config) - 1e-9:
                violations += 1
        elapsed = time.perf_counter() - start
        assert violations == 0
        assert elapsed < 60.0
        report(
            2,
            "means dBm iterative/grouping/codebook = "
            f"{means['iterative']:.2f}/{means['grouping']:.2f}/{means['codebook']:.2f}, "
            f"evals 64>16>0, 0 dominance violations, {elapsed:.1f} s",
        )


def oracle_gain(tx, elements, states, config, rx, freq_ghz, params):
    """Direct summation of the reflected-path phasors, scalar cmath style."""
    wavelength = 299_792_458.0 / (freq_ghz * 1e9)
    pl0 = 20.0 * math.log10(4.0 * math.pi * params.d0_m * freq_ghz * 1e9 / 299_792_458.0)

    def seg_amp(d):
        d = max(d, params.d0_m)
        pl = pl0 + 10.0 * params.exponent * math.log10(d / params.d0_m)
        return 10.0 ** (-pl / 20.0)

    total = 0j
    for pos, s in zip(elements, config):
        amp_k, theta_k = states[s]
        d1 = math.dist(tx, pos)
        d2 = math.dist(pos, rx)
        phase = theta_k - 2.0 * math.pi * (d1 + d2) / wavelength
        total += amp_k * seg_amp(d1) * seg_amp(d2) * cmath.exp(1j * phase)
    d = math.dist(tx, rx)
    pl_direct = pl0 + 10.0 * params.exponent * math.log10(max(d, params.d0_m) / params.d0_m)
    total += 10.0 ** (-pl_direct / 20.0) * cmath.exp(-2j * math.pi * d / wavelength)
    return total


class TestCriterion3:
    def test_fixed_point_near_optimal(self):
        start = time.perf_counter()
        hits = 0
        for seed in range(100):
            geometry = bench_mod.bench_geometry(seed, 8, 2)
            evaluator = geometry.evaluator_for(geometry.ue_pos)
            config, _ = iterative_fixed_point(evaluator, 8, 2)
            _, best_dbm = exhaustive_optimize(evaluator, 8, 2)
            got = 10 ** (evaluator(config) / 10.0)
            best = 10 ** (best_dbm / 10.0)
            if got >= 0.95 * best:
                hits += 1

        rng = rng_stream(1, "acceptance.oracle")
        worst = 0.0
        for _ in range(1000):
            n = int(rng.integers(1, 9))
            elements = rng.uniform(-1.0, 1.0, (n, 3))
            panel = ch.RisPanel("p", elements, states=ch.HV4_STATES)
            tx = tuple(rng.uniform(1.5, 3.0, 3))
            rx = tuple(rng.uniform(-3.0, -1.5, 3))
            config = rng.integers(0, 4, n)
            params = ch.ChannelParams(exponent=float(rng.uniform(2.0, 3.5)), d0_m=0.1)
            gain = ch.cascaded_gain(tx, panel, config, rx, 3.5, params)
            got = cmath.rect(gain.amplitude, gain.phase)
            want = oracle_gain(tx, elements, ch.HV4_STATES, config, rx, 3.5, params)
            worst = max(worst, abs(got - want) / abs(want))
        elapsed = time.perf_counter() - start
        assert hits >= 95
        assert worst <= 1e-9
        assert elapsed < 30.0
        report(3, f"{hits}/100 seeds >= 95% of optimum, worst oracle error {worst:.2e}, {elapsed:.1f} s")


class TestCriterion4:
    def test_two_ue_demo_power_ordering(self, two_ue_scenario):
        start = time.perf_counter()
        sim = Simulation(two_ue_scenario, disabled_apps={"FailureMonitor", "RecoveryPlanner",
                                                         "RisCodebookTracker", "RisIterativeTuner",
                                                         "CfClusterer", "ScriptRunner",
                                                         "EnergyManager", "SensingManager"})
        panel = sim.world.panels["ris1"]
        cfg = two_ue_scenario.ric.ris["ris1"]
        tx = sim.world.nodes[cfg.tx]
        zero_base = np.zeros(panel.n_elements, dtype=int)
        min_gap_cb = math.inf
        min_gap_zero = math.inf
        for part_id in (0, 1):
            members = panel.part_elements(part_id)
            refs = cfg.parts[str(part_id)].reference_points
            assert len(refs) == 7

            def evaluator_at(point):
                return model_evaluator(
                    panel, tx.position, tx.tx_power_dbm, point, tx.freq_ghz,
                    two_ue_scenario.channel, obstacles=sim.world.obstacles,
                    part_elements=members, base_config=zero_base,
                )

            codebook = build_codebook(panel, part_id, refs, evaluator_at)
            for point in refs:
                evaluator = evaluator_at(point)
                codeword = select_codeword(codebook, point)
                p_codebook = evaluator(codeword)
                config, _ = iterative_optimize(
                    evaluator, members.size, panel.n_states, passes=2, initial=codeword
                )
                p_iterative = evaluator(config)
                p_zero = evaluator([0] * members.size)
                min_gap_cb = min(min_gap_cb, p_iterative - p_codebook)
                min_gap_zero = min(min_gap_zero, p_codebook - p_zero)
        elapsed = time.perf_counter() - start
        assert min_gap_cb >= -1e-9  # iterative >= codebook at every point
        assert min_gap_zero >= -1e-9  # codebook >= no phase shift at every point
        assert elapsed < 10.0
        report(
            4,
            f"14 test points, iterative-codebook gap >= {min_gap_cb:+.3f} dB, "
            f"codebook-zero gap >= {min_gap_zero:+.3f} dB, 0 feedback, {elapsed:.1f} s",
        )


class TestCriterion5:
    def test_indoor_demo_rate_profile(self, indoor_scenario):
        start = time.perf_counter()
        sim = Simulation(indoor_scenario)
        log = sim.run(31_000)
        thr = {s.time_ms: s.throughput_mbps["ue1"] for s in log.samples}
        elapsed = time.perf_counter() - start
        assert thr[0] < 10.0  # before any tuning the RIS is dark
        assert 18.0 <= thr[29_900] <= 21.0  # steady state with the tuned panel
        # scripted shutdown at t=30 s: below 10 Mbps within one NearRT tick
        near_rt = indoor_scenario.near_rt_tick_ms
        assert thr[30_000 + near_rt] < 10.0
        assert thr[30_000] < 10.0
        assert elapsed < 10.0
        report(
            5,
            f"off {thr[0]:.1f} Mbps, tuned {thr[29_900]:.1f} Mbps, "
            f"post-shutdown {thr[30_000]:.1f} Mbps within {near_rt} ms, {elapsed:.1f} s",
        )


class TestCriterion6:
    def test_recovery_and_battery_deadline(self, earthquake_run):
        start = time.perf_counter()
        scenario, baseline, log = earthquake_run
        recovered = recovery_time(log, baseline, 0.95)
        assert recovered is not NOT_RECOVERED
        assert recovered > 0

        strike = scenario.disasters[0].strike_time_ms
        expiries = [t for t, d in log.actions if d.startswith("BatteryExpiry")]
        assert len(expiries) == 8
        assert set(expiries) == {strike + 14_400_000}

        # without the planner the outage persists
        sim = Simulation(scenario, disabled_apps={"RecoveryPlanner"})
        base = sim.baseline_coverage()
        short_log = sim.run(300_000)
        assert recovery_time(short_log, base, 0.95) is NOT_RECOVERED
        elapsed = time.perf_counter() - start
        report(
            6,
            f"recovery {recovered} ms, 8 battery failures at strike+14400000 ms, "
            f"planner-off run not recovered, {elapsed:.1f} s (+ shared run)",
        )


class TestCriterion7:
    PARAMS = ch.ChannelParams(exponent=3.0)

    def brute_force(self, sets, universe, budget):
        best = 0
        for size in range(1, budget + 1):
            for combo in itertools.combinations(range(len(sets)), size):
                covered = set().union(*(sets[i] for i in combo)) & universe
                best = max(best, len(covered))
        return best

    def test_greedy_bound_and_plan_soundness(self):
        start = time.perf_counter()
        bound = 1.0 - 1.0 / math.e
        rng = rng_stream(17, "acceptance.greedy")
        violations = 0
        for _ in range(50):
            n_cand = int(rng.integers(3, 7))
            n_ue = int(rng.integers(4, 13))
            budget = int(rng.integers(1, 4))
            candidates = [
                (float(x), float(y), 120.0) for x, y in rng.uniform(0, 3000, (n_cand, 2))
            ]
            ue_ids = [f"ue{j}" for j in range(n_ue)]
            positions = np.column_stack(
                [rng.uniform(0, 3000, (n_ue, 2)), np.full(n_ue, 1.5)]
            )
            sets = planner_mod.coverage_sets(
                candidates, ue_ids, positions, 3.0, self.PARAMS, (), tx_power_dbm=45.0
            )
            placements = planner_mod.place_ntn(
                set(ue_ids), candidates, ue_ids, positions, budget, 3.0, self.PARAMS,
                tx_power_dbm=45.0,
            )
            chosen = [candidates.index(tuple(p.position)) for p in placements]
            got = len(set().union(*(sets[i] for i in chosen)) & set(ue_ids)) if chosen else 0
            opt = self.brute_force(sets, set(ue_ids), budget)
            if got < bound * opt - 1e-9:
                violations += 1
        assert violations == 0

        # plan soundness on the bundled disaster: simulated restored coverage
        # (no fading) is at least the plan's own estimate
        scenario = load_scenario(bundled_scenario_path("earthquake_demo.json"))
        sim = Simulation(
            scenario,
            disabled_apps={"FailureMonitor", "RecoveryPlanner", "RisCodebookTracker",
                           "RisIterativeTuner", "CfClusterer", "ScriptRunner",
                           "EnergyManager", "SensingManager"},
        )
        strike = scenario.disasters[0].strike_time_ms
        sim.run(strike)
        plan = planner_mod.build_plan(sim.world)
        for p in plan.placements:
            sim.world.add_deployed_node(p.kind, p.position, p.tx_power_dbm, p.freq_ghz)
        restored = sim.measure(strike, apply_fading=False).coverage_ratio
        elapsed = time.perf_counter() - start
        assert restored >= plan.estimated_coverage_ratio - 1e-9
        assert elapsed < 60.0
        report(
            7,
            f"0/50 greedy bound violations, restored {restored:.3f} >= "
            f"estimate {plan.estimated_coverage_ratio:.3f}, {elapsed:.1f} s",
        )


class TestCriterion8:
    def run_twice(self, build_args, tmp_path, artifacts):
        outputs = []
        for tag in ("a", "b"):
            out = tmp_path / tag
            out.mkdir(parents=True, exist_ok=True)
            rc = main(build_args(out))
            assert rc == 0
            outputs.append(out)
        for name in artifacts:
            first, second = outputs[0] / name, outputs[1] / name
            assert filecmp.cmp(first, second, shallow=False), f"{name} differs between runs"

    def test_cli_outputs_are_byte_identical(self, tmp_path, capsys):
        start = time.perf_counter()
        scenario = tmp_path / "scenario.json"
        scenario.write_text(json.dumps({
            "seed": 3,
            "ticks": {"non_rt_ms": 60_000, "near_rt_ms": 1_000, "sample_ms": 5_000},
            "nodes": [
                {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
                {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25], "tx_power_dbm": 43},
                {"id": "ue1", "kind": "UE", "position": [50, 10, 1.5]},
            ],
            "channel": {"exponent": 3.0},
            "disasters": [{"time_ms": 30_000, "fail": []}],
        }))

        self.run_twice(
            lambda out: ["run", "--scenario", str(scenario), "--until", "60000", "--out", str(out)],
            tmp_path / "run",
            ("metrics.csv", "actions.log", "summary.json"),
        )
        self.run_twice(
            lambda out: ["ris", "bench", "--panel", "16,4", "--seeds", "5",
                         "--out", str(out / "bench.csv")],
            tmp_path / "bench",
            ("bench.csv",),
        )
        self.run_twice(
            lambda out: ["plan", "--scenario", bundled_scenario_path("earthquake_demo.json"),
                         "--out", str(out / "plan.json")],
            tmp_path / "plan",
            ("plan.json",),
        )
        self.run_twice(
            lambda out: ["codebook", "build",
                         "--scenario", bundled_scenario_path("two_ue_demo.json"),
                         "--panel", "ris1", "--part", "0", "--out", str(out / "cb.json")],
            tmp_path / "codebook",
            ("cb.json",),
        )
        elapsed = time.perf_counter() - start
        report(8, f"run/bench/plan/codebook byte-identical across reruns, {elapsed:.1f} s")
