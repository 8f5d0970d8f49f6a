"""Tests of the benchmark itself: every output check passes on a real pass
of today's program and fails on a corrupted copy of its artifacts.

    python3 perfbench/selftest.py

Runs one pass of each workload on seed 0 (about half a minute) under a
temporary directory inside the checkout.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import math
import os
import re
import shutil
import sys
import tempfile
import unittest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, ROOT)

from perfbench import checks, inputs, oracle, tracing, workloads  # noqa: E402

TMP = None


def setUpModule():
    global TMP
    out = os.path.join(ROOT, workloads.OUT_DIR)
    os.makedirs(out, exist_ok=True)
    TMP = tempfile.mkdtemp(prefix="selftest_", dir=out)


def tearDownModule():
    shutil.rmtree(TMP, ignore_errors=True)


def edit(path: str, fn) -> None:
    with open(path) as fh:
        text = fh.read()
    new = fn(text)
    assert new != text, f"corruption left {path} unchanged"
    with open(path, "w") as fh:
        fh.write(new)


class ArtifactCase(unittest.TestCase):
    """Runs the workload's pass once; each test corrupts a fresh copy."""

    workload = None

    @classmethod
    def setUpClass(cls):
        cls.wl = cls.workload(TMP, 0)
        cls.result = cls.wl.run_pass()

    def setUp(self):
        self.copy = os.path.join(TMP, f"{self.wl.name}_{self._testMethodName}")
        shutil.copytree(self.wl.out, self.copy)

    def assertFails(self, problems):
        self.assertTrue(problems, "the check accepted a corrupted artifact")


class TestQuake(ArtifactCase):
    workload = workloads.Quake4h

    def check(self):
        return checks.check_quake(self.wl.scenario, os.path.join(self.copy, "run"))

    def test_pristine_passes(self):
        self.assertEqual(self.result, 0)
        self.assertEqual(self.check(), [])

    def test_flipped_rate(self):
        # One served UE after the plan loses its rate: coverage no longer
        # matches the share of UEs with a rate.
        def flip(text):
            lines = text.split("\n")
            i = next(i for i, l in enumerate(lines) if l.startswith("600000,") and not l.endswith(",0.000000"))
            lines[i] = lines[i].rsplit(",", 1)[0] + ",0.000000"
            return "\n".join(lines)

        edit(os.path.join(self.copy, "run", "metrics.csv"), flip)
        self.assertFails(self.check())

    def test_rate_above_offered_load(self):
        edit(os.path.join(self.copy, "run", "metrics.csv"),
             lambda t: re.sub(r"^(5000,[^,]+,ue_000,)[0-9.]+$", r"\g<1>99.000000", t, count=1, flags=re.M))
        self.assertFails(self.check())

    def test_dropped_battery_expiry(self):
        edit(os.path.join(self.copy, "run", "actions.log"),
             lambda t: re.sub(r"^\d+\tBatteryExpiry: bs_03 failed\n", "", t, flags=re.M))
        self.assertFails(self.check())

    def test_shifted_battery_expiry(self):
        edit(os.path.join(self.copy, "run", "actions.log"),
             lambda t: t.replace("14460000\tBatteryExpiry: bs_03", "14465000\tBatteryExpiry: bs_03"))
        self.assertFails(self.check())

    def test_inflated_plan_estimate(self):
        edit(os.path.join(self.copy, "run", "actions.log"),
             lambda t: re.sub(r"estimate [0-9.]+", "estimate 0.999", t))
        self.assertFails(self.check())

    def test_pre_strike_coverage(self):
        # Drop one UE at t=0 and the coverage with it: consistent with itself,
        # but not with the oracle's link budget.
        def drop(text):
            text = re.sub(r"^0,1\.000000,", "0,0.995000,", text, flags=re.M)
            return re.sub(r"^(0,0\.995000,ue_000,)[0-9.]+$", r"\g<1>0.000000", text, flags=re.M)

        edit(os.path.join(self.copy, "run", "metrics.csv"), drop)
        self.assertFails(self.check())

    def test_recovery_time(self):
        def bump(text):
            data = json.loads(text)
            data["recovery_time_ms"] += 5000
            return json.dumps(data)

        edit(os.path.join(self.copy, "run", "summary.json"), bump)
        self.assertFails(self.check())

    def test_app_error(self):
        edit(os.path.join(self.copy, "run", "actions.log"),
             lambda t: t + "120000\tAppError RecoveryPlanner: boom\n")
        self.assertFails(self.check())

    def test_missing_artifact(self):
        wl = copy.copy(self.wl)
        wl.out = self.copy
        os.remove(os.path.join(self.copy, "run", "summary.json"))
        self.assertFails(wl.check(0))
        wl.clear()  # what the run does before every pass
        self.assertFalse(os.path.exists(os.path.join(self.copy, "run")))


class TestRisBench(ArtifactCase):
    workload = workloads.RisBench76x4

    def setUp(self):
        self.results = list(self.result)

    def check(self):
        return checks.check_ris_bench(self.results, self.wl.seeds, 76, 4)

    def replace(self, algorithm, **changes):
        i = next(i for i, r in enumerate(self.results) if r.algorithm == algorithm)
        self.results[i] = dataclasses.replace(self.results[i], **changes)
        return self.results[i]

    def test_pristine_passes(self):
        self.assertEqual(self.check(), [])

    def test_evaluation_count(self):
        self.replace("iterative", evaluations=303)
        self.assertFails(self.check())

    def test_codebook_feedback(self):
        self.replace("codebook", feedback_messages=1)
        self.assertFails(self.check())

    def test_power_above_coherent_bound(self):
        r = next(r for r in self.results if r.algorithm == "iterative")
        self.replace("iterative", final_power_dbm=r.final_power_dbm + 10.0)
        self.assertFails(self.check())

    def test_power_below_all_zero(self):
        r = next(r for r in self.results if r.algorithm == "iterative")
        self.replace("iterative", final_power_dbm=r.final_power_dbm - 30.0)
        self.assertFails(self.check())

    def test_mean_ordering(self):
        top = max(r.final_power_dbm for r in self.results)
        self.results = [dataclasses.replace(r, final_power_dbm=top + 1.0) if r.algorithm == "grouping" else r
                        for r in self.results]
        self.assertFails(self.check())


class TestRisEmergency(ArtifactCase):
    workload = workloads.RisEmergency

    def check(self):
        problems = self.wl.check(self.result)  # builds the codebooks once
        self.assertEqual(problems, [])
        return checks.check_ris_emergency(self.wl.scenario, os.path.join(self.copy, "run"), self.wl.codebooks)

    def test_pristine_passes(self):
        self.assertEqual(self.result, 0)
        self.assertEqual(self.check(), [])

    def test_tuner_feedback(self):
        edit(os.path.join(self.copy, "run", "actions.log"),
             lambda t: t.replace("RisIterativeTuner: panel ris1 part 1 feedback=152",
                                 "RisIterativeTuner: panel ris1 part 1 feedback=76", 1))
        self.assertFails(self.check())

    def test_tracker_feedback(self):
        edit(os.path.join(self.copy, "run", "actions.log"),
             lambda t: t.replace("RisCodebookTracker: panel ris1 part 0 feedback=0",
                                 "RisCodebookTracker: panel ris1 part 0 feedback=4", 1))
        self.assertFails(self.check())

    def test_flipped_rate_under_codebook(self):
        # Half a second after a step in the first fast-recovery phase the
        # panel follows the codebook.
        def flip(text):
            def swap(m):
                rate = float(m.group(2))
                return f"{m.group(1)}{rate + 1.5:.6f}"
            return re.sub(r"^(20500,[^,]+,rx1,)([0-9.]+)$", swap, text, count=1, flags=re.M)

        edit(os.path.join(self.copy, "run", "metrics.csv"), flip)
        self.assertFails(self.check())

    def test_rate_before_first_tick(self):
        edit(os.path.join(self.copy, "run", "metrics.csv"),
             lambda t: re.sub(r"^(0,[^,]+,rx2,)([0-9.]+)$",
                              lambda m: f"{m.group(1)}{float(m.group(2)) + 3.0:.6f}", t, count=1, flags=re.M))
        self.assertFails(self.check())


class TestPlan(ArtifactCase):
    workload = workloads.PlanBlocked

    def plan_path(self):
        return os.path.join(self.copy, "plan.json")

    def check(self):
        return checks.check_plan(self.wl.scenario, self.plan_path())

    def edit_plan(self, fn):
        def apply(text):
            data = json.loads(text)
            fn(data)
            return json.dumps(data)

        edit(self.plan_path(), apply)

    def test_pristine_passes(self):
        self.assertEqual(self.result, 0)
        self.assertEqual(self.check(), [])

    def test_edited_estimate(self):
        self.edit_plan(lambda d: d.update(estimated_coverage_ratio=d["estimated_coverage_ratio"] - 0.005))
        self.assertFails(self.check())

    def test_backhaul_cycle(self):
        def cycle(d):
            d["backhaul"][0]["parent"] = d["backhaul"][-1]["child"]
        self.edit_plan(cycle)
        self.assertFails(self.check())

    def test_missing_edge(self):
        self.edit_plan(lambda d: d["backhaul"].pop())
        self.assertFails(self.check())

    def test_direct_edge_snr(self):
        def bump(d):
            edge = next(e for e in d["backhaul"] if e["via"] == "direct" and e["parent"] != "sat1")
            edge["snr_db"] += 1.0
        self.edit_plan(bump)
        self.assertFails(self.check())

    def test_missing_artifact(self):
        wl = copy.copy(self.wl)
        wl.out = self.copy
        wl.clear()  # what the run does before every pass
        self.assertFalse(os.path.exists(self.plan_path()))
        self.assertFails(wl.check(0))

    def test_poor_placement(self):
        # Every UAV on the same lattice corner covers far less than greedy can.
        def pile(d):
            cfg = self.wl.scenario["planner"]
            corner = [*cfg["candidate_bounds"][0], cfg["uav_altitude_m"]]
            for p in d["placements"]:
                p["position"] = corner
        self.edit_plan(pile)
        problems = self.check()
        self.assertTrue(any("greedy" in p for p in problems), problems)


class TestOracle(unittest.TestCase):
    def test_slab(self):
        box = ((0.0, 0.0, 0.0), (1.0, 1.0, 1.0))
        self.assertTrue(oracle.los_blocked((-1.0, 0.5, 0.5), (2.0, 0.5, 0.5), [box]))
        self.assertFalse(oracle.los_blocked((-1.0, 2.0, 0.5), (2.0, 2.0, 0.5), [box]))
        self.assertTrue(oracle.los_blocked((-1.0, 1.0, 1.0), (2.0, 1.0, 1.0), [box]))  # touches an edge
        self.assertFalse(oracle.los_blocked((-1.0, 0.5, 0.5), (-0.5, 0.5, 0.5), [box]))  # stops short

    def test_hold_window(self):
        series = [(t, c) for t, c in ((0, 1.0), (5, 0.5), (10, 0.97), (15, 0.4), (20, 0.96), (25, 1.0),
                                      (30, 0.99))]
        self.assertEqual(oracle.recovery_time(series, 5, 1.0, 0.95, hold_ms=10), 15)
        self.assertIsNone(oracle.recovery_time(series, 5, 1.0, 0.95, hold_ms=11))

    def test_staircase_and_surge(self):
        self.assertEqual(oracle.mcs_rate(-4.0001, oracle.DEFAULT_MCS), 0.0)
        self.assertEqual(oracle.mcs_rate(5.0, oracle.DEFAULT_MCS), 4.0)
        self.assertEqual(oracle.mcs_rate(99.0, oracle.DEFAULT_MCS), 24.0)
        self.assertEqual(oracle.surge(oracle.DEFAULT_DATA_SURGE, 900_000), 1.8)
        self.assertEqual(oracle.surge(oracle.DEFAULT_DATA_SURGE, -1.0), 1.0)
        self.assertEqual(oracle.surge(oracle.DEFAULT_DATA_SURGE, 99_000_000), 0.8)

    def test_max_coverage(self):
        self.assertEqual(oracle.max_coverage([0b0011, 0b0110, 0b1000, 0b1100], 2), 4)
        self.assertEqual(oracle.max_coverage([0b0111, 0b0001], 1), 3)

    def test_direct_term_blocked(self):
        chan = oracle.Channel({})
        box = ((0.4, -1.0, -1.0), (0.6, 1.0, 1.0))
        self.assertEqual(oracle.direct_term((0, 0, 0), (1, 0, 0), 3.5, chan, [box]), 0j)
        floor = oracle.Channel({"scatter_floor_db": 10.0})
        clear = abs(oracle.direct_term((0, 0, 0), (1, 0, 0), 3.5, floor, []))
        self.assertAlmostEqual(abs(oracle.direct_term((0, 0, 0), (1, 0, 0), 3.5, floor, [box])),
                               clear * 10 ** (-0.5))


class TestTracer(unittest.TestCase):
    def test_uninstall_restores_the_program(self):
        import importlib
        import inspect

        mods = [importlib.import_module(f"rrsim.{name}") for name in tracing.MODULES]
        owners = mods + [v for m in mods for v in vars(m).values()
                         if inspect.isclass(v) and v.__module__ == m.__name__]
        before = [dict(vars(o)) for o in owners]
        uninstall = tracing.install(tracing.Tracer())
        self.assertNotEqual([dict(vars(o)) for o in owners], before)
        uninstall()
        self.assertEqual([dict(vars(o)) for o in owners], before)


class TestInputsAndDeclaration(unittest.TestCase):
    def test_quake_seed_zero_is_the_bundled_demo(self):
        from rrsim.cli import bundled_scenario_path

        with open(bundled_scenario_path("earthquake_demo.json")) as fh:
            self.assertEqual(inputs.quake_scenario(0), json.load(fh))
        self.assertNotEqual(inputs.quake_scenario(1), inputs.quake_scenario(0))

    def test_generators_are_deterministic(self):
        for make in (inputs.quake_scenario, inputs.ris_emergency_scenario, inputs.plan_blocked_scenario):
            self.assertEqual(make(3), make(3))

    def test_declaration_matches_the_code(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
        declared = {m["name"] for m in spec["per_layer"]}
        produced = set(tracing.Tracer().summary()) | {"trace.plain_pass_s", "trace.traced_pass_s",
                                                      "trace.overhead_ratio"}
        self.assertEqual(declared, produced)
        self.assertEqual({w["name"] for w in spec["workloads"]}, set(workloads.WORKLOADS))

    def test_bench_geometry_matches_the_program(self):
        from rrsim import bench

        for seed in (0, 7):
            g = bench.bench_geometry(seed, 76, 4)
            elements, tx, ue, boxes = oracle.bench_geometry(seed, 76)
            self.assertEqual(tuple(g.tx_pos), tx)
            self.assertEqual(tuple(g.ue_pos), ue)
            self.assertTrue(all(math.dist(a, b) < 1e-12 for a, b in zip(g.panel.element_positions, elements)))


if __name__ == "__main__":
    unittest.main()
