"""The four workloads. Each writes its inputs from the benchmark seed, then
offers a set-up step (timed for ``setup_s``), one pass of the user's command
(timed for ``wall_s``) and a check of that pass's outputs.

The program is reached only through ``rrsim.cli.main``, ``load_scenario``,
``Simulation`` and ``bench.run_bench``, looked up at call time so that the
traced run sees its wrappers.
"""

from __future__ import annotations

import contextlib
import io
import os
import shutil

from . import checks, inputs, tracing

OUT_DIR = ".perfbench_out"


class Workload:
    name = ""
    setup_reps = 0  # set-ups timed before each pass; setup_s is their median

    def __init__(self, root: str, seed: int) -> None:
        self.out = os.path.join(root, OUT_DIR, self.name)
        # Nothing an earlier run wrote may stand in for this run's outputs.
        shutil.rmtree(self.out, ignore_errors=True)
        os.makedirs(self.out)

    def path(self, *parts: str) -> str:
        return os.path.join(self.out, *parts)

    def cli(self, *argv: str) -> int:
        """One `rrs` invocation in this process; its console output is kept
        off the benchmark's own standard output."""
        from rrsim import cli

        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(list(argv))

    def artifacts(self) -> list[str]:
        return []

    def clear(self) -> None:
        """Remove the artifacts of earlier passes, so that a pass is checked
        only against what it wrote itself."""
        for path in self.artifacts():
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)

    def missing(self) -> list[str]:
        return [f"{path} was not written" for path in self.artifacts() if not os.path.isfile(path)]

    def setup(self) -> None:
        raise NotImplementedError

    def run_pass(self):
        raise NotImplementedError

    def check(self, result) -> list[str]:
        raise NotImplementedError

    def check_trace(self, metrics: dict) -> list[str]:
        return []


class ScenarioRun(Workload):
    """`rrs run` on a generated scenario; set-up is load_scenario plus
    Simulation(...), which includes the offline codebook builds."""

    until_ms = 0

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.scenario = self.make_scenario(seed)
        self.scenario_path = inputs.write_json(self.scenario, self.path("scenario.json"))

    def make_scenario(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self) -> None:
        from rrsim import runner, scenario

        runner.Simulation(scenario.load_scenario(self.scenario_path))

    def run_pass(self) -> int:
        return self.cli("run", "--scenario", self.scenario_path, "--until", str(self.until_ms),
                        "--out", self.path("run"))

    def artifacts(self) -> list[str]:
        return [self.path("run", name) for name in ("metrics.csv", "actions.log", "summary.json")]

    def clear(self) -> None:
        shutil.rmtree(self.path("run"), ignore_errors=True)

    def check(self, rc: int) -> list[str]:
        if rc != 0:
            return [f"rrs run exited with {rc}"]
        return self.missing() or self.check_run(self.path("run"))

    def check_run(self, out_dir: str) -> list[str]:
        raise NotImplementedError


class Quake4h(ScenarioRun):
    name = "quake_4h"
    until_ms = inputs.QUAKE_UNTIL_MS
    setup_reps = 5

    def make_scenario(self, seed: int) -> dict:
        return inputs.quake_scenario(seed)

    def check_run(self, out_dir: str) -> list[str]:
        return checks.check_quake(self.scenario, out_dir)


class RisEmergency(ScenarioRun):
    name = "ris_emergency"
    until_ms = inputs.RIS_UNTIL_MS
    setup_reps = 1

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.codebooks: dict[int, str] | None = None

    def make_scenario(self, seed: int) -> dict:
        return inputs.ris_emergency_scenario(seed)

    def check_run(self, out_dir: str) -> list[str]:
        if self.codebooks is None:
            self.codebooks = {}
            for part in (0, 1):
                path = self.path(f"codebook_{part}.json")
                rc = self.cli("codebook", "build", "--scenario", self.scenario_path, "--panel", "ris1",
                              "--part", str(part), "--out", path)
                if rc != 0:
                    return [f"rrs codebook build exited with {rc}"]
                self.codebooks[part] = path
        return checks.check_ris_emergency(self.scenario, out_dir, self.codebooks)


class PlanBlocked(Workload):
    """`rrs plan` on a post-strike city; set-up is what the command builds
    before planning: the scenario and a Simulation with every app off."""

    name = "plan_blocked"
    setup_reps = 5

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.scenario = inputs.plan_blocked_scenario(seed)
        self.scenario_path = inputs.write_json(self.scenario, self.path("scenario.json"))

    def setup(self) -> None:
        from rrsim import runner, scenario

        runner.Simulation(scenario.load_scenario(self.scenario_path), disabled_apps=set(tracing.APPS))

    def run_pass(self) -> int:
        return self.cli("plan", "--scenario", self.scenario_path, "--out", self.path("plan.json"))

    def artifacts(self) -> list[str]:
        return [self.path("plan.json")]

    def check(self, rc: int) -> list[str]:
        if rc != 0:
            return [f"rrs plan exited with {rc}"]
        return self.missing() or checks.check_plan(self.scenario, self.path("plan.json"))

    def check_trace(self, metrics: dict) -> list[str]:
        if metrics["ntn_planner.relay_sweeps"] <= 0:
            return ["the planner made no RIS relay sweep"]
        return []


class RisBench76x4(Workload):
    """bench.run_bench on the paper's 76-element, 4-state panel. Set-up is
    run_bench with no algorithm: the seeded geometries and their evaluators."""

    name = "ris_bench_76x4"
    n_elements, n_states, n_seeds = 76, 4, 10
    algorithms = ("iterative", "grouping", "codebook")
    setup_reps = 5

    def __init__(self, root: str, seed: int) -> None:
        super().__init__(root, seed)
        self.seeds = range(seed * self.n_seeds, (seed + 1) * self.n_seeds)

    def setup(self) -> None:
        from rrsim import bench

        bench.run_bench(self.n_elements, self.n_states, self.seeds, ())

    def run_pass(self):
        from rrsim import bench

        return bench.run_bench(self.n_elements, self.n_states, self.seeds, self.algorithms)

    def check(self, results) -> list[str]:
        return checks.check_ris_bench(results, self.seeds, self.n_elements, self.n_states)


WORKLOADS = {w.name: w for w in (Quake4h, RisBench76x4, RisEmergency, PlanBlocked)}
