"""Time one `rrs run` of a benchmark workload layer by layer, in this process.

    PYTHONPATH=src python3 tools/run_timing.py [--workload quake_4h|ris_emergency]
        [--parent SRC] [--repeats N] [--seed N]

It writes the workload's scenario from `perfbench.inputs` to a temporary
directory and runs `rrs run` on it through `cli.main`, as the benchmark's
workload of that name does: `quake_4h` (the default) is the 4 h earthquake
run of `quake_scenario(seed)`, seed 0 the bundled earthquake demo;
`ris_emergency` the RIS room of `ris_emergency_scenario(seed)`. Each run is
timed in layers:

- `run`: the whole command;
- `simulate`: `Simulation.run`;
- `write`: the artifact writes (`cli._atomic_write`);
- on `ris_emergency`, `link_budget` (every `World.link_budget` call, a
  kept budget included; a checkout whose budget holds access links only
  times those alone) and `rebuild` (`world.access_snr_matrix`, the work of
  each access-link rebuild);
- the controller apps of the workload, `FailureMonitor` and `CfClusterer` or
  `RisCodebookTracker`, `RisIterativeTuner` and `CfClusterer`: each app's
  `Controller._run_app` calls, the actions it returned included (so a
  `Recluster` or an `ApplyRisConfig` counts).

It prints the median of each layer in ms, and for `link_budget` and
`rebuild` also their calls per run and µs per call. With --parent SRC, the
`src` directory of another checkout, the runs of the two checkouts
alternate, and it also prints the parent's medians, their ratio, and
whether the two wrote the same `metrics.csv` and `actions.log`.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import os
import statistics
import sys
import tempfile
import time
from collections import defaultdict

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), ".."))

from perfbench import inputs  # noqa: E402
from sweep_timing import load_package  # noqa: E402

# Per workload: its scenario, how long it runs, and its layers.
WORKLOADS = {
    "quake_4h": (inputs.quake_scenario, inputs.QUAKE_UNTIL_MS,
                 ("run", "simulate", "write", "FailureMonitor", "CfClusterer")),
    "ris_emergency": (inputs.ris_emergency_scenario, inputs.RIS_UNTIL_MS,
                      ("run", "simulate", "write", "link_budget", "rebuild",
                       "RisCodebookTracker", "RisIterativeTuner", "CfClusterer")),
}
# Layers whose calls are counted and reported per call.
PER_CALL = ("link_budget", "rebuild")


def timed(times: dict[str, float], layer: str, fn):
    """fn, adding the time of each call to times[layer] and counting the
    calls in times[layer + " calls"]."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[layer] += time.perf_counter() - start
            times[layer + " calls"] += 1

    return wrapper


def instrument(pkg: str, times: dict[str, float], layers: tuple[str, ...]) -> None:
    """Wrap the layer boundaries of the rrsim package imported as pkg."""
    cli = importlib.import_module(f"{pkg}.cli")
    runner = importlib.import_module(f"{pkg}.runner")
    ric = importlib.import_module(f"{pkg}.ric")
    world = importlib.import_module(f"{pkg}.world")
    cli._atomic_write = timed(times, "write", cli._atomic_write)
    runner.Simulation.run = timed(times, "simulate", runner.Simulation.run)
    if "link_budget" in layers:
        world.World.link_budget = timed(times, "link_budget", world.World.link_budget)
    if "rebuild" in layers:
        world.access_snr_matrix = timed(times, "rebuild", world.access_snr_matrix)
    run_app = ric.Controller._run_app

    def run_app_timed(self, app):
        if app.name not in layers:
            return run_app(self, app)
        return timed(times, app.name, run_app)(self, app)

    ric.Controller._run_app = run_app_timed


def run_once(pkg: str, scenario: str, until_ms: int, out: str, times: dict[str, float],
             layers: tuple[str, ...]) -> dict[str, float]:
    """One `rrs run`; the time of each layer in ms, and the calls of each
    per-call layer."""
    cli = importlib.import_module(f"{pkg}.cli")
    times.clear()
    argv = ["run", "--scenario", scenario, "--until", str(until_ms), "--out", out]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    times["run"] = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"{pkg}: rrs run exited with {rc}")
    result = {layer: times[layer] * 1e3 for layer in layers}
    result.update({layer + " calls": times[layer + " calls"] for layer in PER_CALL if layer in layers})
    return result


def digest(out: str) -> str:
    h = hashlib.sha256()
    for name in ("metrics.csv", "actions.log"):
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), default="quake_4h")
    parser.add_argument("--parent", help="src directory of a checkout to compare with")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    make_scenario, until_ms, layers = WORKLOADS[args.workload]
    packages = ["rrsim"] + (["parent_rrsim"] if args.parent else [])
    importlib.import_module("rrsim")
    if args.parent:
        load_package(args.parent, "parent_rrsim")
    times: dict[str, dict[str, float]] = {pkg: defaultdict(float) for pkg in packages}
    for pkg in packages:
        instrument(pkg, times[pkg], layers)

    with tempfile.TemporaryDirectory() as tmp:
        scenario = inputs.write_json(make_scenario(args.seed), os.path.join(tmp, "scenario.json"))
        outs = {pkg: os.path.join(tmp, pkg) for pkg in packages}
        results: dict[str, list[dict[str, float]]] = {pkg: [] for pkg in packages}
        for pkg in packages:  # warms imports and caches; not counted
            run_once(pkg, scenario, until_ms, outs[pkg], times[pkg], layers)
        digests = {pkg: digest(outs[pkg]) for pkg in packages}
        for r in range(args.repeats):
            for pkg in packages[r % len(packages):] + packages[:r % len(packages)]:
                results[pkg].append(run_once(pkg, scenario, until_ms, outs[pkg], times[pkg], layers))

    med = {pkg: {key: statistics.median(run[key] for run in results[pkg]) for key in results[pkg][0]}
           for pkg in packages}
    width = max(16, 2 + max(map(len, layers)))
    print(f"{'layer':<{width}}{'ms':>10}" + (f"{'parent ms':>12}{'ms/parent':>12}" if args.parent else ""))
    for layer in layers:
        line = f"{layer:<{width}}{med['rrsim'][layer]:>10.2f}"
        if args.parent:
            parent = med["parent_rrsim"][layer]
            line += f"{parent:>12.2f}{med['rrsim'][layer] / parent:>12.3f}"
        print(line)
    for layer in (layer for layer in PER_CALL if layer in layers):
        line = f"{layer}: " + ", parent ".join(
            f"{med[pkg][layer + ' calls']:.0f} calls, "
            f"{1e3 * med[pkg][layer] / max(med[pkg][layer + ' calls'], 1):.1f} us per call"
            for pkg in packages
        )
        print(line)
    if args.parent:
        same = digests["rrsim"] == digests["parent_rrsim"]
        print(f"metrics.csv and actions.log {'identical' if same else 'DIFFER'} ({args.repeats} runs per side)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
