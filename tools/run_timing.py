"""Time the 4 h earthquake run of `rrs run` layer by layer, in this process.

    PYTHONPATH=src python3 tools/run_timing.py [--parent SRC] [--repeats N] [--seed N]

It writes `perfbench.inputs.quake_scenario(seed)` (seed 0 is the bundled
earthquake demo) to a temporary directory and runs `rrs run` on it to
`perfbench.inputs.QUAKE_UNTIL_MS` through `cli.main`, as the benchmark's
`quake_4h` workload does. Each run is timed in layers:

- `run`: the whole command;
- `simulate`: `Simulation.run`;
- `write`: the artifact writes (`cli._atomic_write`);
- `FailureMonitor` and `CfClusterer`: each app's `Controller._run_app`
  calls, the actions it returned included (so a `Recluster` counts).

It prints the median of each layer in ms. With --parent SRC, the `src`
directory of another checkout, the runs of the two checkouts alternate, and
it also prints the parent's medians, their ratio, and whether the two wrote
the same `metrics.csv` and `actions.log`.
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

LAYERS = ("run", "simulate", "write", "FailureMonitor", "CfClusterer")


def timed(times: dict[str, float], layer: str, fn):
    """fn, adding the time of each call to times[layer]."""

    def wrapper(*args, **kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            times[layer] += time.perf_counter() - start

    return wrapper


def instrument(pkg: str, times: dict[str, float]) -> None:
    """Wrap the layer boundaries of the rrsim package imported as pkg."""
    cli = importlib.import_module(f"{pkg}.cli")
    runner = importlib.import_module(f"{pkg}.runner")
    ric = importlib.import_module(f"{pkg}.ric")
    cli._atomic_write = timed(times, "write", cli._atomic_write)
    runner.Simulation.run = timed(times, "simulate", runner.Simulation.run)
    run_app = ric.Controller._run_app

    def run_app_timed(self, app):
        if app.name not in LAYERS:
            return run_app(self, app)
        return timed(times, app.name, run_app)(self, app)

    ric.Controller._run_app = run_app_timed


def run_once(pkg: str, scenario: str, out: str, times: dict[str, float]) -> dict[str, float]:
    """One `rrs run`; the time of each layer in ms."""
    cli = importlib.import_module(f"{pkg}.cli")
    times.clear()
    argv = ["run", "--scenario", scenario, "--until", str(inputs.QUAKE_UNTIL_MS), "--out", out]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        rc = cli.main(argv)
    times["run"] = time.perf_counter() - start
    if rc != 0:
        raise SystemExit(f"{pkg}: rrs run exited with {rc}")
    return {layer: times[layer] * 1e3 for layer in LAYERS}


def digest(out: str) -> str:
    h = hashlib.sha256()
    for name in ("metrics.csv", "actions.log"):
        with open(os.path.join(out, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="src directory of a checkout to compare with")
    parser.add_argument("--repeats", type=int, default=11)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    packages = ["rrsim"] + (["parent_rrsim"] if args.parent else [])
    importlib.import_module("rrsim")
    if args.parent:
        load_package(args.parent, "parent_rrsim")
    times: dict[str, dict[str, float]] = {pkg: defaultdict(float) for pkg in packages}
    for pkg in packages:
        instrument(pkg, times[pkg])

    with tempfile.TemporaryDirectory() as tmp:
        scenario = inputs.write_json(inputs.quake_scenario(args.seed), os.path.join(tmp, "scenario.json"))
        outs = {pkg: os.path.join(tmp, pkg) for pkg in packages}
        results: dict[str, list[dict[str, float]]] = {pkg: [] for pkg in packages}
        for pkg in packages:  # warms imports and caches; not counted
            run_once(pkg, scenario, outs[pkg], times[pkg])
        digests = {pkg: digest(outs[pkg]) for pkg in packages}
        for r in range(args.repeats):
            for pkg in packages[r % len(packages):] + packages[:r % len(packages)]:
                results[pkg].append(run_once(pkg, scenario, outs[pkg], times[pkg]))

    med = {
        pkg: {layer: statistics.median(run[layer] for run in results[pkg]) for layer in LAYERS}
        for pkg in packages
    }
    print(f"{'layer':<16}{'ms':>10}" + (f"{'parent ms':>12}{'ms/parent':>12}" if args.parent else ""))
    for layer in LAYERS:
        line = f"{layer:<16}{med['rrsim'][layer]:>10.2f}"
        if args.parent:
            parent = med["parent_rrsim"][layer]
            line += f"{parent:>12.2f}{med['rrsim'][layer] / parent:>12.3f}"
        print(line)
    if args.parent:
        same = digests["rrsim"] == digests["parent_rrsim"]
        print(f"metrics.csv and actions.log {'identical' if same else 'DIFFER'} ({args.repeats} runs per side)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
