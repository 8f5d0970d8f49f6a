"""Time the stacked RIS sweep kernel against single sweeps.

    PYTHONPATH=src python3 tools/sweep_timing.py [--parent SRC] [--repeats N]

For P evaluators (P in 1, 7 and 17) on two panels, the 76x4 line panel of
`rrs ris bench` (reference points on an arc) and the 8x8 relay panel of the
planner (sites on a ring), it times one `iterative_optimize_all` call over
the P evaluators and P `iterative_optimize` calls, interleaved, and prints
the median time per evaluator of each. Each evaluator's link table is built
before the timing starts, so only the sweeps are timed.

With --parent SRC, the `src` directory of another checkout, it also times P
`iterative_optimize` calls of that checkout, so that `single/parent` shows
what one evaluator through this checkout's kernel costs against the other's.
"""

from __future__ import annotations

import argparse
import importlib
import importlib.util
import math
import os
import statistics
import sys
import time

P_VALUES = (1, 7, 17)
RELAY_A, RELAY_B = (0.0, 0.0, 30.0), (800.0, 0.0, 120.0)


def load_package(src: str, name: str):
    """The rrsim package under src, imported as `name` beside this one."""
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(src, "rrsim", "__init__.py"),
        submodule_search_locations=[os.path.join(src, "rrsim")],
    )
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def bench_evaluators(pkg: str, p: int):
    """p evaluators of the 76x4 bench panel at reference points on an arc."""
    bench = importlib.import_module(f"{pkg}.bench")
    geometry = bench.bench_geometry(0, 76, 4)
    angles = [30.0 + 120.0 * k / max(p - 1, 1) for k in range(p)]
    points = [
        (1.7 * math.cos(math.radians(a)), 1.7 * math.sin(math.radians(a)), 1.0) for a in angles
    ]
    return [geometry.evaluator_for(point) for point in points], 76, 4


def relay_evaluators(pkg: str, p: int):
    """p evaluators of the 8x8 relay panel at sites on a ring between two
    endpoints, as the planner builds them."""
    ch = importlib.import_module(f"{pkg}.channel")
    ris_opt = importlib.import_module(f"{pkg}.ris_opt")
    params = ch.ChannelParams(exponent=2.2)
    evaluators = []
    for k in range(p):
        a = 2.0 * math.pi * k / p
        site = (400.0 + 300.0 * math.cos(a), 300.0 * math.sin(a), 210.0)
        panel = ch.RisPanel.planar("relay", site, 8, 8, pitch_m=0.04)
        evaluators.append(ris_opt.model_evaluator(panel, RELAY_A, 45.0, RELAY_B, 2.0, params))
    return evaluators, 64, len(ch.HV4_STATES)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", help="src directory of a checkout to compare single sweeps with")
    parser.add_argument("--repeats", type=int, default=41)
    args = parser.parse_args(argv)
    packages = ["rrsim"] + (["parent_rrsim"] if args.parent else [])
    importlib.import_module("rrsim")
    if args.parent:
        load_package(args.parent, "parent_rrsim")
    ris_opt = importlib.import_module("rrsim.ris_opt")

    print(f"{'panel':<8}{'P':>4}{'stack ms/ev':>13}{'single ms/ev':>14}"
          + (f"{'parent ms/ev':>14}" if args.parent else "")
          + f"{'stack/single':>14}" + (f"{'single/parent':>15}" if args.parent else ""))
    for panel, make in (("76x4", bench_evaluators), ("8x8", relay_evaluators)):
        for p in P_VALUES:
            sets = {pkg: make(pkg, p) for pkg in packages}
            evaluators, n, s = sets["rrsim"]
            runs = {
                "stack": lambda: ris_opt.iterative_optimize_all(evaluators, n, s),
                "single": lambda: [ris_opt.iterative_optimize(e, n, s) for e in evaluators],
            }
            if args.parent:
                parent_opt = importlib.import_module("parent_rrsim.ris_opt")
                parent_evaluators = sets["parent_rrsim"][0]
                runs["parent"] = lambda: [parent_opt.iterative_optimize(e, n, s) for e in parent_evaluators]
            for run in runs.values():  # builds every link table
                run()
            times: dict[str, list[float]] = {name: [] for name in runs}
            order = list(runs)
            for r in range(args.repeats):
                for name in order[r % len(order):] + order[:r % len(order)]:
                    start = time.perf_counter()
                    runs[name]()
                    times[name].append((time.perf_counter() - start) / p)
            med = {name: statistics.median(t) * 1e3 for name, t in times.items()}
            line = f"{panel:<8}{p:>4}{med['stack']:>13.4f}{med['single']:>14.4f}"
            if args.parent:
                line += f"{med['parent']:>14.4f}"
            line += f"{med['stack'] / med['single']:>14.3f}"
            if args.parent:
                line += f"{med['single'] / med['parent']:>15.3f}"
            print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
