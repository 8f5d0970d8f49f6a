"""Benchmark of the rrsim recovery loop.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. One process runs one workload: it
writes the workload's inputs from the seed, then repeats whole rounds until
the next one would end after S seconds (there is always one). The outputs
of every pass are removed before it and checked in full after it. The last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.

With ``--trace 0`` a round is a few timed set-ups and one pass, between two
bursts of a fixed host-speed probe; the metrics are the mean pass time and
the median set-up time, both rescaled to the host's reference speed, and the
peak resident memory. With ``--trace 1`` a round is an untraced pass and a
traced one; the traced passes give the per-layer metrics, and the pairs give
the tracing overhead. The spans of the last traced pass go to
``.perfbench_out/<workload>/trace.jsonl``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

# The machine has two cores and the workloads are single-process: keep BLAS
# from starting threads that would compete with the interpreter.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# Host-speed probe. This host's speed drifts by 1.5x and more, within a
# pass and over minutes, and a pass time alone cannot tell that from a change
# in the program. The probe is a fixed mix of interpreter and small-numpy work
# like the program's; it is timed PROBES times before and after each pass, and
# the pass time is divided by the median of those probe times and multiplied
# by REF_PROBE_S, the probe's time on the reference host in its fast state.
# The result reads as the pass time at that speed.
PROBES = 5
REF_PROBE_S = 0.0072
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


def probe() -> float:
    t0 = time.perf_counter()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(200):
        np.dot(_PROBE_MATRIX, _PROBE_MATRIX)
    return time.perf_counter() - t0


def probe_burst() -> list[float]:
    return [probe() for _ in range(PROBES)]


def probed(fn):
    """Run fn between two probe bursts; its result and the factor that
    rescales the times it took to the reference speed."""
    before = probe_burst()
    result = fn()
    return result, REF_PROBE_S / statistics.median(before + probe_burst())


def timed(fn):
    t0 = time.perf_counter()
    result = fn()
    return result, time.perf_counter() - t0


def report_problems(label: str, problems: list[str]) -> None:
    for line in problems[:20]:
        print(f"{label}: {line}", file=sys.stderr)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rrsim", "__init__.py")):
        print(f"rrsim sources not found under {ROOT}/src", file=sys.stderr)
        return 2
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)
    from perfbench import tracing, workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload](ROOT, args.seed)
    state = {"attempted": 0, "failed": 0, "correct": True}

    def attempt(label: str, run):
        """One pass of `run` on cleared outputs: its result and wall time, or
        None if it raised."""
        state["attempted"] += 1
        wl.clear()
        try:
            return timed(run)
        except Exception:
            state["failed"] += 1
            print(f"{label}: pass raised\n{traceback.format_exc()}", file=sys.stderr)
            return None

    def passed(label: str, outcome) -> bool:
        """Check the outputs of an attempted pass; a wrong one counts failed."""
        if outcome is None:
            return False
        try:
            problems = wl.check(outcome[0])
        except Exception:
            problems = [f"check raised\n{traceback.format_exc()}"]
        # Passes leave reference cycles behind (the kernel holds bound
        # handlers of the objects that own it); free them so that every pass
        # starts from the same heap and peak memory does not grow with the
        # number of passes.
        gc.collect()
        if problems:
            state["failed"] += 1
            state["correct"] = False
            report_problems(label, problems)
            return False
        return True

    start = time.perf_counter()
    rounds: list[float] = []

    def another_round() -> bool:
        """Whether a round like the ones so far still ends within the run."""
        elapsed = time.perf_counter() - start
        return elapsed + statistics.mean(rounds) <= args.seconds

    metrics: dict[str, dict] = {}
    if not args.trace:
        setups, walls, raw = [], [], []

        def setups_and_pass(label):
            times = []
            for _ in range(wl.setup_reps):
                times.append(timed(wl.setup)[1])
                gc.collect()
            return times, attempt(label, wl.run_pass)

        while True:
            t0 = time.perf_counter()
            label = f"{wl.name} pass {state['attempted']}"
            (setup_times, outcome), scale = probed(lambda: setups_and_pass(label))
            setups += [t * scale for t in setup_times]
            if passed(label, outcome):
                raw.append(outcome[1])
                walls.append(outcome[1] * scale)
            rounds.append(time.perf_counter() - t0)
            if not another_round():
                break
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        print(f"{wl.name}: pass times {raw}, rescaled {walls}, rescaled set-up times {setups}",
              file=sys.stderr)
        if walls:
            metrics["wall_s"] = {"value": statistics.mean(walls), "unit": "s"}
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
        metrics["peak_rss_mb"] = {"value": peak_kib / 1024.0, "unit": "MB"}
    else:
        tracer = tracing.Tracer()

        def traced_pass():
            tracer.reset()
            tracer.enabled = True
            try:
                return wl.run_pass()
            finally:
                tracer.enabled = False

        # Untraced and traced passes alternate, so that the overhead compares
        # passes made in the same stretch of the host's speed.
        plain, traced, layers = [], [], []
        while True:
            t0 = time.perf_counter()
            label = f"{wl.name} untraced pass {state['attempted']}"
            plain_outcome = attempt(label, wl.run_pass)
            plain_ok = passed(label, plain_outcome)
            label = f"{wl.name} traced pass {state['attempted']}"
            uninstall = tracing.install(tracer)
            try:
                outcome = attempt(label, traced_pass)
            finally:
                uninstall()
            if passed(label, outcome):
                m = tracer.summary()
                problems = wl.check_trace(m)
                if problems:
                    state["failed"] += 1
                    state["correct"] = False
                    report_problems(f"{wl.name} trace", problems)
                else:
                    layers.append(m)
                    if plain_ok:
                        plain.append(plain_outcome[1])
                        traced.append(outcome[1])
            rounds.append(time.perf_counter() - t0)
            if not another_round():
                break
        tracer.write(wl.path("trace.jsonl"))
        print(f"{wl.name}: untraced {plain}, traced {traced}", file=sys.stderr)
        if layers:
            for name in layers[0]:
                values = [m[name] for m in layers]
                if isinstance(values[0], int) and len(set(values)) > 1:
                    print(f"count {name} differs between passes: {values}", file=sys.stderr)
                unit = "s" if name.endswith("_s") or ".app_s." in name else "count"
                value = values[0] if len(set(values)) == 1 else statistics.median(values)
                metrics[name] = {"value": value, "unit": unit}
        if plain:
            metrics["trace.plain_pass_s"] = {"value": statistics.mean(plain), "unit": "s"}
            metrics["trace.traced_pass_s"] = {"value": statistics.mean(traced), "unit": "s"}
            metrics["trace.overhead_ratio"] = {"value": statistics.mean(traced) / statistics.mean(plain),
                                               "unit": "ratio"}
    if state["attempted"] == state["failed"]:
        state["correct"] = False
    print(json.dumps({"correct": state["correct"], "attempted": state["attempted"],
                      "failed": state["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
