"""Command-line entry point: run scenarios, benchmark RIS algorithms, plan
deployments and build codebooks, emitting CSV/JSON artifacts atomically."""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import os
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import replace
from importlib import resources
from typing import Iterable

from . import bench as bench_mod
from . import ntn_planner as planner_mod
from .ric import builtin_apps
from .ris_opt import EXHAUSTIVE_GUARD, evaluator_hash
from .runner import Simulation, summarize_run
from .scenario import ParseError, ValidationError, load_scenario
from .simcore import NOT_RECOVERED, recovery_time, write_metrics_csv

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_NOT_RECOVERED = 3
EXIT_UNREACHABLE = 4
# The buffer of every artifact file: a 4 h run's metrics.csv (about 20 MB)
# goes out in about 80 writes instead of one per 8 KB. A larger buffer saves
# little more time and costs peak memory.
WRITE_BUFFER_BYTES = 256 * 1024

log = logging.getLogger("rrs")


def _configure_logging() -> None:
    level = os.environ.get("RRS_LOG_LEVEL", "warn").lower()
    mapping = {"error": logging.ERROR, "warn": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}
    logging.basicConfig(level=mapping.get(level, logging.WARNING), format="%(levelname)s %(name)s: %(message)s")


class CannotWrite(Exception):
    """An output that cannot be written; `main` prints it and exits 2."""


@contextmanager
def _writing(path: str):
    """Turn an OSError from writing path into a CannotWrite that names it."""
    try:
        yield
    except OSError as exc:
        raise CannotWrite(f"cannot write {path}: {exc.strerror or exc}") from exc


def _atomic_write(path: str, write_fn) -> None:
    """Write to a temp file in the target directory and rename into place.

    The file gets the mode open() would give it under the current umask, not
    mkstemp's 0600.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    with _writing(path):
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".rrs_tmp_")
        try:
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fd, 0o666 & ~umask)
            with os.fdopen(fd, "w", buffering=WRITE_BUFFER_BYTES, newline="") as fh:
                write_fn(fh)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise


def bundled_scenario_path(name: str) -> str:
    return str(resources.files("rrsim").joinpath("scenarios", name))


def _invalid(message: str) -> int:
    """Print why an argument is invalid, and give the exit code for it."""
    print(message, file=sys.stderr)
    return EXIT_VALIDATION


def _simulation(path: str, disabled_apps: set[str], seed: int | None = None) -> Simulation | None:
    """The simulation of the scenario file at path, or None after printing
    why the scenario or the disabled app names are invalid."""
    try:
        return Simulation(load_scenario(path), seed=seed, disabled_apps=disabled_apps)
    except (ParseError, ValidationError) as exc:
        print(f"scenario error: {exc}", file=sys.stderr)
        return None


def cmd_run(args: argparse.Namespace) -> int:
    if not 0.0 < args.target_fraction <= 1.0:
        return _invalid(f"--target-fraction must be in (0, 1], got {args.target_fraction}")
    if args.until < 0:
        return _invalid(f"--until must be >= 0, got {args.until}")
    if args.seed is not None and args.seed < 0:
        return _invalid(f"--seed must be >= 0, got {args.seed}")
    sim = _simulation(args.scenario, set(args.disable_app or ()), args.seed)
    if sim is None:
        return EXIT_VALIDATION
    with _writing(args.out):
        os.makedirs(args.out, exist_ok=True)
    start = time.perf_counter()
    baseline = sim.baseline_coverage()
    metrics = sim.run(args.until)
    simulated = time.perf_counter()

    recovery = None
    if metrics.strike_time() is not None:
        if baseline > 0.0:
            recovery = recovery_time(metrics, baseline, args.target_fraction)
        else:
            log.warning("intact coverage is 0, so the recovery time is undefined")

    _atomic_write(os.path.join(args.out, "metrics.csv"), lambda fh: write_metrics_csv(fh, metrics.samples))
    _atomic_write(
        os.path.join(args.out, "actions.log"),
        lambda fh: fh.writelines(f"{t}\t{desc}\n" for t, desc in metrics.actions),
    )

    summary = summarize_run(sim, metrics, recovery if recovery is not None else NOT_RECOVERED)
    summary["scenario"] = args.scenario
    summary["baseline_coverage"] = baseline
    if recovery is None:
        del summary["recovery_time_ms"]
    _atomic_write(
        os.path.join(args.out, "summary.json"),
        lambda fh: (json.dump(summary, fh, indent=2, sort_keys=True), fh.write("\n")),
    )
    print(json.dumps({k: v for k, v in summary.items() if k != "actions"}, sort_keys=True))
    log.info(
        "%d samples, %d rate tables, %d actions; simulated in %.3f s, wrote artifacts in %.3f s",
        len(metrics.samples),
        len({id(s.throughput_mbps) for s in metrics.samples}),
        len(metrics.actions),
        simulated - start,
        time.perf_counter() - simulated,
    )

    if args.require_recovery and (recovery is NOT_RECOVERED or recovery is None):
        return EXIT_NOT_RECOVERED
    return EXIT_OK


def cmd_ris_bench(args: argparse.Namespace) -> int:
    try:
        n_elements, n_states = (int(v) for v in args.panel.split(","))
    except ValueError:
        return _invalid("--panel must be N,S (e.g. 76,4)")
    if n_elements < 1 or n_states < 2:
        return _invalid(f"--panel must have N >= 1 elements and S >= 2 states, got {args.panel}")
    if n_states > bench_mod.MAX_STATES:
        return _invalid(f"--panel must have S <= {bench_mod.MAX_STATES} states, got {args.panel}")
    if args.seeds < 1:
        return _invalid(f"--seeds must be >= 1, got {args.seeds}")
    algorithms = tuple(args.algorithms.split(","))
    unknown = [a for a in algorithms if a not in bench_mod.ALGORITHMS]
    if unknown:
        return _invalid(f"unknown algorithm(s): {', '.join(unknown)} "
                        f"(choose from {', '.join(bench_mod.ALGORITHMS)})")
    # Compared in log2, so that a long panel does not make S**N a huge integer.
    if "exhaustive" in algorithms and n_elements * math.log2(n_states) > math.log2(EXHAUSTIVE_GUARD):
        return _invalid(f"--algorithms exhaustive needs S^N <= {EXHAUSTIVE_GUARD} configurations, "
                        f"got {n_states}^{n_elements}")
    if "grouping" in algorithms and not 1 <= args.group_count <= n_elements:
        return _invalid(f"--group-count must be in [1, {n_elements}], the panel's elements, got {args.group_count}")

    results = bench_mod.run_bench(
        n_elements, n_states, range(args.seeds), algorithms, group_count=args.group_count
    )

    def write(fh) -> None:
        writer = csv.writer(fh)
        writer.writerow(["algorithm", "seed", "final_power_dbm", "evaluations", "feedback_messages"])
        for r in results:
            writer.writerow([r.algorithm, r.seed, f"{r.final_power_dbm:.6f}", r.evaluations, r.feedback_messages])
        for algorithm in algorithms:
            rows = [r for r in results if r.algorithm == algorithm]
            mean_power = bench_mod.mean_power_dbm(results, algorithm)
            mean_evals = sum(r.evaluations for r in rows) / len(rows)
            mean_fb = sum(r.feedback_messages for r in rows) / len(rows)
            writer.writerow([f"mean:{algorithm}", "", f"{mean_power:.6f}", f"{mean_evals:.1f}", f"{mean_fb:.1f}"])

    _atomic_write(args.out, write)
    print(f"wrote {args.out} ({len(results)} rows)")
    return EXIT_OK


def cmd_plan(args: argparse.Namespace) -> int:
    if args.max_nodes is not None and args.max_nodes < 0:
        return _invalid(f"--max-nodes must be >= 0, got {args.max_nodes}")
    # Fast-forward through the disaster schedule with the controller disabled
    # so the plan reflects the post-strike topology.
    sim = _simulation(args.scenario, {app.name for app in builtin_apps()})
    if sim is None:
        return EXIT_VALIDATION
    horizon = max((d.strike_time_ms for d in sim.scenario.disasters), default=0)
    sim.run(horizon)

    try:
        plan = planner_mod.build_plan(sim.world, args.max_nodes)
    except planner_mod.UnreachablePlacement as exc:
        print(f"planning failed: {exc}", file=sys.stderr)
        return EXIT_UNREACHABLE

    print(f"{'node':<10} {'kind':<8} {'position':<28} {'tx dBm':<8}")
    for p in plan.placements:
        pos = ", ".join(f"{c:.0f}" for c in p.position)
        print(f"{p.node_id:<10} {p.kind.value:<8} ({pos})           {p.tx_power_dbm:<8.1f}")
    for e in plan.backhaul:
        extra = f" via RIS at {e.relay_position}" if e.via == "ris_relay" else ""
        print(f"backhaul: {e.child} -> {e.parent} [{e.via}]{extra} snr={e.snr_db:.1f} dB")
    print(f"estimated coverage: {plan.estimated_coverage_ratio:.3f}")

    _atomic_write(args.out, lambda fh: (fh.write(plan.to_json()), fh.write("\n")))
    return EXIT_OK


def cmd_codebook_build(args: argparse.Namespace) -> int:
    sim = _simulation(args.scenario, {app.name for app in builtin_apps()})
    if sim is None:
        return EXIT_VALIDATION
    if args.panel not in sim.scenario.ric.ris:
        return _invalid(f"panel {args.panel!r} has no ris{{}} entry in the scenario")
    # The controller built the codebook of every part with reference points,
    # with the same evaluator, when the simulation was set up.
    built = sim.controller.codebooks.get((args.panel, args.part))
    if built is None:
        return _invalid(f"part {args.part} has no reference points configured")
    panel = sim.world.panels[args.panel]
    tx = sim.world.nodes[sim.scenario.ric.ris[args.panel].tx]
    codebook = replace(
        built,
        metadata={
            "grid": {"points": len(built.reference_points)},
            "evaluator_hash": evaluator_hash(panel, tx.position, tx.freq_ghz, sim.scenario.channel),
        },
    )
    _atomic_write(args.out, lambda fh: (fh.write(codebook.to_json()), fh.write("\n")))
    print(f"wrote {args.out} ({len(codebook.codewords)} codewords)")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rrs", description="RAN recovery simulator")
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a scenario and emit metrics")
    run_p.add_argument("--scenario", required=True)
    run_p.add_argument("--seed", type=int, default=None)
    run_p.add_argument("--until", type=int, required=True, help="simulated end time (ms)")
    run_p.add_argument("--out", default="out")
    run_p.add_argument("--target-fraction", type=float, default=0.95)
    run_p.add_argument("--require-recovery", action="store_true")
    run_p.add_argument("--disable-app", action="append", metavar="NAME")
    run_p.set_defaults(func=cmd_run)

    ris_p = sub.add_parser("ris", help="RIS tooling")
    ris_sub = ris_p.add_subparsers(dest="ris_command", required=True)
    bench_p = ris_sub.add_parser("bench", help="benchmark configuration algorithms")
    bench_p.add_argument("--panel", required=True, metavar="N,S")
    bench_p.add_argument("--seeds", type=int, default=100)
    bench_p.add_argument("--algorithms", default="iterative,grouping,codebook")
    bench_p.add_argument("--group-count", type=int, default=4)
    bench_p.add_argument("--out", default="ris_bench.csv")
    bench_p.set_defaults(func=cmd_ris_bench)

    plan_p = sub.add_parser("plan", help="plan NTN placements and backhaul")
    plan_p.add_argument("--scenario", required=True)
    plan_p.add_argument("--max-nodes", type=int, default=None)
    plan_p.add_argument("--out", default="plan.json")
    plan_p.set_defaults(func=cmd_plan)

    cb_p = sub.add_parser("codebook", help="codebook tooling")
    cb_sub = cb_p.add_subparsers(dest="codebook_command", required=True)
    build_p = cb_sub.add_parser("build", help="build a codebook from scenario config")
    build_p.add_argument("--scenario", required=True)
    build_p.add_argument("--panel", required=True)
    build_p.add_argument("--part", type=int, default=0)
    build_p.add_argument("--out", default="codebook.json")
    build_p.set_defaults(func=cmd_codebook_build)

    return parser


def main(argv: Iterable[str] | None = None) -> int:
    _configure_logging()
    args = build_parser().parse_args(list(argv) if argv is not None else None)
    try:
        return args.func(args)
    except CannotWrite as exc:
        return _invalid(str(exc))


if __name__ == "__main__":
    sys.exit(main())
