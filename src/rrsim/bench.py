"""Seeded random-geometry benchmark comparing the RIS configuration
algorithms on final received power, evaluation count and feedback overhead."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import channel as ch
from .ris_opt import (
    Evaluator,
    build_codebook,
    exhaustive_optimize,
    grouping_optimize,
    iterative_optimize,
    model_evaluator,
    select_codeword,
)
from .simcore import rng_stream

ALGORITHMS = ("iterative", "grouping", "codebook", "exhaustive")

BENCH_PARAMS = ch.ChannelParams(exponent=2.0, d0_m=0.1)
BENCH_FREQ_GHZ = 3.5
BENCH_TX_DBM = 20.0
BENCH_PITCH_M = 0.05
REFERENCE_ANGLES_DEG = (30.0, 50.0, 70.0, 90.0, 110.0, 130.0, 150.0)
REFERENCE_DISTANCE_M = 1.70
# Post-disaster positioning is coarse; codebook selection sees a noisy
# location estimate while iterative/grouping get live power feedback.
LOCATION_ERROR_SIGMA_M = 0.5

TWO_STATES = ((1.0, 0.0), (1.0, math.pi))
MAX_STATES = len(ch.HV4_STATES)  # a bench panel has TWO_STATES or the first S of these


@dataclass(frozen=True)
class BenchResult:
    algorithm: str
    seed: int
    final_power_dbm: float
    evaluations: int
    feedback_messages: int


def _arc_point(rng: np.random.Generator, r_lo: float, r_hi: float, deg_lo: float, deg_hi: float):
    r = rng.uniform(r_lo, r_hi)
    theta = math.radians(rng.uniform(deg_lo, deg_hi))
    return (r * math.cos(theta), r * math.sin(theta), 1.0)


@dataclass
class BenchGeometry:
    panel: ch.RisPanel
    tx_pos: tuple[float, float, float]
    ue_pos: tuple[float, float, float]
    ue_pos_estimate: tuple[float, float, float]
    obstacles: tuple

    def evaluator_for(self, rx_pos) -> Evaluator:
        # The blocker sits on the tx-ue midpoint, so the direct term vanishes
        # only for the actual user position; reference points keep theirs.
        return model_evaluator(
            self.panel,
            self.tx_pos,
            BENCH_TX_DBM,
            rx_pos,
            BENCH_FREQ_GHZ,
            BENCH_PARAMS,
            obstacles=self.obstacles,
        )


def bench_geometry(seed: int, n_elements: int, n_states: int) -> BenchGeometry:
    """Random tx/ue placement around a fixed line panel at the origin."""
    rng = rng_stream(seed, "bench.geometry")
    states = TWO_STATES if n_states == 2 else ch.HV4_STATES[:n_states]
    panel = ch.RisPanel.planar(
        "bench", (0.0, 0.0, 1.0), rows=1, cols=n_elements, pitch_m=BENCH_PITCH_M, states=states
    )
    tx_pos = _arc_point(rng, 2.5, 3.5, 60.0, 120.0)
    ue_pos = _arc_point(rng, 1.2, 2.2, 45.0, 135.0)
    error = rng.normal(0.0, LOCATION_ERROR_SIGMA_M, 2)
    estimate = (ue_pos[0] + error[0], ue_pos[1] + error[1], ue_pos[2])
    mid = tuple((a + b) / 2.0 for a, b in zip(tx_pos, ue_pos))
    blocker = (
        tuple(c - 0.02 for c in mid),
        tuple(c + 0.02 for c in mid),
    )
    return BenchGeometry(panel, tx_pos, ue_pos, estimate, (blocker,))


def reference_points(distance_m: float = REFERENCE_DISTANCE_M):
    return [
        (distance_m * math.cos(math.radians(a)), distance_m * math.sin(math.radians(a)), 1.0)
        for a in REFERENCE_ANGLES_DEG
    ]


def run_bench(
    n_elements: int,
    n_states: int,
    seeds: range,
    algorithms=ALGORITHMS,
    group_count: int = 4,
) -> list[BenchResult]:
    results: list[BenchResult] = []
    for seed in seeds:
        geometry = bench_geometry(seed, n_elements, n_states)
        evaluator = geometry.evaluator_for(geometry.ue_pos)
        for algorithm in algorithms:
            if algorithm == "iterative":
                config, trace = iterative_optimize(evaluator, n_elements, n_states)
                power = evaluator(config)
                results.append(
                    BenchResult("iterative", seed, power, trace.evaluations_used, trace.feedback_messages)
                )
            elif algorithm == "grouping":
                config, trace = grouping_optimize(evaluator, n_elements, n_states, group_count)
                power = evaluator(config)
                results.append(
                    BenchResult("grouping", seed, power, trace.evaluations_used, trace.feedback_messages)
                )
            elif algorithm == "codebook":
                codebook = build_codebook(
                    geometry.panel,
                    0,
                    reference_points(),
                    lambda point: geometry.evaluator_for(point),
                    n_states=n_states,
                )
                codeword = select_codeword(codebook, geometry.ue_pos_estimate)
                power = evaluator(codeword)
                results.append(BenchResult("codebook", seed, power, 0, 0))
            elif algorithm == "exhaustive":
                config, power = exhaustive_optimize(evaluator, n_elements, n_states)
                results.append(
                    BenchResult("exhaustive", seed, power, n_states**n_elements, n_states**n_elements)
                )
            else:
                raise ValueError(f"unknown algorithm {algorithm!r}")
    return results


def mean_power_dbm(results: list[BenchResult], algorithm: str) -> float:
    linear = [10 ** (r.final_power_dbm / 10.0) for r in results if r.algorithm == algorithm]
    return 10.0 * math.log10(sum(linear) / len(linear))
