"""RIS phase-configuration algorithms: element-wise iterative sweep, grouped
sweep and location-indexed codebooks, plus an exhaustive oracle."""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Sequence

import numpy as np

from .channel import (
    ChannelParams,
    LengthMismatch,
    RisPanel,
    direct_term,
    reflected_terms,
)

Evaluator = Callable[[Sequence[int]], float]

EXHAUSTIVE_GUARD = 2**20
# Pass cap of iterative_optimize(passes=None), the sweep to a fixed point.
MAX_FIXED_POINT_PASSES = 20
CODEBOOK_FORMAT_VERSION = 1


class RisOptError(Exception):
    pass


class TooLarge(RisOptError):
    pass


class EmptyCodebook(RisOptError):
    pass


class EvaluatorFailure(RisOptError):
    pass


class OptimizationTrace:
    """Every evaluator call made during a search, in order.

    A generic loop logs each call with `record`. A sweep kernel logs a whole
    pass with `record_pass`: one entry of the pass's start and end configs
    and its N·S powers, not N·S config copies. `evaluations` rebuilds the
    (index, config, power) list of both kinds on read.
    """

    def __init__(self) -> None:
        self.evaluations_used = 0
        self.feedback_messages = 0
        # (config, power) per call, (start, end, n_states, powers) per pass.
        self._log: list[tuple] = []

    def record(self, config: Sequence[int], power_dbm: float) -> None:
        self._log.append((tuple(config), power_dbm))
        self.evaluations_used += 1
        self.feedback_messages += 1

    def record_pass(self, start: tuple, end: tuple, n_states: int, powers: list[float]) -> None:
        """One element-wise pass from start to end: powers[k * n_states + s]
        is the call with elements before k at their end states, element k
        in state s and the rest at their start states."""
        self._log.append((start, end, n_states, powers))
        self.evaluations_used += len(powers)
        self.feedback_messages += len(powers)

    def _calls(self):
        for entry in self._log:
            if len(entry) == 2:
                yield entry
                continue
            start, end, n_states, powers = entry
            for k in range(len(start)):
                for s in range(n_states):
                    yield end[:k] + (s,) + start[k + 1:], powers[k * n_states + s]

    @property
    def evaluations(self) -> list[tuple[int, tuple[int, ...], float]]:
        return [(i, config, power) for i, (config, power) in enumerate(self._calls())]


def _evaluate(evaluator: Evaluator, config: Sequence[int], trace: OptimizationTrace, context: str) -> float:
    try:
        power = float(evaluator(tuple(config)))
    except Exception as exc:
        raise EvaluatorFailure(f"evaluator failed at {context}: {exc}") from exc
    trace.record(config, power)
    return power


def _sweep_element(
    evaluator: Evaluator, config: list[int], k: int, n_states: int, trace: OptimizationTrace
) -> None:
    """Try every state of element k with the others fixed, one evaluator call
    each, and keep the best (ties to the lowest state index)."""
    powers = []
    for s in range(n_states):
        config[k] = s
        powers.append(_evaluate(evaluator, config, trace, f"element {k} state {s}"))
    config[k] = int(np.argmax(powers))


def iterative_optimize(
    evaluator: Evaluator,
    n_elements: int,
    n_states: int,
    passes: int | None = 1,
    initial: Sequence[int] | None = None,
) -> tuple[list[int], OptimizationTrace]:
    """Element-by-element sweep: try every state per element with the others
    fixed and keep the best (ties to the lowest state index).

    Uses exactly passes * n_elements * n_states evaluations. passes=None
    repeats full passes until one changes nothing, at most
    MAX_FIXED_POINT_PASSES. An evaluator with a `sweep` method (a
    `ModelEvaluator`) runs each pass itself, with the same trace and result.
    """
    return _iterate(evaluator, n_elements, n_states, passes, initial)


def iterative_fixed_point(
    evaluator: Evaluator, n_elements: int, n_states: int
) -> tuple[list[int], OptimizationTrace]:
    """`iterative_optimize` with passes=None."""
    return _iterate(evaluator, n_elements, n_states, None, None)


def _check_sizes(n_elements: int, n_states: int, passes: int | None) -> None:
    if n_elements < 1 or n_states < 2 or (passes is not None and passes < 1):
        raise ValueError("need n_elements >= 1, n_states >= 2, passes >= 1")


def _iterate(evaluator, n_elements, n_states, passes, initial):
    # The body of both public sweeps. Neither calls the other, so a tracer
    # that wraps public names sees one sweep per call.
    _check_sizes(n_elements, n_states, passes)
    if initial is not None and len(initial) != n_elements:
        raise ValueError(f"initial has {len(initial)} elements, n_elements is {n_elements}")
    config = list(initial) if initial is not None else [0] * n_elements
    trace = OptimizationTrace()
    sweep = getattr(evaluator, "sweep", None)
    for _ in range(MAX_FIXED_POINT_PASSES if passes is None else passes):
        previous = list(config)
        if sweep is None:
            for k in range(n_elements):
                _sweep_element(evaluator, config, k, n_states, trace)
        else:
            sweep(config, n_states, trace)
        if passes is None and config == previous:
            break
    return config, trace


def contiguous_groups(n_elements: int, group_count: int) -> list[np.ndarray]:
    """Split element indices into contiguous groups with sizes differing by <= 1."""
    if not 1 <= group_count <= n_elements:
        raise ValueError("group_count must be in [1, n_elements]")
    return [np.asarray(g) for g in np.array_split(np.arange(n_elements), group_count)]


def grouping_optimize(
    evaluator: Evaluator,
    n_elements: int,
    n_states: int,
    group_count: int,
) -> tuple[list[int], OptimizationTrace]:
    """Grouped sweep: all elements of a group share one state; each group is
    swept over the state set once. Uses group_count * n_states calls."""
    groups = contiguous_groups(n_elements, group_count)
    config = [0] * n_elements
    trace = OptimizationTrace()
    for g_idx, members in enumerate(groups):
        powers = []
        for s in range(n_states):
            for k in members:
                config[k] = s
            powers.append(_evaluate(evaluator, config, trace, f"group {g_idx} state {s}"))
        best = int(np.argmax(powers))
        for k in members:
            config[k] = best
    return config, trace


def exhaustive_optimize(
    evaluator: Evaluator,
    n_elements: int,
    n_states: int,
) -> tuple[list[int], float]:
    """True argmax over every configuration; ties go to the lexicographically
    smallest config. Guarded against search spaces over 2**20."""
    if n_states**n_elements > EXHAUSTIVE_GUARD:
        raise TooLarge(f"{n_states}^{n_elements} configurations exceed the guard")
    best_config: tuple[int, ...] | None = None
    best_power = -math.inf
    for config in itertools.product(range(n_states), repeat=n_elements):
        power = float(evaluator(config))
        if power > best_power:
            best_power = power
            best_config = config
    assert best_config is not None
    return list(best_config), best_power


@dataclass
class Codebook:
    """Stored per-location configurations for one panel part."""

    part_id: int
    reference_points: list[tuple[float, float, float]]
    codewords: list[list[int]]
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        points = [tuple(p) for p in self.reference_points]
        if len(points) != len(set(points)):
            raise ValueError("reference points must be distinct")
        sizes = {len(cw) for cw in self.codewords}
        if len(sizes) > 1:
            raise ValueError("all codewords must have the same length")

    @cached_property
    def _point_array(self) -> np.ndarray:
        """The reference points as one array, built on the first
        `select_codeword`; a codebook's points do not change."""
        return np.asarray(self.reference_points, float)

    def to_json(self) -> str:
        return json.dumps(
            {
                "version": CODEBOOK_FORMAT_VERSION,
                "part_id": self.part_id,
                "reference_points": [list(p) for p in self.reference_points],
                "codewords": self.codewords,
                "metadata": self.metadata,
            },
            indent=2,
            sort_keys=True,
        )


def evaluator_hash(panel: RisPanel, tx_pos, freq_ghz: float, params: ChannelParams) -> str:
    """Fingerprint of the model an offline codebook was built against."""
    h = hashlib.sha256()
    h.update(np.asarray(panel.element_positions, float).tobytes())
    h.update(repr(panel.states).encode())
    h.update(np.asarray(tx_pos, float).tobytes())
    h.update(f"{freq_ghz}:{params.exponent}:{params.d0_m}".encode())
    return h.hexdigest()[:16]


class ModelEvaluator:
    """Received power (dBm) at rx_pos through the panel, as a function of a
    configuration. Built by `model_evaluator`.

    tx, rx, the panel geometry and the obstacles are fixed at construction.
    The (N, S) table of reflected terms and the direct term are built from
    them on the first evaluation (an evaluator made but never called costs
    nothing); an evaluation is then a gather and a sum, bit-identical to
    `cascaded_gain`. Configurations are never cached.
    """

    def __init__(
        self,
        panel: RisPanel,
        tx_pos,
        tx_power_dbm: float,
        rx_pos,
        freq_ghz: float,
        params: ChannelParams,
        obstacles=(),
        part_elements: np.ndarray | None = None,
        base_config: Sequence[int] | None = None,
    ) -> None:
        self.panel = panel
        self.tx = np.array(tx_pos, float)
        self.rx = np.array(rx_pos, float)
        self.tx_power_dbm = tx_power_dbm
        self.freq_ghz = freq_ghz
        self.params = params
        self.obstacles = tuple(obstacles)
        self.part_elements = part_elements
        self.base = (
            np.zeros(panel.n_elements, dtype=int)
            if base_config is None
            else np.asarray(base_config, int).copy()
        )
        self._link: tuple[np.ndarray, complex] | None = None

    def _table(self) -> tuple[np.ndarray, complex]:
        if self._link is None:
            table = reflected_terms(self.tx, self.panel, self.rx, self.freq_ghz, self.params)
            direct = direct_term(self.tx, self.rx, self.freq_ghz, self.params, self.obstacles)
            self._link = (table, direct)
        return self._link

    def _full(self, config: Sequence[int]) -> np.ndarray:
        given = np.asarray(config, dtype=int)
        if self.part_elements is None:
            if given.shape != (self.panel.n_elements,):
                raise LengthMismatch(
                    f"config length {given.size} != element count {self.panel.n_elements}"
                )
            return given
        if given.shape != (len(self.part_elements),):
            raise LengthMismatch(
                f"config length {given.size} != part element count {len(self.part_elements)}"
            )
        full = self.base.copy()
        full[self.part_elements] = given
        return full

    def __call__(self, config: Sequence[int]) -> float:
        full = self._full(config)
        table, direct = self._table()
        total = np.sum(table[np.arange(full.size), full])
        total += direct
        # received_power_dbm(tx, ComplexGain.from_complex(total)) without the
        # object. Python's abs and math.log10, not numpy's: np.abs of a
        # complex128 and np.log10 can differ from them in the last bit.
        a = abs(complex(total))
        return -math.inf if a <= 0.0 else self.tx_power_dbm + 20.0 * math.log10(a)

    def sweep(self, config: list[int], n_states: int, trace: OptimizationTrace) -> None:
        """One pass of `iterative_optimize` over config, in place: the stack
        kernel with this evaluator alone."""
        _sweep_stack((self,), (config,), n_states, (trace,))


def _sweep_stack(
    evaluators: Sequence[ModelEvaluator],
    configs: Sequence[list[int]],
    n_states: int,
    traces: Sequence[OptimizationTrace],
) -> None:
    """One pass of `iterative_optimize` over each config, in place, for P
    evaluators that sweep the same columns of equal-sized tables: the same
    results as n_states calls per element and evaluator, logged as one
    `record_pass` per trace.

    Rows i*n_states to (i+1)*n_states - 1 of the (P*n_states, N) row buffer
    are evaluator i with the current element in each state. Per element, one
    write puts every evaluator's table terms of the element into its column,
    one reduction sums every row, and each evaluator's rows then get the term
    of its chosen state. Each row sums the same values in the same order as a
    call, and the direct term is added as a Python complex (numpy's add per
    component), so every power is bit-identical to a call's.
    """
    try:
        rows = np.empty((len(evaluators) * n_states, evaluators[0].panel.n_elements), complex)
        tables, directs = [], []
        for i, (evaluator, config) in enumerate(zip(evaluators, configs)):
            full = evaluator._full(config)
            table, direct = evaluator._table()
            if n_states > table.shape[1]:
                raise IndexError(f"state {table.shape[1]} out of range")
            rows[i * n_states:(i + 1) * n_states] = table[np.arange(full.size), full]
            tables.append(table)
            directs.append(complex(direct))
    except Exception as exc:
        raise EvaluatorFailure(f"evaluator failed at element 0: {exc}") from exc
    part = evaluators[0].part_elements
    columns = range(len(configs[0])) if part is None else part.tolist()
    # Row k holds element k's terms of every evaluator, in the buffer's order.
    terms = np.concatenate([table[columns, :n_states] for table in tables], axis=1)
    lanes = [
        (slice(i * n_states, (i + 1) * n_states), i * n_states, direct, evaluator.tx_power_dbm, config, [])
        for i, (evaluator, config, direct) in enumerate(zip(evaluators, configs, directs))
    ]
    starts = [tuple(config) for config in configs]
    log10, add, inf = math.log10, np.add.reduce, math.inf
    for k, j in enumerate(columns):
        column = terms[k]
        rows[:, j] = column
        sums = add(rows, axis=1).tolist()
        for lane, offset, direct, tx_power, config, powers in lanes:
            candidates = []
            for total in sums[lane]:
                a = abs(total + direct)
                candidates.append(-inf if a <= 0.0 else tx_power + 20.0 * log10(a))
            best = candidates.index(max(candidates))
            config[k] = best
            rows[lane, j] = column[offset + best]
            powers += candidates
    for start, (*_, config, powers), trace in zip(starts, lanes, traces):
        trace.record_pass(start, tuple(config), n_states, powers)


def model_evaluator(
    panel: RisPanel,
    tx_pos,
    tx_power_dbm: float,
    rx_pos,
    freq_ghz: float,
    params: ChannelParams,
    obstacles=(),
    part_elements: np.ndarray | None = None,
    base_config: Sequence[int] | None = None,
) -> ModelEvaluator:
    """The evaluator of every model-driven RIS search.

    When part_elements is given, the evaluator takes a part-sized config and
    splices it over base_config (copied here); otherwise it takes a
    full-panel config.
    """
    return ModelEvaluator(
        panel, tx_pos, tx_power_dbm, rx_pos, freq_ghz, params, obstacles, part_elements, base_config
    )


def iterative_optimize_all(
    evaluators: Sequence[Evaluator], n_elements: int, n_states: int
) -> list[tuple[list[int], OptimizationTrace]]:
    """One `iterative_optimize` pass per evaluator, from all-zero configs:
    the configs and traces of one call per evaluator, in order.

    `ModelEvaluator`s that sweep the same columns of equal-sized tables run
    in lockstep through one stack kernel; any other evaluator takes the
    generic loop on its own.
    """
    _check_sizes(n_elements, n_states, 1)
    results: list = [None] * len(evaluators)
    stacks: dict[tuple, list[int]] = {}
    for i, e in enumerate(evaluators):
        if isinstance(e, ModelEvaluator):
            part = None if e.part_elements is None else tuple(e.part_elements.tolist())
            stacks.setdefault((e.panel.n_elements, part), []).append(i)
        else:
            results[i] = _iterate(e, n_elements, n_states, 1, None)
    for members in stacks.values():
        configs = [[0] * n_elements for _ in members]
        traces = [OptimizationTrace() for _ in members]
        _sweep_stack([evaluators[i] for i in members], configs, n_states, traces)
        for i, config, trace in zip(members, configs, traces):
            results[i] = (config, trace)
    return results


def build_codebook(
    panel: RisPanel,
    part_id: int,
    reference_points: Sequence[Sequence[float]],
    evaluator_at: Callable[[Sequence[float]], Evaluator],
    n_states: int | None = None,
) -> Codebook:
    """Run one iterative sweep pass per reference point, all in lockstep, and
    store the results."""
    if not len(reference_points):
        raise ValueError("reference point grid must be non-empty")
    members = panel.part_elements(part_id)
    if members.size == 0:
        raise ValueError(f"panel has no elements in part {part_id}")
    n_states = n_states if n_states is not None else panel.n_states
    evaluators = [evaluator_at(point) for point in reference_points]
    codewords = [config for config, _ in iterative_optimize_all(evaluators, members.size, n_states)]
    return Codebook(
        part_id=part_id,
        reference_points=[tuple(float(c) for c in p) for p in reference_points],
        codewords=codewords,
    )


def select_codeword(codebook: Codebook, location) -> list[int]:
    """Codeword of the Euclidean-nearest reference point; no evaluator calls.

    Distance ties resolve to the lowest entry index.
    """
    if not codebook.reference_points:
        raise EmptyCodebook("codebook has no entries")
    points = codebook._point_array
    distances = np.sum((points - np.asarray(location, float)) ** 2, axis=1).tolist()
    best_idx = 0
    best_d2 = math.inf
    for idx, d2 in enumerate(distances):
        # Not argmin: a distance within 1e-15 of the best so far is a tie.
        if d2 < best_d2 - 1e-15:
            best_d2 = d2
            best_idx = idx
    return list(codebook.codewords[best_idx])
