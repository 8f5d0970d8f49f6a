"""Phase-configuration search algorithms and codebooks."""

import dataclasses
import math

import numpy as np
import pytest

from rrsim import bench
from rrsim import channel as ch
from rrsim.ris_opt import (
    Codebook,
    EmptyCodebook,
    EvaluatorFailure,
    ModelEvaluator,
    TooLarge,
    build_codebook,
    contiguous_groups,
    exhaustive_optimize,
    grouping_optimize,
    iterative_fixed_point,
    iterative_optimize,
    iterative_optimize_all,
    model_evaluator,
    select_codeword,
)
from rrsim.world import World

TWO_STATES = ((1.0, 0.0), (1.0, math.pi))


def quadratic_evaluator(target):
    """Synthetic objective: negative distance to a target configuration."""

    def evaluate(config):
        return -float(sum((a - b) ** 2 for a, b in zip(config, target)))

    return evaluate


class TestIterative:
    def test_finds_separable_target(self):
        target = [1, 0, 3, 2, 1]
        config, trace = iterative_optimize(quadratic_evaluator(target), 5, 4)
        assert config == target
        assert trace.evaluations_used == 5 * 4

    def test_evaluation_count_formula(self):
        for n, s, p in ((1, 2, 1), (7, 3, 2), (76, 4, 1)):
            _, trace = iterative_optimize(lambda c: 0.0, n, s, passes=p)
            assert trace.evaluations_used == p * n * s

    def test_tie_goes_to_lowest_state(self):
        config, _ = iterative_optimize(lambda c: 0.0, 4, 4)
        assert config == [0, 0, 0, 0]

    def test_initial_configuration_respected(self):
        target = [1, 1, 1]
        config, _ = iterative_optimize(quadratic_evaluator(target), 3, 2, initial=[1, 1, 1])
        assert config == target

    def test_argument_validation(self):
        with pytest.raises(ValueError):
            iterative_optimize(lambda c: 0.0, 0, 2)
        with pytest.raises(ValueError):
            iterative_optimize(lambda c: 0.0, 4, 1)

    def test_evaluator_failure_context(self):
        def broken(config):
            raise RuntimeError("sensor offline")

        with pytest.raises(EvaluatorFailure, match="element 0 state 0"):
            iterative_optimize(broken, 3, 2)


class TestFixedPoint:
    def test_stops_when_stable(self):
        target = [1, 0, 1, 0]
        config, trace = iterative_fixed_point(quadratic_evaluator(target), 4, 2)
        assert config == target
        # converged second pass confirms the first: exactly 2 sweeps here
        assert trace.evaluations_used == 2 * 4 * 2

    def test_never_below_single_pass(self):
        rng = np.random.default_rng(11)
        values = {}

        def noisy(config):
            return values.setdefault(tuple(config), float(rng.normal()))

        single, _ = iterative_optimize(noisy, 5, 2)
        multi, _ = iterative_fixed_point(noisy, 5, 2)
        assert values[tuple(multi)] >= values[tuple(single)]


class TestGrouping:
    def test_groups_share_state(self):
        def favor_ones(config):
            return float(sum(config))

        config, trace = grouping_optimize(favor_ones, 10, 2, 3)
        assert config == [1] * 10
        assert trace.evaluations_used == 3 * 2

    def test_contiguous_groups_balanced(self):
        groups = contiguous_groups(10, 3)
        assert [len(g) for g in groups] == [4, 3, 3]
        assert list(np.concatenate(groups)) == list(range(10))

    def test_group_count_bounds(self):
        with pytest.raises(ValueError):
            contiguous_groups(4, 5)
        with pytest.raises(ValueError):
            contiguous_groups(4, 0)


class TestExhaustive:
    def test_true_optimum(self):
        target = [1, 0, 1]
        config, power = exhaustive_optimize(quadratic_evaluator(target), 3, 2)
        assert config == target
        assert power == 0.0

    def test_tie_breaks_lexicographically(self):
        config, _ = exhaustive_optimize(lambda c: 0.0, 3, 2)
        assert config == [0, 0, 0]

    def test_guard_against_huge_spaces(self):
        with pytest.raises(TooLarge):
            exhaustive_optimize(lambda c: 0.0, 21, 2)
        # 2^20 exactly is still allowed by the guard
        assert 2**20 == 1_048_576

    def test_dominates_iterative_on_model(self):
        params = ch.ChannelParams(exponent=2.0, d0_m=0.1)
        panel = ch.RisPanel.planar("p", (0, 0, 1), 1, 6, 0.05, states=TWO_STATES)
        evaluator = model_evaluator(panel, (-1.5, 2.0, 1.0), 20.0, (1.5, 1.8, 1.0), 3.5, params)
        _, p_ex = exhaustive_optimize(evaluator, 6, 2)
        config, _ = iterative_optimize(evaluator, 6, 2)
        assert p_ex >= evaluator(config) - 1e-12


class TestCodebook:
    def ring(self, radius, n=5):
        return [
            (radius * math.cos(a), radius * math.sin(a), 1.0)
            for a in np.linspace(0.6, math.pi - 0.6, n)
        ]

    def build(self):
        params = ch.ChannelParams(exponent=2.0, d0_m=0.1)
        panel = ch.RisPanel.planar("p", (0, 0, 1), 2, 4, 0.05)

        def evaluator_at(point):
            return model_evaluator(panel, (-2.0, 1.0, 1.0), 20.0, point, 3.5, params)

        return dataclasses.replace(build_codebook(panel, 0, self.ring(1.7), evaluator_at), metadata={"grid": "ring"})

    def test_one_codeword_per_reference_point(self):
        cb = self.build()
        assert len(cb.codewords) == 5
        assert all(len(cw) == 8 for cw in cb.codewords)

    def test_select_nearest(self):
        cb = self.build()
        for idx, point in enumerate(cb.reference_points):
            nudged = (point[0] + 0.01, point[1] - 0.01, point[2])
            assert select_codeword(cb, nudged) == cb.codewords[idx]

    def test_selection_tie_goes_to_lowest_index(self):
        cb = Codebook(0, [(0.0, 1.0, 0.0), (0.0, -1.0, 0.0)], [[0, 1], [1, 0]])
        assert select_codeword(cb, (0.0, 0.0, 0.0)) == [0, 1]

    def test_json_round_trip(self):
        cb = self.build()
        again = Codebook.from_json(cb.to_json())
        assert again.codewords == cb.codewords
        assert again.reference_points == cb.reference_points
        assert again.metadata == cb.metadata

    def test_version_check(self):
        text = self.build().to_json().replace('"version": 1', '"version": 99')
        with pytest.raises(ValueError):
            Codebook.from_json(text)

    def test_reference_points_distinct(self):
        with pytest.raises(ValueError):
            Codebook(0, [(0, 0, 0), (0, 0, 0)], [[0], [1]])

    def test_codeword_lengths_consistent(self):
        with pytest.raises(ValueError):
            Codebook(0, [(0, 0, 0), (1, 0, 0)], [[0, 1], [0]])

    def test_empty_codebook_selection(self):
        with pytest.raises(EmptyCodebook):
            select_codeword(Codebook(0, [], []), (0, 0, 0))

    def test_empty_grid_rejected(self):
        panel = ch.RisPanel.planar("p", (0, 0, 1), 1, 2, 0.05)
        with pytest.raises(ValueError):
            build_codebook(panel, 0, [], lambda p: (lambda c: 0.0))


class TestModelEvaluator:
    PARAMS = ch.ChannelParams(exponent=2.0, d0_m=0.1)
    TX, RX = (-1.5, 2.0, 1.0), (1.5, 1.8, 1.0)

    def make(self, rx=RX, **kwargs):
        panel = ch.RisPanel.planar("p", (0, 0, 1), rows=1, cols=4, pitch_m=0.05)
        return panel, model_evaluator(panel, self.TX, 20.0, rx, 3.5, self.PARAMS, **kwargs)

    def test_full_panel_config_length_checked(self):
        _, evaluator = self.make()
        with pytest.raises(ch.LengthMismatch):
            evaluator([0, 0])
        with pytest.raises(EvaluatorFailure) as info:
            iterative_optimize(evaluator, 2, 4)
        assert isinstance(info.value.__cause__, ch.LengthMismatch)

    def test_part_config_length_checked(self):
        _, part = self.make(part_elements=np.array([1, 3]))
        for config in ([2], [0, 1, 2]):
            with pytest.raises(ch.LengthMismatch, match=f"config length {len(config)} != part element count 2"):
                part(config)
            with pytest.raises(EvaluatorFailure) as info:
                iterative_optimize(part, len(config), 4, initial=config)
            assert isinstance(info.value.__cause__, ch.LengthMismatch)

    def test_rx_on_element_fails_in_the_sweep_not_at_construction(self):
        panel = ch.RisPanel.planar("p", (0, 0, 1), rows=1, cols=4, pitch_m=0.05)
        _, evaluator = self.make(rx=tuple(panel.element_positions[2]))
        with pytest.raises(EvaluatorFailure, match="element 0") as info:
            iterative_optimize(evaluator, 4, 4)
        assert isinstance(info.value.__cause__, ch.ZeroDistance)

    def test_out_of_range_state_raises(self):
        _, evaluator = self.make()
        with pytest.raises(IndexError):
            evaluator([0, 0, 4, 0])
        with pytest.raises(EvaluatorFailure):
            iterative_optimize(evaluator, 4, 5)

    def test_table_built_once_on_first_evaluation(self, monkeypatch):
        import rrsim.ris_opt as ris_opt

        calls = []
        real = ris_opt.reflected_terms
        monkeypatch.setattr(ris_opt, "reflected_terms", lambda *a: calls.append(1) or real(*a))
        _, evaluator = self.make()
        assert isinstance(evaluator, ModelEvaluator) and calls == []
        iterative_optimize(evaluator, 4, 4)
        evaluator([1, 2, 3, 0])
        assert calls == [1]

    def test_part_splice_uses_base_at_construction(self):
        panel, full = self.make()
        base = [3, 1, 2, 0]
        _, part = self.make(part_elements=np.array([1, 3]), base_config=base)
        base[0] = 0  # later edits of the caller's list are not seen
        assert part([2, 2]) == full([3, 2, 2, 2])
        _, trace = iterative_optimize(part, 2, 4, initial=[2, 2], passes=1)
        assert [power for _, _, power in trace.evaluations] == [
            full([3, c[0], 2, c[1]]) for _, c, _ in trace.evaluations
        ]


class TestSweepKernel:
    """A `ModelEvaluator` runs each pass with its `sweep` kernel; a plain
    function wrapping it takes the generic loop. Both must agree entry for
    entry, including the trace that the kernel logs once per pass."""

    def bench_case(self, scenario):
        # The blocker hides the direct path at the UE: the direct term is 0.0.
        geometry = bench.bench_geometry(0, 76, 4)
        return geometry.evaluator_for(geometry.ue_pos), 76, 4, None

    def two_ue_case(self, scenario):
        world = World(scenario)
        panel = world.panels["ris1"]
        tx, rx = world.nodes["tx1"], world.nodes["rx1"]
        members = panel.part_elements(1)
        base = [k % panel.n_states for k in range(panel.n_elements)]
        # Without the room's wall, so that the direct term is a complex128.
        evaluator = model_evaluator(
            panel, tx.position, tx.tx_power_dbm, rx.position, tx.freq_ghz, scenario.channel,
            part_elements=members, base_config=base,
        )
        initial = [(3 * k + 1) % panel.n_states for k in range(members.size)]
        return evaluator, members.size, panel.n_states, initial

    @pytest.mark.parametrize("passes", [1, 2, None])
    @pytest.mark.parametrize("case", ["bench_case", "two_ue_case"])
    def test_sweep_equals_generic_loop(self, two_ue_scenario, case, passes):
        evaluator, size, n_states, initial = getattr(self, case)(two_ue_scenario)
        kernel_passes = []
        kernel = evaluator.sweep
        evaluator.sweep = lambda *args: kernel_passes.append(1) or kernel(*args)
        fast = iterative_optimize(evaluator, size, n_states, passes=passes, initial=initial)
        slow = iterative_optimize(lambda c: evaluator(c), size, n_states, passes=passes, initial=initial)
        assert kernel_passes and fast[1].evaluations_used == len(kernel_passes) * size * n_states
        assert fast[0] == slow[0]
        assert fast[1].evaluations == slow[1].evaluations
        assert fast[1].evaluations_used == slow[1].evaluations_used
        assert fast[1].feedback_messages == slow[1].feedback_messages

    @pytest.mark.parametrize("case", ["bench_case", "two_ue_case"])
    def test_failure_in_the_first_pass(self, two_ue_scenario, case):
        evaluator, size, n_states, _ = getattr(self, case)(two_ue_scenario)
        initial = [0] * size
        initial[-1] = n_states  # no such state in the link table
        for path in (evaluator, lambda c: evaluator(c)):
            with pytest.raises(EvaluatorFailure) as info:
                iterative_optimize(path, size, n_states, initial=initial)
            assert isinstance(info.value.__cause__, IndexError)

    def test_one_call_with_two_parts_and_a_plain_function(self, two_ue_scenario):
        """Evaluators of the two halves sweep different columns, so one call
        runs them as two stacks, and a plain function alone; each result is
        the generic loop's for that evaluator."""
        world = World(two_ue_scenario)
        panel, tx = world.panels["ris1"], world.nodes["tx1"]
        base = [k % panel.n_states for k in range(panel.n_elements)]
        evaluators = [
            model_evaluator(
                panel, tx.position, tx.tx_power_dbm, world.nodes[ue].position, tx.freq_ghz,
                two_ue_scenario.channel, part_elements=panel.part_elements(part), base_config=base,
            )
            for part, ue in ((0, "rx1"), (1, "rx2"), (0, "rx2"), (1, "rx1"))
        ]
        size = panel.part_elements(0).size
        assert panel.part_elements(1).size == size
        given = evaluators[:3] + [lambda c: evaluators[3](c)]
        results = iterative_optimize_all(given, size, panel.n_states)
        assert len(results) == len(evaluators)
        for evaluator, (config, trace) in zip(evaluators, results):
            alone = iterative_optimize(lambda c: evaluator(c), size, panel.n_states)
            assert config == alone[0]
            assert trace.evaluations == alone[1].evaluations
        assert iterative_optimize_all([], size, panel.n_states) == []
        with pytest.raises(ValueError, match="need n_elements >= 1, n_states >= 2"):
            iterative_optimize_all(evaluators, size, 1)

    @pytest.mark.parametrize("case", ["bench_case", "two_ue_case"])
    def test_initial_of_wrong_length(self, two_ue_scenario, case):
        evaluator, size, n_states, _ = getattr(self, case)(two_ue_scenario)
        calls = []
        kernel = evaluator.sweep
        evaluator.sweep = lambda *args: calls.append("sweep") or kernel(*args)
        for length in (size - 1, size + 1):
            for path in (evaluator, lambda c: calls.append("call") or evaluator(c)):
                with pytest.raises(ValueError, match=f"initial has {length} elements, n_elements is {size}"):
                    iterative_optimize(path, size, n_states, initial=[0] * length)
        assert calls == []
