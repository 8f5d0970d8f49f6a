"""Property tests: the vectorised MCS staircase against the scalar lookup,
the array-based throughput step of `Simulation.measure` against the per-UE
comprehension it replaced (one sample, and a run of samples whose link
state and offered load repeat or move), the metrics.csv writer against csv.writer (also
with table objects shared between samples), the all-boxes blockage test
against the scalar `los_blocked`, the RIS link-table evaluator against
`cascaded_gain` and its sweep kernel against the generic element sweep (one
evaluator, and stacks of evaluators through `iterative_optimize_all`,
`build_codebook` and the planner's relay search), `select_codeword` against
its scalar loop at near-tie distances, the controller's grouped ticks
against one tick event per app, the RIS override of `World.best_links`
against `cascaded_gain` one part at a time, the tx half a panel keeps
against a freshly built panel, the one-sort top-L clustering
against the per-UE sorted loop, and the outage set that `World` keeps per
link budget against the budget's own."""

import csv
import io
import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsim import channel as ch
from rrsim import ntn_planner as planner
from rrsim import ris_opt
from rrsim.cli import bundled_scenario_path
from rrsim.ric import Controller, ControllerApp
from rrsim.cfmimo import cluster, top_l_clusters
from rrsim.ris_opt import (
    Codebook,
    EvaluatorFailure,
    OptimizationTrace,
    build_codebook,
    iterative_optimize,
    iterative_optimize_all,
    model_evaluator,
    select_codeword,
)
from rrsim.runner import Simulation
from rrsim.scenario import NodeKind, scenario_from_dict
from rrsim.simcore import EventKind, Kernel, RateTable, Sample, write_metrics_csv
from rrsim.world import World

_snr = st.floats(allow_nan=False)
_mcs_tables = st.lists(
    st.tuples(st.floats(allow_nan=False), st.floats(0.0, 1e4, allow_nan=False)), max_size=12
).map(lambda rows: tuple(sorted(rows, key=lambda row: row[0])))


@settings(max_examples=300, deadline=None)
@given(_mcs_tables, st.lists(_snr, min_size=1, max_size=20))
def test_mcs_staircase_matches_scalar_throughput(table, snrs):
    rates = ch.McsStaircase(table).rates_at(np.array(snrs, float))
    assert rates.tolist() == [ch.throughput(s, table) for s in snrs]


def measure_reference(ue_ids, best, servers, threshold, offered, table):
    """Coverage ratio and per-UE throughput, one UE at a time: a covered UE
    with a server gets min(offered, rate / UEs sharing that server)."""
    covered = [snr >= threshold for snr in best]
    served = [server if ok else None for server, ok in zip(servers, covered)]
    contention = Counter(served)
    capacity = [ch.throughput(snr, table) for snr in best]
    throughput = {
        ue: 0.0 if server is None else min(offered, rate / contention[server])
        for ue, server, rate in zip(ue_ids, served, capacity)
    }
    return sum(covered) / len(ue_ids), throughput


_SMALL_RUN = {
    "nodes": [
        {"id": "gw", "kind": "Gateway", "position": [0, 0, 10]},
        {"id": "bs1", "kind": "TerrestrialBS", "position": [0, 0, 25]},
        {"id": "ue1", "kind": "UE", "position": [50, 10, 1.5]},
    ]
}
# Terrestrial ids, a deployed one, a RIS panel id (a RIS override serves
# under the panel's id) and no server at all.
_servers = st.sampled_from([None, "bs1", "bs2", "deployed_0", "ris1"])
_link_snr = st.one_of(
    st.sampled_from([3.0, -np.inf, np.inf, 0.0]), st.floats(-40.0, 60.0, allow_nan=False)
)
# Server codes as `World.best_links` gives them: distinct for distinct servers, -1
# for none, and a RIS panel's after the access rows.
_CODES = {None: -1, "bs1": 0, "bs2": 1, "deployed_0": 2, "ris1": 3}


def _codes(servers):
    return np.array([_CODES[s] for s in servers], dtype=np.intp)


@st.composite
def _measure_inputs(draw):
    n = draw(st.integers(1, 12))
    best = draw(st.lists(_link_snr, min_size=n, max_size=n))
    servers = draw(st.lists(_servers, min_size=n, max_size=n))
    changed = list(servers)
    changed[draw(st.integers(0, n - 1))] = draw(_servers)
    threshold = draw(st.sampled_from([3.0, 0.0, -10.0]))
    # Zero, tiny, and above every table rate, where the cap never binds.
    offered = draw(st.one_of(st.sampled_from([0.0, 1e-9, 2e4]), st.floats(0.0, 1e4)))
    return [f"ue{i}" for i in range(n)], best, servers, changed, threshold, offered


@settings(max_examples=300, deadline=None)
@given(_measure_inputs(), _mcs_tables)
def test_measure_throughput_is_bitwise_the_scalar_step(inputs, table):
    ue_ids, best, servers, changed, threshold, offered = inputs
    sim = Simulation(scenario_from_dict(_SMALL_RUN))
    sim._mcs = ch.McsStaircase(table)
    sim.world.snr_threshold_db = threshold
    sim._offered_load_mbps = lambda now_ms: offered
    # The same link state twice reuses its entry; a new one rebuilds it.
    built = []
    for key, links in ((0, servers), (0, servers), (1, changed)):
        sim.world.link_state = lambda key=key: key
        sim.world.best_links = lambda key=key, links=links: built.append(key) or (
            ue_ids, np.array(best, float), _codes(links)
        )
        sample = sim.measure(5_000, apply_fading=False)
        ratio, rates = measure_reference(ue_ids, best, links, threshold, offered, table)
        assert sample.coverage_ratio.hex() == ratio.hex()
        assert list(sample.throughput_mbps) == list(rates)
        assert [r.hex() for r in sample.throughput_mbps.values()] == [r.hex() for r in rates.values()]
    assert built == [0, 1]


@settings(max_examples=300, deadline=None)
@given(st.data(), _mcs_tables, st.sampled_from([3.0, 0.0, -10.0]))
def test_measure_sequence_is_bitwise_the_scalar_step(data, table, threshold):
    """A run of samples whose link state repeats, or moves to a copy of its
    links or to new ones, and whose offered load moves across the largest
    share: every sample is the scalar step, and shares the previous sample's
    table object exactly when its link key and its cap are unchanged. The cap
    is the offered load, or inf above the largest share, compared bitwise."""
    n = data.draw(st.integers(1, 8))
    ue_ids = [f"ue{i}" for i in range(n)]
    sim = Simulation(scenario_from_dict(_SMALL_RUN))
    sim._mcs = ch.McsStaircase(table)
    sim.world.snr_threshold_db = threshold
    links, key, offered, previous = None, 0, None, None
    sim.world.link_state = lambda: key
    sim.world.best_links = lambda: links
    sim._offered_load_mbps = lambda now_ms: offered
    for step in range(data.draw(st.integers(2, 10))):
        change = "new" if links is None else data.draw(st.sampled_from(["same", "same", "copy", "new"]))
        if change == "new":
            best = data.draw(st.lists(_link_snr, min_size=n, max_size=n))
            servers = data.draw(st.lists(_servers, min_size=n, max_size=n))
        if change != "same":
            key += 1
            links = (ue_ids, np.array(best, float), _codes(servers))
        _, uncapped = measure_reference(ue_ids, best, servers, threshold, np.inf, table)
        shares = [
            uncapped[ue] for ue, snr, server in zip(ue_ids, best, servers)
            if snr >= threshold and server is not None
        ]
        top = max(shares, default=0.0)
        loads = [0.0, -0.0, top, float(np.nextafter(top, np.inf)), top + 1.0, top / 2.0]
        loads += shares + ([] if offered is None else [offered])
        offered = data.draw(st.one_of(st.sampled_from(loads), st.floats(0.0, 1e4)))

        sample = sim.measure(5_000 * step, apply_fading=False)
        ratio, rates = measure_reference(ue_ids, best, servers, threshold, offered, table)
        assert sample.coverage_ratio.hex() == ratio.hex()
        assert list(sample.throughput_mbps) == list(rates)
        got = [r.hex() for r in sample.throughput_mbps.values()]
        assert got == [r.hex() for r in rates.values()]
        cap = (float("inf") if offered > max(shares, default=-np.inf) else offered).hex()
        if previous is not None:
            assert (sample.throughput_mbps is previous[0]) == ((key, cap) == previous[1])
        previous = (sample.throughput_mbps, (key, cap))


_ue_ids = st.one_of(st.sampled_from(["ue_1", "a,b", 'q"t', "x\r\ny", "", " s"]), st.text(max_size=6))
_rates = st.one_of(
    st.sampled_from([0.0, -0.0, 0, float("inf"), float("-inf"), 1e-7, -1e-7, 2.5]),
    st.floats(allow_nan=False),
)


@st.composite
def _samples(draw):
    samples = []
    t = 0
    for _ in range(draw(st.integers(0, 5))):
        t += draw(st.integers(1, 10_000))
        rates = draw(st.dictionaries(_ue_ids, _rates, max_size=6))
        samples.append(Sample(t, draw(st.floats(0.0, 1.0)), rates))
    return samples


def csv_writer_reference(samples):
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["time_ms", "coverage_ratio", "ue_id", "throughput_mbps"])
    for s in samples:
        for ue_id in sorted(s.throughput_mbps):
            writer.writerow([s.time_ms, f"{s.coverage_ratio:.6f}", ue_id, f"{s.throughput_mbps[ue_id]:.6f}"])
    return buf.getvalue()


@settings(max_examples=300, deadline=None)
@given(_samples())
def test_metrics_writer_matches_csv_writer(samples):
    buf = io.StringIO()
    write_metrics_csv(buf, samples)
    assert buf.getvalue() == csv_writer_reference(samples)


@st.composite
def _samples_sharing_tables(draw):
    """Samples that pick their tables from a small pool, so one table object
    repeats both consecutively and not. The pool also holds equal tables that
    are distinct objects: plain copies, and copies with the sign of every zero
    flipped, which compare equal but print differently."""
    tables = draw(st.lists(st.dictionaries(_ue_ids, _rates, max_size=6), min_size=1, max_size=3))
    flipped = [{ue: -rate if rate == 0 else rate for ue, rate in t.items()} for t in tables]
    pool = tables + [RateTable(t) for t in tables] + flipped
    samples = []
    t = 0
    for index in draw(st.lists(st.integers(0, len(pool) - 1), max_size=10)):
        t += draw(st.integers(1, 10_000))
        samples.append(Sample(t, draw(st.floats(0.0, 1.0)), pool[index]))
    return samples


@settings(max_examples=300, deadline=None)
@given(_samples_sharing_tables())
def test_metrics_writer_with_shared_tables_matches_csv_writer(samples):
    buf = io.StringIO()
    write_metrics_csv(buf, samples)
    assert buf.getvalue() == csv_writer_reference(samples)


_coord = st.floats(-4.0, 4.0, allow_nan=False)
_point = st.tuples(_coord, _coord, _coord)


@st.composite
def _ris_links(draw):
    """A random panel, states, tx/rx, obstacles and channel, plus an optional
    part splice over a base configuration."""
    states = tuple(
        draw(st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi)), min_size=2, max_size=4
        ))
    )
    panel = ch.RisPanel.planar(
        "p", draw(_point), draw(st.integers(1, 4)), draw(st.integers(1, 12)),
        draw(st.floats(0.01, 0.2)), draw(st.integers(0, 2)), states=states,
    )
    tx, rx = draw(_point), draw(_point)
    boxes = []
    for _ in range(draw(st.integers(0, 3))):
        lo, size = draw(_point), draw(st.tuples(*[st.floats(0.0, 3.0)] * 3))
        boxes.append((lo, tuple(a + b for a, b in zip(lo, size))))
    params = ch.ChannelParams(
        exponent=draw(st.floats(1.5, 4.0)),
        d0_m=draw(st.floats(0.01, 1.0)),
        scatter_floor_db=draw(st.one_of(st.none(), st.floats(0.0, 40.0))),
    )
    freq = draw(st.floats(0.5, 30.0))
    n, n_states = panel.n_elements, panel.n_states
    base = draw(st.lists(st.integers(0, n_states - 1), min_size=n, max_size=n))
    members = None
    if draw(st.booleans()):
        members = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    return panel, tx, rx, boxes, params, freq, base, members


def _link_free(tx, rx, panel):
    """cascaded_gain raises ZeroDistance here; that case has its own tests."""
    points = np.vstack([panel.element_positions, [tx]])
    return np.all(np.linalg.norm(points - np.asarray(rx), axis=1) > 0) and np.all(
        np.linalg.norm(panel.element_positions - np.asarray(tx), axis=1) > 0
    )


@settings(max_examples=300, deadline=None)
@given(_ris_links(), st.data())
def test_table_evaluator_is_bitwise_cascaded_gain(link, data):
    panel, tx, rx, boxes, params, freq, base, members = link
    if not _link_free(tx, rx, panel):
        return
    evaluator = model_evaluator(
        panel, tx, 20.0, rx, freq, params, boxes, part_elements=members,
        base_config=None if members is None else base,
    )
    size = panel.n_elements if members is None else members.size
    config = data.draw(st.lists(st.integers(0, panel.n_states - 1), min_size=size, max_size=size))

    def oracle(config):
        full = np.array(config) if members is None else np.array(base)
        if members is not None:
            full[members] = config
        gain = ch.cascaded_gain(tx, panel, full, rx, freq, params, boxes)
        return ch.received_power_dbm(20.0, gain)

    assert evaluator(config) == oracle(config)
    # Every power of one sweep pass from config, as the kernel logs it.
    _, trace = iterative_optimize(evaluator, size, panel.n_states, initial=config, passes=1)
    assert [power for _, _, power in trace.evaluations] == [
        oracle(list(candidate)) for _, candidate, _ in trace.evaluations
    ]


@settings(max_examples=100, deadline=None)
@given(_ris_links(), st.integers(1, 2))
def test_vectorised_sweep_matches_generic_sweep(link, passes):
    panel, tx, rx, boxes, params, freq, base, members = link
    if not _link_free(tx, rx, panel):
        return
    evaluator = model_evaluator(
        panel, tx, 20.0, rx, freq, params, boxes, part_elements=members,
        base_config=None if members is None else base,
    )
    size = panel.n_elements if members is None else members.size
    fast = iterative_optimize(evaluator, size, panel.n_states, passes=passes)
    # A plain function has no sweep method, so this takes the generic path.
    slow = iterative_optimize(lambda c: evaluator(c), size, panel.n_states, passes=passes)
    assert fast[0] == slow[0]
    assert fast[1].evaluations == slow[1].evaluations
    assert fast[1].feedback_messages == slow[1].feedback_messages == passes * size * panel.n_states


@settings(max_examples=100, deadline=None)
@given(_ris_links())
def test_fixed_point_sweep_kernel_matches_generic_sweep(link):
    panel, tx, rx, boxes, params, freq, base, members = link
    if not _link_free(tx, rx, panel):
        return
    evaluator = model_evaluator(
        panel, tx, 20.0, rx, freq, params, boxes, part_elements=members,
        base_config=None if members is None else base,
    )
    size = panel.n_elements if members is None else members.size
    fast = iterative_optimize(evaluator, size, panel.n_states, passes=None)
    # A plain function has no `sweep` method, so this takes the generic loop.
    slow = iterative_optimize(lambda c: evaluator(c), size, panel.n_states, passes=None)
    assert fast[0] == slow[0]
    assert fast[1].evaluations == slow[1].evaluations


@st.composite
def _ris_stacks(draw):
    """One panel and 1-6 evaluators of it that sweep the same columns (the
    whole panel or one part), each with its own tx, rx, boxes and base
    configuration. A box around the tx-rx midpoint blocks some direct paths;
    some evaluators are wrapped as plain functions."""
    states = tuple(
        draw(st.lists(
            st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 2 * np.pi)), min_size=2, max_size=4
        ))
    )
    panel = ch.RisPanel.planar(
        "p", draw(_point), draw(st.integers(1, 3)), draw(st.integers(1, 8)),
        draw(st.floats(0.01, 0.2)), draw(st.integers(0, 2)), states=states,
    )
    n = panel.n_elements
    members = None
    if draw(st.booleans()):
        members = np.array(sorted(draw(st.sets(st.integers(0, n - 1), min_size=1))))
    params = ch.ChannelParams(
        exponent=draw(st.floats(1.5, 4.0)),
        d0_m=draw(st.floats(0.01, 1.0)),
        scatter_floor_db=draw(st.one_of(st.none(), st.floats(0.0, 40.0))),
    )
    freq = draw(st.floats(0.5, 30.0))
    links = []
    for _ in range(draw(st.integers(1, 6))):
        tx, rx = draw(_point), draw(_point)
        boxes = []
        for _ in range(draw(st.integers(0, 2))):
            lo, size = draw(_point), draw(st.tuples(*[st.floats(0.0, 3.0)] * 3))
            boxes.append((lo, tuple(a + b for a, b in zip(lo, size))))
        if draw(st.booleans()):
            mid = [(a + b) / 2.0 for a, b in zip(tx, rx)]
            boxes.append((tuple(c - 0.01 for c in mid), tuple(c + 0.01 for c in mid)))
        base = draw(st.lists(st.integers(0, panel.n_states - 1), min_size=n, max_size=n))
        links.append((tx, rx, boxes, base, draw(st.booleans())))
    return panel, members, params, freq, links, draw(st.integers(2, panel.n_states))


@settings(max_examples=150, deadline=None)
@given(_ris_stacks())
def test_stacked_sweeps_match_one_generic_sweep_each(stack):
    panel, members, params, freq, links, n_states = stack
    if not all(_link_free(tx, rx, panel) for tx, rx, *_ in links):
        return
    evaluators = [
        model_evaluator(
            panel, tx, 20.0, rx, freq, params, boxes, part_elements=members,
            base_config=None if members is None else base,
        )
        for tx, rx, boxes, base, _ in links
    ]
    size = panel.n_elements if members is None else members.size
    # A plain function is not a ModelEvaluator, so it takes the generic loop here too.
    given_ = [(lambda c, e=e: e(c)) if plain else e for e, (*_, plain) in zip(evaluators, links)]
    stacked = iterative_optimize_all(given_, size, n_states)
    assert len(stacked) == len(evaluators)
    for evaluator, (config, trace) in zip(evaluators, stacked):
        alone = iterative_optimize(lambda c, e=evaluator: e(c), size, n_states)
        assert config == alone[0]
        assert trace.evaluations == alone[1].evaluations
        assert trace.evaluations_used == trace.feedback_messages == size * n_states


@settings(max_examples=50, deadline=None)
@given(st.integers(1, 6), st.data())
def test_a_bad_state_in_any_stacked_evaluator_fails_the_stack(p, data):
    panel = ch.RisPanel.planar("p", (0.0, 0.0, 1.0), rows=1, cols=6, pitch_m=0.05)
    params = ch.ChannelParams(exponent=2.0, d0_m=0.1)
    members = np.array([1, 2, 4])
    bad = data.draw(st.integers(0, p - 1))
    bad_state = data.draw(st.integers(panel.n_states, 100))
    evaluators, configs = [], []
    for i in range(p):
        # A base state outside the table, at an element the part leaves alone.
        base = [0] * panel.n_elements
        if i == bad:
            base[data.draw(st.sampled_from([0, 3, 5]))] = bad_state
        rx = (data.draw(st.floats(-2.0, 2.0)), 1.8, 1.0)
        evaluators.append(model_evaluator(
            panel, (-1.5, 2.0, 1.0), 20.0, rx, 3.5, params, part_elements=members, base_config=base,
        ))
        configs.append([bad_state if i == bad else 0] * panel.n_elements)
    with pytest.raises(EvaluatorFailure) as info:
        iterative_optimize_all(evaluators, members.size, panel.n_states)
    assert isinstance(info.value.__cause__, IndexError)
    # The same for a stack of full-panel evaluators, one of which starts from
    # a configuration with a state outside the table.
    full = [model_evaluator(panel, (-1.5, 2.0, 1.0), 20.0, e.rx, 3.5, params) for e in evaluators]
    traces = [OptimizationTrace() for _ in full]
    with pytest.raises(EvaluatorFailure) as info:
        ris_opt._sweep_stack(full, configs, panel.n_states, traces)
    assert isinstance(info.value.__cause__, IndexError)


@settings(max_examples=50, deadline=None)
@given(
    st.lists(_point, min_size=1, max_size=6, unique=True), _point, st.integers(0, 1),
    st.integers(2, 4), st.data(),
)
def test_codebook_is_one_generic_sweep_per_point(points, tx, part_id, n_states, data):
    panel = ch.RisPanel.planar("p", (0.0, 0.0, 1.0), rows=2, cols=4, pitch_m=0.05)
    panel.split_halves()
    if not all(_link_free(tx, point, panel) for point in points):
        return
    params = ch.ChannelParams(exponent=2.0, d0_m=0.1)
    members = panel.part_elements(part_id)
    base = data.draw(st.lists(st.integers(0, 3), min_size=8, max_size=8))
    boxes = [((-0.5, 0.5, 0.0), (0.5, 1.0, 2.0))] if data.draw(st.booleans()) else []

    def evaluator_at(point):
        return model_evaluator(
            panel, tx, 20.0, point, 3.5, params, boxes, part_elements=members, base_config=base,
        )

    codebook = build_codebook(panel, part_id, points, evaluator_at, n_states=n_states)
    assert codebook.codewords == [
        iterative_optimize(lambda c, e=evaluator_at(point): e(c), members.size, n_states)[0]
        for point in points
    ]


def _relay_by_site(a_pos, b_pos, tx_power_dbm, freq_ghz, params, obstacles, relay_sites, threshold_db):
    """`ntn_planner._try_ris_relay` as one generic sweep per site."""
    rows, cols = planner.DEFAULT_RELAY_ELEMENTS
    best = None
    for site in relay_sites:
        if ch.los_blocked(a_pos, site, obstacles) or ch.los_blocked(site, b_pos, obstacles):
            continue
        panel = ch.RisPanel.planar("relay", site, rows, cols, pitch_m=0.04)
        evaluator = model_evaluator(panel, a_pos, tx_power_dbm, b_pos, freq_ghz, params, obstacles=obstacles)
        config, _ = iterative_optimize(lambda c: evaluator(c), panel.n_elements, panel.n_states)
        snr = evaluator(config) - params.noise_floor_dbm()
        if snr >= threshold_db and (best is None or snr > best[1]):
            best = (tuple(site), snr)
    return best


_site_coord = st.floats(-300.0, 300.0)
_site = st.tuples(_site_coord, _site_coord, st.floats(10.0, 200.0))


@settings(max_examples=25, deadline=None)
@given(
    _site, _site, st.lists(_site, min_size=1, max_size=6),
    st.lists(st.tuples(_site, st.tuples(*[st.floats(1.0, 150.0)] * 3)), max_size=3),
    st.floats(-20.0, 60.0),
)
def test_relay_search_is_one_generic_sweep_per_site(a_pos, b_pos, sites, boxes, threshold):
    obstacles = [(lo, tuple(c + d for c, d in zip(lo, size))) for lo, size in boxes]
    params = ch.ChannelParams(exponent=2.2)
    args = (a_pos, b_pos, 45.0, 2.0, params, obstacles, sites, threshold)
    try:
        expected = _relay_by_site(*args)
    except EvaluatorFailure:
        with pytest.raises(EvaluatorFailure):
            planner._try_ris_relay(*args)
        return
    assert planner._try_ris_relay(*args) == expected


def _select_by_loop(codebook, location):
    """`select_codeword` as the scalar loop over reference points."""
    loc = np.asarray(location, float)
    best_idx, best_d2 = 0, math.inf
    for idx, point in enumerate(codebook.reference_points):
        d2 = float(np.sum((np.asarray(point) - loc) ** 2))
        if d2 < best_d2 - 1e-15:
            best_d2, best_idx = d2, idx
    return list(codebook.codewords[best_idx])


@st.composite
def _near_tie_codebooks(draw):
    """A location and 1-8 distinct reference points, most at distances from
    it that differ only by rounding: mirror images of one offset, and points
    a few ulps from one."""
    loc = draw(_point)
    offset = draw(st.tuples(*[st.floats(-1.0, 1.0)] * 3))
    points = []
    for _ in range(draw(st.integers(1, 8))):
        kind = draw(st.sampled_from(["mirror", "nudge", "free"]))
        if kind == "mirror":
            order = draw(st.permutations(range(3)))
            signs = draw(st.tuples(*[st.sampled_from([-1.0, 1.0])] * 3))
            point = tuple(loc[i] + signs[i] * offset[order[i]] for i in range(3))
        elif kind == "nudge":
            point = tuple(
                float(np.nextafter(loc[i] + offset[i], draw(st.sampled_from([-np.inf, np.inf]))))
                for i in range(3)
            )
        else:
            point = draw(_point)
        if point not in points:
            points.append(point)
    return Codebook(0, points, [[i] for i in range(len(points))]), loc


@settings(max_examples=500, deadline=None)
@given(_near_tie_codebooks())
def test_select_codeword_is_the_scalar_loop(case):
    codebook, loc = case
    assert select_codeword(codebook, loc) == _select_by_loop(codebook, loc)


_grid = st.integers(-3, 3).map(float)
# Grid coordinates put endpoints on box faces and make boxes share planes.
_box_coord = st.one_of(_grid, _coord)
_box_point = st.tuples(_box_coord, _box_coord, _box_coord)


@st.composite
def _segments_and_boxes(draw):
    """One tx, 1-6 rx (some sharing coordinates with tx, so that segments run
    parallel to an axis) and 0-4 closed boxes, some of zero width."""
    tx = draw(_box_point)
    rxs = []
    for _ in range(draw(st.integers(1, 6))):
        rx = list(draw(_box_point))
        for axis in draw(st.sets(st.integers(0, 2), max_size=3)):
            rx[axis] = tx[axis]
        rxs.append(rx)
    boxes = []
    for _ in range(draw(st.integers(0, 4))):
        lo = draw(_box_point)
        size = draw(st.tuples(*[st.one_of(st.just(0.0), _grid.map(abs), st.floats(0.0, 3.0))] * 3))
        boxes.append((lo, tuple(a + b for a, b in zip(lo, size))))
    return np.array(tx), np.array(rxs), boxes


@settings(max_examples=500, deadline=None)
@given(_segments_and_boxes())
def test_blockage_kernel_matches_scalar_test(case):
    tx, rxs, boxes = case
    blocked = ch.segment_blocked_many(tx, rxs, boxes)
    assert blocked.tolist() == [ch.los_blocked(tx, rx, boxes) for rx in rxs]


class _OneTickPerApp:
    """The reference dispatcher: every app has its own tick event, which it
    reschedules right after it runs."""

    def __init__(self, kernel):
        self.kernel = kernel
        kernel.on(EventKind.NON_RT_TICK, self._on_tick)
        kernel.on(EventKind.NEAR_RT_TICK, self._on_tick)

    def register_app(self, app):
        kind = EventKind.NON_RT_TICK if app.tier == "NonRT" else EventKind.NEAR_RT_TICK
        self.kernel.schedule(self.kernel.clock + app.interval_ms, kind, {"app": app})

    def _on_tick(self, kernel, event):
        app = event.payload["app"]
        app.handler(self)
        kernel.schedule(kernel.clock + app.interval_ms, event.kind, event.payload)


# NonRT and NearRT share the 1000 ms interval on purpose.
_tier_intervals = st.sampled_from(
    [("NonRT", 1_000), ("NonRT", 1_500), ("NonRT", 3_000),
     ("NearRT", 20), ("NearRT", 250), ("NearRT", 500), ("NearRT", 1_000)]
)
_offsets = st.sampled_from([0, 1, 20, 250, 1_000, 1_250])
_dispatch_steps = st.lists(
    st.one_of(
        st.tuples(st.just("app"), _tier_intervals),
        # A non-app event: periodic (period > 0) or one-shot.
        st.tuples(st.just("event"), _offsets, st.sampled_from([0, 250, 1_000, 1_500])),
        # A one-shot event whose handler registers an app mid-run.
        st.tuples(st.just("app_in_event"), _offsets, _tier_intervals),
        st.tuples(st.just("advance"), _offsets),
    ),
    max_size=14,
)


def _dispatch_order(steps, grouped):
    """(clock, name) of every app run and non-app event, in kernel order."""
    kernel = Kernel(0)
    if grouped:
        dispatcher = Controller(World(scenario_from_dict(_SMALL_RUN)), kernel)
    else:
        dispatcher = _OneTickPerApp(kernel)
    order = []

    def register(name, tier, interval):
        handler = lambda ctl: order.append((ctl.kernel.clock, name)) or []  # noqa: E731
        dispatcher.register_app(ControllerApp(name, tier, handler, interval))

    def on_event(kernel, event):
        order.append((kernel.clock, event.payload["name"]))
        if "app" in event.payload:
            register(event.payload["name"] + ".app", *event.payload["app"])
        if event.payload.get("period"):
            kernel.schedule(kernel.clock + event.payload["period"], event.kind, event.payload)

    def tier_of_group(kernel, event):
        tiers = {"NonRT" if event.kind == EventKind.NON_RT_TICK else "NearRT"}
        assert {app.tier for app in event.payload["apps"]} == tiers

    kernel.on(EventKind.BATTERY_EXPIRY, on_event)
    if grouped:  # a group never mixes tiers, even at one interval
        kernel.on(EventKind.NON_RT_TICK, tier_of_group)
        kernel.on(EventKind.NEAR_RT_TICK, tier_of_group)
    for i, step in enumerate(steps):
        if step[0] == "app":
            register(f"app{i}", *step[1])
        elif step[0] == "event":
            kernel.schedule(kernel.clock + step[1], EventKind.BATTERY_EXPIRY,
                            {"name": f"event{i}", "period": step[2]})
        elif step[0] == "app_in_event":
            kernel.schedule(kernel.clock + step[1], EventKind.BATTERY_EXPIRY,
                            {"name": f"event{i}", "app": step[2]})
        else:
            kernel.run_until(kernel.clock + step[1])
    kernel.run_until(kernel.clock + 6_000)
    return order


@settings(max_examples=150, deadline=None)
@given(_dispatch_steps)
def test_grouped_ticks_keep_the_one_tick_per_app_order(steps):
    assert _dispatch_order(steps, grouped=True) == _dispatch_order(steps, grouped=False)


_RIS_WORLD = {
    "nodes": _SMALL_RUN["nodes"] + [
        {"id": "rb", "kind": "RisPanel", "position": [5, 0, 2], "ris": {"rows": 1, "cols": 4, "parts": 2}},
        {"id": "ra", "kind": "RisPanel", "position": [-5, 0, 2], "ris": {"rows": 1, "cols": 3}},
    ]
}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_link_state_follows_ris_writes(data):
    """After any run of `configure_ris` writes, with no-op writes and
    revisited configurations among them, `link_state()` is the key computed
    from scratch (the version and the bytes of each configuration in sorted
    panel order), each configuration is the one written in place on a copy,
    and the version stays."""
    world = World(scenario_from_dict(_RIS_WORLD))
    version = world.version
    parts = [(pid, part) for pid, panel in sorted(world.panels.items())
             for part in np.unique(panel.partition).tolist()]
    expected = {pid: np.zeros(panel.n_elements, dtype=int) for pid, panel in world.panels.items()}
    for _ in range(data.draw(st.integers(0, 12))):
        panel_id, part_id = data.draw(st.sampled_from(parts))
        members = world.panels[panel_id].part_elements(part_id)
        codeword = data.draw(st.lists(st.integers(0, 1), min_size=members.size, max_size=members.size))
        world.configure_ris(panel_id, part_id, codeword)
        expected[panel_id][members] = codeword
        assert world.version == version
        assert world.link_state() == (
            version, tuple(config.tobytes() for _, config in sorted(world.ris_configs.items()))
        )
        assert world.link_state()[1] == tuple(config.tobytes() for _, config in sorted(expected.items()))
        assert all(not config.flags.writeable for config in world.ris_configs.values())


with open(bundled_scenario_path("two_ue_demo.json")) as _fh:
    _ROOM = json.load(_fh)
_POLICIES = st.sampled_from(["fast-recovery", "max-throughput", "ris-off"])
# Times off the tick grids below, so that script entries and moves fall
# between ticks as well as on them.
_times = st.integers(0, 6_000)


def _script(draw):
    return [
        {"time_ms": draw(_times), "policy": draw(_POLICIES), "ris_off": draw(st.booleans())}
        for _ in range(draw(st.integers(0, 4)))
    ]


def _moves(draw, ue_ids, point):
    return [
        {"time_ms": draw(_times), "node_id": draw(st.sampled_from(ue_ids)), "position": draw(point)}
        for _ in range(draw(st.integers(0, 4)))
    ]


@st.composite
def _rooms(draw):
    """The two-UE room with its codebooks, walking UEs, a script, and maybe
    a strike that blocks or fails the panel's transmitter."""
    data = json.loads(json.dumps(_ROOM))
    data["ticks"] = {"non_rt_ms": draw(st.sampled_from([1_000, 1_700])),
                     "near_rt_ms": draw(st.sampled_from([10, 100, 130, 1_000])),
                     "sample_ms": draw(st.sampled_from([70, 100, 250]))}
    data["ric"]["policy"] = draw(_POLICIES)
    data["ric"]["script"] = _script(draw)
    arc = st.tuples(st.floats(-1.0, 1.0), st.floats(1.3, 1.7), st.just(1.0)).map(list)
    data["ric"]["ue_moves"] = _moves(draw, ["rx1", "rx2"], arc)
    strike = draw(st.sampled_from([None, "block", "fail"]))
    if strike is not None:
        data["disasters"] = [{"time_ms": draw(_times), "fail": ["tx1"] if strike == "fail" else [],
                              "blockages": [[[-0.5, 0.5, 0.0], [0.5, 0.6, 2.0]]] if strike == "block" else []}]
    return data, [("move", "rx1", [0.2, 1.6, 1.0]), ("policy", draw(_POLICIES)), ("ris_off",)]


@st.composite
def _cities(draw):
    """A few base stations on a grid with UEs, a strike that fails some and
    puts others on battery, a planner that may deploy, and a script."""
    n = draw(st.integers(2, 3))
    sites = [f"bs_{i}{j}" for i in range(n) for j in range(n)]
    nodes = [{"id": "gw", "kind": "Gateway", "position": [500, 500, 30]}] + [
        {"id": site, "kind": "TerrestrialBS", "position": [300 + 400 * i, 300 + 400 * j, 25],
         "tx_power_dbm": 40.0}
        for site, (i, j) in zip(sites, [(i, j) for i in range(n) for j in range(n)])
    ]
    point = st.tuples(st.floats(0, 400 * n), st.floats(0, 400 * n), st.just(1.5)).map(list)
    ue_ids = [f"ue{k}" for k in range(draw(st.integers(1, 6)))]
    nodes += [{"id": ue, "kind": "UE", "position": draw(point)} for ue in ue_ids]
    failed = draw(st.lists(st.sampled_from(sites), unique=True, max_size=len(sites)))
    battery = draw(st.lists(st.sampled_from([s for s in sites if s not in failed] or ["gw"]),
                            unique=True, max_size=2))
    data = {
        "nodes": nodes,
        "ticks": {"non_rt_ms": draw(st.sampled_from([1_000, 2_000])),
                  "near_rt_ms": draw(st.sampled_from([10, 100, 250, 1_000])),
                  "sample_ms": draw(st.sampled_from([100, 330]))},
        "battery_reserve_ms": draw(st.integers(1, 3_000)),
        "disasters": [{"time_ms": draw(_times), "fail": failed,
                       "power_loss": [b for b in battery if b != "gw"]}],
        "planner": {"snr_threshold_db": 3.0, "max_nodes": 2, "uav_altitude_m": 100.0,
                    "uav_tx_power_dbm": 40.0, "candidate_spacing_m": 400.0},
        "channel": {"exponent": 3.0},
        "ric": {"policy": draw(_POLICIES), "script": _script(draw),
                "ue_moves": _moves(draw, ue_ids, point)},
    }
    return data, [("move", ue_ids[0], draw(point)), ("policy", draw(_POLICIES))]


def _mutate(sim, mutation):
    """A change made between `run_until` calls, outside any event."""
    if mutation[0] == "move":
        sim.world.move_node(mutation[1], mutation[2])
    elif mutation[0] == "policy":
        sim.controller.policy = mutation[1]
    else:
        for panel_id, panel in sim.world.panels.items():
            sim.world.configure_ris(panel_id, 0, [1] * panel.part_elements(0).size)


def _observed_run(data, cuts, mutation, observe_ticks):
    """Samples, actions, events scheduled and the (time, kind, id) of every
    event other than a tick, after run_until at each cut, with the mutation
    made after the first cut. An observer on both tick kinds keeps every
    tick awake."""
    sim = Simulation(scenario_from_dict(data))
    dispatched = []
    ticks = {EventKind.NON_RT_TICK, EventKind.NEAR_RT_TICK}
    for kind in EventKind:
        if kind not in ticks:
            sim.kernel.on(kind, lambda k, e: dispatched.append((k.clock, e.kind, e.sequence_id)))
        elif observe_ticks:
            sim.kernel.on(kind, lambda k, e: None)
    for i, cut in enumerate(cuts):
        sim.run(cut)
        if i == 0:
            _mutate(sim, mutation)
    log = sim.kernel.log
    return (log.samples, log.actions, sim.kernel.scheduled, dispatched), sim.kernel


@settings(max_examples=100, deadline=None)
@given(st.one_of(_rooms(), _cities()), st.data())
def test_sleeping_ticks_match_a_run_that_keeps_every_tick(case, data):
    """Skipping idle tick groups changes no sample, no action, no event
    count and no time, kind or sequence id of any other event."""
    scenario, mutations = case
    cuts = sorted(data.draw(st.lists(_times, min_size=1, max_size=3)))
    mutation = data.draw(st.sampled_from(mutations))
    slept, kernel = _observed_run(scenario, cuts, mutation, observe_ticks=False)
    kept, oracle = _observed_run(scenario, cuts, mutation, observe_ticks=True)
    assert not oracle.skipped
    assert slept == kept
    assert kernel.dispatched + kernel.skipped == oracle.dispatched + oracle.skipped


def _best_links_oracle(world, panels=None):
    """The access link budget, then each panel part's SNR from
    `cascaded_gain`, one part at a time: a stronger RIS link takes the UE
    with the code len(access_ids) + the panel's index in sorted panel order.
    panels, when given, stand in for the world's."""
    budget = world.link_budget()
    best, codes = budget.best_db.tolist(), budget.server_rows.tolist()
    panel_ids = sorted(world.panels)
    noise = world.scenario.channel.noise_floor_dbm()
    for panel_id, settings in sorted(world.scenario.ric.ris.items()):
        tx = world.nodes[settings.tx]
        for _, part in sorted(settings.parts.items()):
            ue = world.nodes[part.ue]
            gain = ch.cascaded_gain(
                tx.position, (panels or world.panels)[panel_id], world.ris_configs[panel_id], ue.position,
                tx.freq_ghz, world.scenario.channel, world.obstacles,
            )
            snr = ch.received_power_dbm(tx.tx_power_dbm, gain) - noise
            j = budget.ue_ids.index(part.ue)
            if snr > best[j]:
                best[j], codes[j] = snr, len(budget.access_ids) + panel_ids.index(panel_id)
    return best, codes


# UE positions in front of the panel and clear of the tx: on the tx's side
# of the wall the direct link wins, behind it the RIS link does.
_room_point = st.tuples(st.floats(-3.0, 3.0), st.floats(1.3, 3.0), st.floats(0.5, 2.0))


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_world_best_links_is_the_budget_with_each_stronger_ris_link(data):
    """On a bare `World` of the two-UE room, after any run of panel
    codewords, UE moves and blockage strikes, `best_links()` gives the
    oracle's best SNR bit for bit and its codes, and leaves the cached link
    budget as it was."""
    world = World(scenario_from_dict(_ROOM))
    panel = world.panels["ris1"]
    for now_ms in range(data.draw(st.integers(1, 6))):
        step = data.draw(st.sampled_from(["codeword", "move", "strike"]))
        if step == "codeword":
            part_id = data.draw(st.sampled_from(np.unique(panel.partition).tolist()))
            size = panel.part_elements(part_id).size
            codeword = data.draw(st.lists(st.integers(0, panel.n_states - 1), min_size=size, max_size=size))
            world.configure_ris("ris1", part_id, codeword)
        elif step == "move":
            world.move_node(data.draw(st.sampled_from(["rx1", "rx2"])), data.draw(_room_point))
        else:
            lo = data.draw(_room_point)
            size = data.draw(st.tuples(*[st.floats(0.05, 1.0)] * 3))
            world.apply_strike([], [], [(lo, tuple(a + b for a, b in zip(lo, size)))], now_ms)
        budget = world.link_budget()
        kept = [array.copy() for array in (budget.snr_db, budget.best_db, budget.server_rows)]
        ue_ids, best, codes = world.best_links()
        expected_best, expected_codes = _best_links_oracle(world)
        assert ue_ids == budget.ue_ids
        assert [snr.hex() for snr in best.tolist()] == [snr.hex() for snr in expected_best]
        assert codes.tolist() == expected_codes
        assert world.link_budget() is budget
        assert [array.tobytes() for array in kept] == [
            array.tobytes() for array in (budget.snr_db, budget.best_db, budget.server_rows)
        ]


def _fresh(panel):
    """A panel built anew from the geometry, states and partition of panel,
    with nothing kept."""
    return ch.RisPanel(panel.panel_id, panel.element_positions, panel.states, panel.partition)


@settings(max_examples=200, deadline=None)
@given(_ris_links(), st.data())
def test_kept_tx_half_is_bitwise_a_fresh_panels(link, data):
    """`reflected_terms`, as a table and at a config, on a panel that has
    just served other tx positions, frequencies and channels (or the same
    tx with another of the two), equals its result on a freshly built
    panel bit for bit."""
    panel, tx, rx, _, params, freq, base, _ = link
    if not _link_free(tx, rx, panel):
        return
    tx, rx = np.asarray(tx, float), np.asarray(rx, float)
    for config in (None, np.asarray(base)):
        for _ in range(data.draw(st.integers(1, 3))):
            other_tx = data.draw(st.one_of(st.just(tuple(tx)), _point))
            other_freq = data.draw(st.one_of(st.just(freq), st.floats(0.5, 30.0)))
            other_params = data.draw(
                st.sampled_from([params, ch.ChannelParams(), ch.ChannelParams(exponent=3.1)])
            )
            if _link_free(other_tx, rx, panel):
                ch.reflected_terms(np.asarray(other_tx, float), panel, rx, other_freq, other_params)
        got = ch.reflected_terms(tx, panel, rx, freq, params, config)
        assert got.tobytes() == ch.reflected_terms(tx, _fresh(panel), rx, freq, params, config).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["tx1", "rx1", "rx2"]), _room_point), min_size=1, max_size=5))
def test_kept_tx_half_follows_the_moves_of_the_panels_tx(moves):
    """On a bare `World` of the two-UE room whose tx and UEs move between
    measurements, `best_links()` equals the oracle's on a freshly built
    panel, and so does each part's link table, bit for bit."""
    world = World(scenario_from_dict(_ROOM))
    panel, params = world.panels["ris1"], world.scenario.channel
    for node_id, position in moves:
        world.move_node(node_id, position)
        tx = world.nodes["tx1"]
        ues = [world.nodes[ue_id] for ue_id in world.ris_parts.values()]
        if not all(_link_free(tx.position, ue.position, panel) for ue in ues):
            continue
        _, best, codes = world.best_links()
        expected_best, expected_codes = _best_links_oracle(world, {"ris1": _fresh(panel)})
        assert [snr.hex() for snr in best.tolist()] == [snr.hex() for snr in expected_best]
        assert codes.tolist() == expected_codes
        tx_pos = np.asarray(tx.position, float)
        for ue in ues:
            rx_pos = np.asarray(ue.position, float)
            table = ch.reflected_terms(tx_pos, panel, rx_pos, tx.freq_ghz, params)
            fresh = ch.reflected_terms(tx_pos, _fresh(panel), rx_pos, tx.freq_ghz, params)
            assert table.tobytes() == fresh.tobytes()


def _top_l_by_loop(ap_ids, ue_ids, gains, max_aps):
    """The per-UE clustering loop: each UE's APs sorted by (-gain, ap id),
    the first max_aps of them."""
    serving = {}
    for j, ue_id in enumerate(ue_ids):
        candidates = [(ap_id, gains[i][j]) for i, ap_id in enumerate(ap_ids)]
        candidates.sort(key=lambda item: (-item[1], item[0]))
        serving[ue_id] = tuple(ap_id for ap_id, _ in candidates[:max_aps])
    return serving


# Few distinct gains, so that ties are common, 0.0 against -0.0 among them.
_cluster_gain = st.sampled_from([-3.0, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0, -math.inf])


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_top_l_clusters_is_the_sorted_loop(data):
    """`top_l_clusters` over a (n_access, n_ues) matrix, and `cluster` over
    the same gains as dicts, give the loop's assignment: ties, 0.0 against
    -0.0 included, go to the lower AP id."""
    n_access, n_ues = data.draw(st.integers(1, 6)), data.draw(st.integers(0, 8))
    ap_ids = sorted(data.draw(st.lists(st.text("ab_1", max_size=3), min_size=n_access, max_size=n_access,
                                       unique=True)))
    ue_ids = [f"ue{j}" for j in range(n_ues)]
    gains = data.draw(st.lists(st.lists(_cluster_gain, min_size=n_ues, max_size=n_ues),
                               min_size=n_access, max_size=n_access))
    max_aps = data.draw(st.integers(1, n_access + 1))
    expected = _top_l_by_loop(ap_ids, ue_ids, gains, max_aps)
    matrix = np.array(gains, float).reshape(n_access, n_ues)
    assert top_l_clusters(tuple(ap_ids), ue_ids, matrix, max_aps).serving == expected
    by_ue = {ue_id: {ap_ids[i]: gains[i][j] for i in reversed(range(n_access))}
             for j, ue_id in enumerate(ue_ids)}
    assert cluster(by_ue, max_aps).serving == expected


with open(bundled_scenario_path("earthquake_demo.json")) as _fh:
    _QUAKE = scenario_from_dict(json.load(_fh))
_WORLDS = {
    "room": (scenario_from_dict(_ROOM), _room_point),
    "quake": (_QUAKE, st.tuples(st.floats(0.0, 5_000.0), st.floats(0.0, 5_000.0), st.just(1.5))),
}


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_WORLDS)), st.data())
def test_out_of_service_is_kept_per_link_budget(name, data):
    """On a bare `World` (the two-UE room or the earthquake demo), after any
    run of strikes, UE moves, RIS writes and deployments, `out_of_service()`
    equals the link budget's own set at the threshold. It is the same object
    while the version stays, and a new one after each bump."""
    scenario, point = _WORLDS[name]
    world = World(scenario)
    access = sorted(n.node_id for n in scenario.nodes if n.kind == NodeKind.TERRESTRIAL_BS)
    ues = sorted(n.node_id for n in scenario.nodes if n.kind == NodeKind.UE)
    version, previous = world.version, world.out_of_service()
    for now_ms in range(data.draw(st.integers(1, 6))):
        step = data.draw(st.sampled_from(["strike", "move", "ris", "deploy"]))
        if step == "strike":
            failed = data.draw(st.lists(st.sampled_from(access), max_size=3, unique=True))
            power_loss = data.draw(st.lists(st.sampled_from(access), max_size=2, unique=True))
            lo = data.draw(point)
            box = (lo, tuple(a + b for a, b in zip(lo, (40.0, 40.0, 20.0))))
            world.apply_strike(failed, [n for n in power_loss if n not in failed], [box], now_ms)
        elif step == "move":
            world.move_node(data.draw(st.sampled_from(ues)), data.draw(point))
        elif step == "ris" and world.panels:
            panel_id = data.draw(st.sampled_from(sorted(world.panels)))
            panel = world.panels[panel_id]
            part_id = data.draw(st.sampled_from(np.unique(panel.partition).tolist()))
            size = panel.part_elements(part_id).size
            world.configure_ris(panel_id, part_id, data.draw(
                st.lists(st.integers(0, panel.n_states - 1), min_size=size, max_size=size)))
        elif step == "deploy":
            x, y, _ = data.draw(point)
            world.add_deployed_node(NodeKind.UAV, (x, y, 120.0), 35.0, 3.5)
        oos = world.out_of_service()
        assert isinstance(oos, frozenset)
        assert oos == world.link_budget().out_of_service(world.snr_threshold_db)
        assert (oos is previous) == (world.version == version)
        assert world.out_of_service() is oos
        version, previous = world.version, oos
