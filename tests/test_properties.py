"""Property tests: the vectorised MCS staircase against the scalar lookup,
the metrics.csv writer against csv.writer, and the RIS link-table evaluator
against `cascaded_gain` and the generic element sweep."""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsim import channel as ch
from rrsim.ris_opt import iterative_optimize, model_evaluator
from rrsim.simcore import Sample, write_metrics_csv

_snr = st.floats(allow_nan=False)
_mcs_tables = st.lists(
    st.tuples(st.floats(allow_nan=False), st.floats(0.0, 1e4, allow_nan=False)), max_size=12
).map(lambda rows: tuple(sorted(rows, key=lambda row: row[0])))


@settings(max_examples=300, deadline=None)
@given(_mcs_tables, st.lists(_snr, min_size=1, max_size=20))
def test_mcs_staircase_matches_scalar_throughput(table, snrs):
    rates = ch.McsStaircase(table).rates_at(np.array(snrs, float))
    assert rates.tolist() == [ch.throughput(s, table) for s in snrs]


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
        samples.append(Sample(t, draw(st.floats(0.0, 1.0)), rates, 0))
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
    k = data.draw(st.integers(0, size - 1))
    candidates = [config[:k] + [s] + config[k + 1:] for s in range(panel.n_states)]
    assert evaluator.element_powers(config, k, panel.n_states) == [oracle(c) for c in candidates]


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
    # A plain function has no element_powers, so this takes the generic path.
    slow = iterative_optimize(lambda c: evaluator(c), size, panel.n_states, passes=passes)
    assert fast[0] == slow[0]
    assert fast[1].evaluations == slow[1].evaluations
    assert fast[1].feedback_messages == slow[1].feedback_messages == passes * size * panel.n_states
