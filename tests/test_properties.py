"""Property tests: the vectorised MCS staircase against the scalar lookup,
and the metrics.csv writer against csv.writer."""

import csv
import io

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rrsim import channel as ch
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
