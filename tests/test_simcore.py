"""Kernel ordering, sleeping periodic events, RNG streams, metrics log and
recovery-time extraction."""

import io
import math

import pytest

from rrsim.simcore import (
    NOT_RECOVERED,
    Event,
    EventKind,
    Kernel,
    MetricsLog,
    NoDisaster,
    PastEvent,
    Sample,
    recovery_time,
    rng_stream,
    write_metrics_csv,
)


def make_log(strike_ms, points):
    """Build a metrics log with a strike action and (time, coverage) samples."""
    log = MetricsLog()
    log.log_action(strike_ms, "DisasterStrike: test")
    for t, cov in points:
        log.add_sample(Sample(t, cov, {}))
    return log


class TestKernel:
    def test_events_fire_in_time_order(self):
        kernel = Kernel()
        fired = []
        kernel.on(EventKind.BATTERY_EXPIRY, lambda k, e: fired.append(e.fire_time))
        for t in (30, 10, 20):
            kernel.schedule(t, EventKind.BATTERY_EXPIRY)
        kernel.run_until(100)
        assert fired == [10, 20, 30]
        assert kernel.clock == 100

    def test_same_time_ties_break_by_schedule_order(self):
        kernel = Kernel()
        fired = []
        kernel.on(EventKind.BATTERY_EXPIRY, lambda k, e: fired.append(e.payload["tag"]))
        for tag in ("a", "b", "c"):
            kernel.schedule(50, EventKind.BATTERY_EXPIRY, {"tag": tag})
        kernel.run_until(50)
        assert fired == ["a", "b", "c"]

    def test_handler_can_schedule_followups(self):
        kernel = Kernel()
        fired = []

        def chain(k, e):
            fired.append(k.clock)
            if k.clock < 30:
                k.schedule(k.clock + 10, EventKind.BATTERY_EXPIRY)

        kernel.on(EventKind.BATTERY_EXPIRY, chain)
        kernel.schedule(10, EventKind.BATTERY_EXPIRY)
        kernel.run_until(100)
        assert fired == [10, 20, 30]

    def test_past_event_rejected(self):
        kernel = Kernel()
        kernel.schedule(10, EventKind.BATTERY_EXPIRY)
        kernel.run_until(20)
        with pytest.raises(PastEvent):
            kernel.schedule(15, EventKind.BATTERY_EXPIRY)
        with pytest.raises(PastEvent):
            kernel.run_until(5)

    def test_run_until_stops_at_boundary(self):
        kernel = Kernel()
        fired = []
        kernel.on(EventKind.BATTERY_EXPIRY, lambda k, e: fired.append(e.fire_time))
        kernel.schedule(10, EventKind.BATTERY_EXPIRY)
        kernel.schedule(11, EventKind.BATTERY_EXPIRY)
        kernel.run_until(10)
        assert fired == [10]
        kernel.run_until(11)
        assert fired == [10, 11]

    def test_event_is_frozen(self):
        event = Event(5, EventKind.BATTERY_EXPIRY)
        with pytest.raises(AttributeError):
            event.fire_time = 7


class TestSleep:
    """A periodic tick that sleeps whenever it runs, next to a one-shot event
    at 55 ms; with an observer on the tick kind, every firing runs."""

    def ticking(self, wake_time=math.inf, observe=False):
        kernel, state, runs, others = Kernel(0), {"key": "A"}, [], []

        def tick(k, event):
            runs.append(k.clock)
            k.sleep(k.clock + 10, 10, event.kind, event.payload, lambda: state["key"], wake_time)

        kernel.on(EventKind.NEAR_RT_TICK, tick)
        if observe:
            kernel.on(EventKind.NEAR_RT_TICK, lambda k, e: None)
        kernel.on(EventKind.UE_MOVE, lambda k, e: others.append((k.clock, e.sequence_id)))
        kernel.schedule(10, EventKind.NEAR_RT_TICK)
        kernel.schedule(55, EventKind.UE_MOVE)
        return kernel, state, runs, others

    def test_skipped_firings_draw_their_sequence_ids(self):
        kernel, _, runs, others = self.ticking()
        oracle, _, all_runs, oracle_others = self.ticking(observe=True)
        for t_end in (95, 100):
            kernel.run_until(t_end)
            oracle.run_until(t_end)
            assert kernel.scheduled == oracle.scheduled
        assert runs == [10] and all_runs == list(range(10, 101, 10))
        assert others == oracle_others == [(55, 1)]
        assert kernel.skipped == {EventKind.NEAR_RT_TICK: 9} and not oracle.skipped
        assert kernel.dispatched == {EventKind.NEAR_RT_TICK: 1, EventKind.UE_MOVE: 1}
        assert oracle.dispatched[EventKind.NEAR_RT_TICK] == 10

    def test_key_is_read_when_the_firing_is_due(self):
        kernel, state, runs, _ = self.ticking()
        kernel.run_until(30)
        state["key"] = "B"  # changed between runs: the next firing runs
        kernel.run_until(60)
        state["key"] = "A"
        state["key"] = "B"  # changed and changed back: still idle
        kernel.run_until(100)
        assert runs == [10, 40]

    def test_firings_at_or_past_the_wake_time_run(self):
        kernel, _, runs, _ = self.ticking(wake_time=40)
        kernel.run_until(70)
        assert runs == [10, 40, 50, 60, 70]
        assert kernel.skipped == {EventKind.NEAR_RT_TICK: 2}

    def two_ticks(self, observe=False):
        """Tick A every 10 ms from 10 ms and tick B every 15 ms from 15 ms,
        both sleeping on one key that a one-shot event at 52 ms changes. Each
        tick logs the firings at which the key has moved since it last acted."""
        kernel, state, acted = Kernel(0), {"key": 0}, []

        def ticker(name, period):
            seen = []

            def tick(k, event):
                if seen[-1:] != [state["key"]]:
                    seen.append(state["key"])
                    acted.append((k.clock, name, event.sequence_id))
                k.sleep(k.clock + period, period, event.kind, event.payload, lambda: state["key"], math.inf)

            return tick

        def change_key(k, event):
            state["key"] = 1
            acted.append((k.clock, "change", event.sequence_id))

        for kind, name, period in ((EventKind.NEAR_RT_TICK, "A", 10), (EventKind.NON_RT_TICK, "B", 15)):
            kernel.on(kind, ticker(name, period))
            if observe:
                kernel.on(kind, lambda k, e: None)
            kernel.schedule(period, kind)
        kernel.on(EventKind.UE_MOVE, change_key)
        kernel.schedule(52, EventKind.UE_MOVE)
        kernel.run_until(100)
        return kernel, acted

    def test_two_sleeping_ticks_keep_the_order_of_a_run_that_keeps_every_tick(self):
        kernel, acted = self.two_ticks()
        oracle, oracle_acted = self.two_ticks(observe=True)
        assert acted == oracle_acted
        assert [(t, name) for t, name, _ in acted if t >= 52] == [(52, "change"), (60, "B"), (60, "A")]
        assert kernel.scheduled == oracle.scheduled == 19
        assert kernel.skipped == {EventKind.NEAR_RT_TICK: 8, EventKind.NON_RT_TICK: 4}
        assert not oracle.skipped

    def test_sleeping_in_the_past_is_refused(self):
        kernel = Kernel(0)
        kernel.run_until(100)
        with pytest.raises(PastEvent):
            kernel.sleep(50, 10, EventKind.NEAR_RT_TICK, {}, lambda: 0, math.inf)


class TestRngStreams:
    def test_same_seed_same_label_reproduces(self):
        a = rng_stream(123, "channel.fading").standard_normal(8)
        b = rng_stream(123, "channel.fading").standard_normal(8)
        assert (a == b).all()

    def test_labels_are_independent(self):
        a = rng_stream(123, "channel.fading").standard_normal(8)
        b = rng_stream(123, "bench.geometry").standard_normal(8)
        assert not (a == b).all()

    def test_seed_changes_stream(self):
        a = rng_stream(1, "x").standard_normal(8)
        b = rng_stream(2, "x").standard_normal(8)
        assert not (a == b).all()

    def test_kernel_caches_stream(self):
        kernel = Kernel(9)
        first = kernel.rng("a").standard_normal()
        second = kernel.rng("a").standard_normal()
        # the same generator keeps advancing rather than restarting
        assert first != second


class TestMetricsLog:
    def test_samples_strictly_increasing(self):
        log = MetricsLog()
        log.add_sample(Sample(0, 1.0, {}))
        with pytest.raises(ValueError):
            log.add_sample(Sample(0, 1.0, {}))

    def test_coverage_bounds_checked(self):
        log = MetricsLog()
        with pytest.raises(ValueError):
            log.add_sample(Sample(0, 1.5, {}))

    def test_strike_time_from_actions(self):
        log = MetricsLog()
        assert log.strike_time() is None
        log.log_action(5, "Recluster by x")
        log.log_action(7, "DisasterStrike: 2 failed")
        assert log.strike_time() == 7

    def test_csv_writer(self, tmp_path):
        path = tmp_path / "m.csv"
        with open(path, "w", newline="") as fh:
            write_metrics_csv(fh, [Sample(0, 1.0, {"ue_b": 2.0, "ue_a": 1.0})])
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "time_ms,coverage_ratio,ue_id,throughput_mbps"
        # rows sorted by ue id for stable output
        assert lines[1].startswith("0,1.000000,ue_a")
        assert lines[2].startswith("0,1.000000,ue_b")


class TestRecoveryTime:
    def test_simple_recovery(self):
        # drop at 10 s, back above target at 70 s and held: recovery is 60 s
        points = [(0, 1.0), (10_000, 0.4)]
        points += [(t, 0.4) for t in range(15_000, 70_000, 5_000)]
        points += [(t, 0.97) for t in range(70_000, 90_001, 5_000)]
        log = make_log(10_000, points)
        assert recovery_time(log, 1.0, 0.95) == 60_000

    def test_hold_window_filters_blips(self):
        # one sample above target then a relapse must not count
        points = [
            (0, 1.0),
            (10_000, 0.4),
            (15_000, 0.96),
            (20_000, 0.4),
        ]
        points += [(t, 0.98) for t in range(25_000, 40_001, 5_000)]
        log = make_log(10_000, points)
        assert recovery_time(log, 1.0, 0.95) == 15_000

    def test_not_recovered_sentinel(self):
        log = make_log(0, [(0, 1.0), (5_000, 0.5), (10_000, 0.5), (60_000, 0.5)])
        assert recovery_time(log, 1.0, 0.95) is NOT_RECOVERED

    def test_short_tail_run_does_not_count(self):
        # above target only for the final 5 s: hold window never completes
        log = make_log(0, [(0, 1.0), (5_000, 0.5), (10_000, 0.97), (15_000, 0.97)])
        assert recovery_time(log, 1.0, 0.95) is NOT_RECOVERED

    def test_exact_hold_boundary_counts(self):
        log = make_log(0, [(0, 0.2), (1_000, 0.95), (11_000, 0.95)])
        assert recovery_time(log, 1.0, 0.95) == 1_000

    def test_zero_recovery_time_when_never_dropped(self):
        log = make_log(0, [(0, 1.0), (5_000, 1.0), (15_000, 1.0)])
        assert recovery_time(log, 1.0, 0.95) == 0

    def test_requires_a_strike(self):
        log = MetricsLog()
        log.add_sample(Sample(0, 1.0, {}))
        with pytest.raises(NoDisaster):
            recovery_time(log, 1.0, 0.95)

    def test_target_relative_to_baseline(self):
        # baseline 0.8: target is 0.76, a plateau at 0.78 recovers
        points = [(0, 0.8), (1_000, 0.3)] + [(t, 0.78) for t in range(2_000, 13_000, 1_000)]
        log = make_log(1_000, points)
        assert recovery_time(log, 0.8, 0.95) == 1_000

    def test_invalid_arguments(self):
        log = make_log(0, [(0, 1.0)])
        with pytest.raises(ValueError):
            recovery_time(log, 0.0, 0.95)
        with pytest.raises(ValueError):
            recovery_time(log, 1.0, 1.5)

    def test_sentinel_is_singleton(self):
        from rrsim.simcore import NotRecovered

        assert NotRecovered() is NOT_RECOVERED
        assert repr(NOT_RECOVERED) == "NotRecovered"


# --- metrics.csv writer --------------------------------------------------------


def test_metrics_writer_keeps_negative_zero_apart():
    samples = [Sample(0, 1.0, {"a": 0.0, "b": -0.0, "c": 0.0})]
    buf = io.StringIO()
    write_metrics_csv(buf, samples)
    assert buf.getvalue().splitlines()[1:] == [
        "0,1.000000,a,0.000000",
        "0,1.000000,b,-0.000000",
        "0,1.000000,c,0.000000",
    ]
