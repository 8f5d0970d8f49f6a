"""Propagation model tests, including an independent re-derivation of the
cascaded RIS channel used as the oracle for the vectorized implementation."""

import cmath
import math

import numpy as np
import pytest

from rrsim import channel as ch
from rrsim.simcore import rng_stream


# --- independent oracle ------------------------------------------------------
#
# Deliberately scalar and loop-based: same physics, different code path.

def oracle_pl_db(d, freq_ghz, params):
    lam = 299_792_458.0 / (freq_ghz * 1e9)
    d = max(d, params.d0_m)
    pl0 = 20.0 * math.log10(4.0 * math.pi * params.d0_m / lam)
    return pl0 + 10.0 * params.exponent * math.log10(d / params.d0_m)


def oracle_cascaded(tx, panel, config, rx, freq_ghz, params, obstacles=()):
    lam = 299_792_458.0 / (freq_ghz * 1e9)
    total = 0j
    for k in range(panel.n_elements):
        ex, ey, ez = panel.element_positions[k]
        d1 = math.dist(tx, (ex, ey, ez))
        d2 = math.dist((ex, ey, ez), rx)
        amp_k, theta_k = panel.states[config[k]]
        seg = 10.0 ** (-(oracle_pl_db(d1, freq_ghz, params) + oracle_pl_db(d2, freq_ghz, params)) / 20.0)
        total += amp_k * seg * cmath.exp(1j * (theta_k - 2.0 * math.pi * (d1 + d2) / lam))
    blocked = ch.los_blocked(tx, rx, obstacles)
    if not (blocked and params.scatter_floor_db is None):
        d = math.dist(tx, rx)
        pl = oracle_pl_db(d, freq_ghz, params)
        if blocked:
            pl += params.scatter_floor_db
        total += 10.0 ** (-pl / 20.0) * cmath.exp(-2j * math.pi * d / lam)
    return total


class TestPathLoss:
    def test_free_space_reference_value(self):
        # 1 m at 3.5 GHz: lambda = 0.085655 m, 20*log10(4*pi/lambda) = 43.329 dB
        assert ch.free_space_pl_db(1.0, 3.5) == pytest.approx(43.3291, abs=1e-3)

    def test_log_distance_slope(self):
        params = ch.ChannelParams(exponent=3.0, d0_m=1.0)
        pl_10 = ch.path_loss((0, 0, 0), (10, 0, 0), 3.5, params)
        pl_100 = ch.path_loss((0, 0, 0), (100, 0, 0), 3.5, params)
        assert pl_100 - pl_10 == pytest.approx(30.0, abs=1e-9)

    def test_strictly_increasing_in_distance(self):
        params = ch.ChannelParams(exponent=2.4)
        distances = [1.5, 2.0, 5.0, 20.0, 300.0]
        losses = [ch.path_loss((0, 0, 0), (d, 0, 0), 2.0, params) for d in distances]
        assert all(b > a for a, b in zip(losses, losses[1:]))

    def test_below_d0_clamps(self):
        params = ch.ChannelParams(d0_m=1.0)
        assert ch.path_loss((0, 0, 0), (0.2, 0, 0), 3.5, params) == pytest.approx(
            ch.free_space_pl_db(1.0, 3.5)
        )

    def test_zero_distance_raises(self):
        with pytest.raises(ch.ZeroDistance):
            ch.path_loss((1, 2, 3), (1, 2, 3), 3.5, ch.ChannelParams())

    def test_noise_floor(self):
        params = ch.ChannelParams(noise_figure_db=7.0, bandwidth_hz=20e6)
        assert params.noise_floor_dbm() == pytest.approx(-174 + 10 * math.log10(20e6) + 7)


class TestBlockage:
    BOX = ((2.0, -1.0, 0.0), (3.0, 1.0, 2.0))

    def test_segment_through_box(self):
        assert ch.los_blocked((0, 0, 1), (5, 0, 1), (self.BOX,))

    def test_segment_around_box(self):
        assert not ch.los_blocked((0, 2, 1), (5, 2, 1), (self.BOX,))

    def test_segment_short_of_box(self):
        assert not ch.los_blocked((0, 0, 1), (1.5, 0, 1), (self.BOX,))

    def test_touching_face_counts_as_blocked(self):
        # boxes are closed: grazing the x=2 face intersects
        assert ch.los_blocked((2.0, -5, 1), (2.0, 5, 1), (self.BOX,))

    def test_no_obstacles(self):
        assert not ch.los_blocked((0, 0, 0), (1, 1, 1), ())

    def test_vectorized_matches_scalar(self):
        rng = rng_stream(3, "test.blockage")
        boxes = []
        for _ in range(4):
            lo = rng.uniform(-5, 5, 3)
            hi = lo + rng.uniform(0.1, 3.0, 3)
            boxes.append((tuple(lo), tuple(hi)))
        tx = rng.uniform(-8, 8, 3)
        rxs = rng.uniform(-8, 8, (60, 3))
        fast = ch.segment_blocked_many(tx, rxs, boxes)
        slow = np.array([ch.los_blocked(tx, rx, boxes) for rx in rxs])
        assert (fast == slow).all()


class TestCascadedGain:
    PARAMS = ch.ChannelParams(exponent=2.0, d0_m=0.1)

    def random_instance(self, rng):
        n = int(rng.integers(1, 24))
        center = rng.uniform(-1, 1, 3) + np.array([0, 0, 1.5])
        panel = ch.RisPanel.planar("p", center, rows=1, cols=n, pitch_m=0.05)
        tx = center + rng.uniform(0.5, 3.0, 3)
        rx = center + np.array([1, -1, 1]) * rng.uniform(0.5, 3.0, 3)
        config = rng.integers(0, 4, n)
        return panel, tuple(tx), tuple(rx), list(config)

    def test_matches_oracle_on_random_instances(self):
        rng = rng_stream(17, "test.cascaded.oracle")
        for _ in range(300):
            panel, tx, rx, config = self.random_instance(rng)
            gain = ch.cascaded_gain(tx, panel, config, rx, 3.5, self.PARAMS)
            want = oracle_cascaded(tx, panel, config, rx, 3.5, self.PARAMS)
            assert gain.amplitude == pytest.approx(abs(want), rel=1e-9)

    def test_matches_oracle_with_blockage_and_scatter_floor(self):
        params = ch.ChannelParams(exponent=2.0, d0_m=0.1, scatter_floor_db=25.0)
        panel = ch.RisPanel.planar("p", (0, 0, 1), rows=2, cols=4, pitch_m=0.05)
        tx, rx = (-2.0, 1.5, 1.0), (1.5, 1.5, 1.0)
        wall = (((-0.4, 1.0, 0.0), (-0.2, 2.0, 2.0)),)
        assert ch.los_blocked(tx, rx, wall)
        config = [0, 1, 2, 3, 0, 1, 2, 3]
        gain = ch.cascaded_gain(tx, panel, config, rx, 3.5, params, wall)
        want = oracle_cascaded(tx, panel, config, rx, 3.5, params, wall)
        assert gain.amplitude == pytest.approx(abs(want), rel=1e-9)

    def test_blocked_direct_contributes_nothing_by_default(self):
        panel = ch.RisPanel.planar("p", (0, 0, 1), rows=1, cols=3, pitch_m=0.05)
        tx, rx = (-2.0, 1.5, 1.0), (1.5, 1.5, 1.0)
        wall = (((-0.4, 1.0, 0.0), (-0.2, 2.0, 2.0)),)
        gain = ch.cascaded_gain(tx, panel, [0, 0, 0], rx, 3.5, self.PARAMS, wall)
        want = oracle_cascaded(tx, panel, [0, 0, 0], rx, 3.5, self.PARAMS, wall)
        assert gain.amplitude == pytest.approx(abs(want), rel=1e-9)

    def test_triangle_inequality(self):
        rng = rng_stream(18, "test.cascaded.triangle")
        for _ in range(50):
            panel, tx, rx, config = self.random_instance(rng)
            gain = ch.cascaded_gain(tx, panel, config, rx, 3.5, self.PARAMS)
            d1 = np.linalg.norm(panel.element_positions - np.asarray(tx), axis=1)
            d2 = np.linalg.norm(np.asarray(rx) - panel.element_positions, axis=1)
            amps = np.array([panel.states[s][0] for s in config])
            seg = 10.0 ** (
                -(
                    np.array([oracle_pl_db(d, 3.5, self.PARAMS) for d in d1])
                    + np.array([oracle_pl_db(d, 3.5, self.PARAMS) for d in d2])
                )
                / 20.0
            )
            direct = 10.0 ** (-oracle_pl_db(math.dist(tx, rx), 3.5, self.PARAMS) / 20.0)
            assert gain.amplitude <= float(np.sum(amps * seg)) + direct + 1e-15

    def test_global_phase_rotation_leaves_amplitude_unchanged(self):
        # with the direct path blocked only the reflected sum remains, and a
        # common phase offset on every state cannot change its magnitude
        rot = 0.7
        states = tuple((a, p) for a, p in ch.HV4_STATES)
        rotated = tuple((a, p + rot) for a, p in ch.HV4_STATES)
        wall = (((-0.4, 1.0, 0.0), (-0.2, 2.0, 2.0)),)
        tx, rx = (-2.0, 1.5, 1.0), (1.5, 1.5, 1.0)
        a = ch.RisPanel.planar("a", (0, 0, 1), 1, 6, 0.05, states=states)
        b = ch.RisPanel.planar("b", (0, 0, 1), 1, 6, 0.05, states=rotated)
        config = [0, 1, 2, 3, 0, 1]
        ga = ch.cascaded_gain(tx, a, config, rx, 3.5, self.PARAMS, wall)
        gb = ch.cascaded_gain(tx, b, config, rx, 3.5, self.PARAMS, wall)
        assert ga.amplitude == pytest.approx(gb.amplitude, rel=1e-12)

    def test_config_length_checked(self):
        panel = ch.RisPanel.planar("p", (0, 0, 1), rows=1, cols=4, pitch_m=0.05)
        with pytest.raises(ch.LengthMismatch):
            ch.cascaded_gain((1, 1, 1), panel, [0, 0], (2, 2, 2), 3.5, self.PARAMS)

    def test_rx_on_element_raises(self):
        panel = ch.RisPanel.planar("p", (0, 0, 1), rows=1, cols=1, pitch_m=0.05)
        with pytest.raises(ch.ZeroDistance):
            ch.cascaded_gain((1, 1, 1), panel, [0], (0, 0, 1), 3.5, self.PARAMS)


class TestPanelGeometry:
    def test_planar_layout_centered(self):
        panel = ch.RisPanel.planar("p", (1.0, 2.0, 3.0), rows=2, cols=3, pitch_m=0.1, normal_axis=1)
        assert panel.n_elements == 6
        assert panel.element_positions.mean(axis=0) == pytest.approx([1.0, 2.0, 3.0])
        # all elements lie in the plane y = 2
        assert (panel.element_positions[:, 1] == 2.0).all()

    def test_split_halves(self):
        panel = ch.RisPanel.planar("p", (0, 0, 0), rows=2, cols=5, pitch_m=0.1)
        panel.split_halves()
        assert list(panel.part_elements(0)) == list(range(5))
        assert list(panel.part_elements(1)) == list(range(5, 10))

    def test_kept_parts_follow_the_partition_and_are_read_only(self):
        panel = ch.RisPanel.planar("p", (0, 0, 0), rows=2, cols=5, pitch_m=0.1)
        assert list(panel.part_elements(0)) == list(range(10))
        panel.split_halves()
        members = panel.part_elements(0)
        assert list(members) == list(range(5))
        assert panel.part_elements(0) is members
        with pytest.raises(ValueError):
            members[0] = 7

    def test_state_amplitude_validated(self):
        with pytest.raises(ValueError):
            ch.RisPanel.planar("p", (0, 0, 0), 1, 2, 0.1, states=((1.5, 0.0),))

    def test_hv4_states(self):
        assert ch.HV4_STATES == (
            (1.0, 0.0),
            (1.0, math.pi),
            (0.5, 0.0),
            (0.5, math.pi),
        )


class TestThroughput:
    def test_staircase_edges(self):
        assert ch.throughput(-5.0) == 0.0
        assert ch.throughput(-4.0) == 0.5
        assert ch.throughput(10.9) == 6.0
        assert ch.throughput(11.0) == 9.0
        assert ch.throughput(50.0) == 24.0

    def test_custom_table(self):
        table = ((0.0, 1.0), (10.0, 5.0))
        assert ch.throughput(3.0, table) == 1.0
        assert ch.throughput(12.0, table) == 5.0

    def test_unsorted_table_rejected(self):
        with pytest.raises(ValueError):
            # snr above every row so the scan reaches the out-of-order entry
            ch.throughput(20.0, ((10.0, 5.0), (0.0, 1.0)))


class TestComplexGain:
    def test_phase_wraps(self):
        g = ch.ComplexGain(1.0, -math.pi / 2)
        assert g.phase == pytest.approx(3 * math.pi / 2)

    def test_round_trip(self):
        z = complex(-0.3, 0.4)
        g = ch.ComplexGain.from_complex(z)
        assert cmath.rect(g.amplitude, g.phase) == pytest.approx(z)

    def test_negative_amplitude_rejected(self):
        with pytest.raises(ValueError):
            ch.ComplexGain(-0.1, 0.0)

    def test_received_power(self):
        g = ch.ComplexGain(0.01, 0.0)
        assert ch.received_power_dbm(20.0, g) == pytest.approx(-20.0)
        assert ch.received_power_dbm(20.0, ch.ComplexGain(0.0, 0.0)) == -math.inf


# --- vectorised MCS staircase ---------------------------------------------------


def test_mcs_staircase_rejects_unsorted_table():
    with pytest.raises(ValueError, match="sorted by min SNR"):
        ch.McsStaircase(((5.0, 2.0), (0.0, 1.0)))
