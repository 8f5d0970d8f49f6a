"""Scalar reference model, written apart from the program.

Everything here works on plain floats and tuples read from the scenario
JSON, one link at a time, so that the checks compare the program's
vectorised outputs against a second, independent computation:

- log-distance path loss referenced to free space at d0;
- a slab test for line of sight through axis-aligned boxes;
- the RIS phasor sum, with the rule that a blocked direct term vanishes
  unless a scatter floor is set;
- the MCS staircase;
- piecewise-linear surge interpolation;
- the hold-window recovery time;
- a brute-force maximum coverage.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import math

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0
HOLD_MS = 10_000

# Defaults the scenario format documents for omitted keys.
DEFAULT_MCS = (
    (-4.0, 0.5), (-1.0, 1.0), (2.0, 2.0), (5.0, 4.0), (8.0, 6.0), (11.0, 9.0),
    (14.0, 12.0), (17.0, 15.0), (20.0, 18.0), (23.0, 21.0), (26.0, 24.0),
)
HV4_STATES = ((1.0, 0.0), (1.0, math.pi), (0.5, 0.0), (0.5, math.pi))
DEFAULT_DATA_SURGE = ((0, 1.0), (1_800_000, 2.6), (9_000_000, 2.6), (12_600_000, 0.8))
DEFAULT_VOICE_SURGE = ((0, 1.0), (1_800_000, 91.5), (9_000_000, 91.5), (12_600_000, 1.0))
ACCESS_KINDS = ("TerrestrialBS", "MobileBS", "UAV")


class Channel:
    """Channel parameters of one scenario, with the documented defaults."""

    def __init__(self, raw: dict) -> None:
        self.exponent = float(raw.get("exponent", 2.0))
        self.d0_m = float(raw.get("d0_m", 1.0))
        self.blockage_penalty_db = float(raw.get("blockage_penalty_db", 20.0))
        self.noise_figure_db = float(raw.get("noise_figure_db", 7.0))
        self.bandwidth_hz = float(raw.get("bandwidth_hz", 20e6))
        self.mcs = tuple(tuple(r) for r in raw.get("mcs_table", DEFAULT_MCS))
        self.scatter_floor_db = raw.get("scatter_floor_db")

    def noise_dbm(self) -> float:
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db

    def path_loss_db(self, d: float, freq_ghz: float) -> float:
        wavelength = SPEED_OF_LIGHT / (freq_ghz * 1e9)
        pl0 = 20.0 * math.log10(4.0 * math.pi * self.d0_m / wavelength)
        return pl0 + 10.0 * self.exponent * math.log10(max(d, self.d0_m) / self.d0_m)

    def link_snr_db(self, tx, tx_dbm: float, freq_ghz: float, rx, boxes) -> float:
        pl = self.path_loss_db(math.dist(tx, rx), freq_ghz)
        if los_blocked(tx, rx, boxes):
            pl += self.blockage_penalty_db
        return tx_dbm - pl - self.noise_dbm()


def segment_hits_box(p, q, lo, hi) -> bool:
    """Slab test of the closed segment p-q against the closed box [lo, hi]."""
    t0, t1 = 0.0, 1.0
    for a in range(3):
        d = q[a] - p[a]
        if abs(d) < 1e-12:
            if p[a] < lo[a] or p[a] > hi[a]:
                return False
            continue
        ta, tb = (lo[a] - p[a]) / d, (hi[a] - p[a]) / d
        if ta > tb:
            ta, tb = tb, ta
        t0, t1 = max(t0, ta), min(t1, tb)
        if t0 > t1:
            return False
    return True


def los_blocked(p, q, boxes) -> bool:
    return any(segment_hits_box(p, q, lo, hi) for lo, hi in boxes)


def mcs_rate(snr_db: float, table) -> float:
    rate = 0.0
    for min_snr, mbps in table:
        if snr_db < min_snr:
            break
        rate = mbps
    return rate


def mcs_rates_near(snr_db: float, table, eps: float = 1e-9) -> set[float]:
    """Rates the staircase gives within eps of snr_db: a second computation
    can land on either side of a step only when it sits this close to it."""
    return {mcs_rate(snr_db - eps, table), mcs_rate(snr_db, table), mcs_rate(snr_db + eps, table)}


def surge(curve, t_since_ms: float) -> float:
    if t_since_ms < 0 or not curve:
        return 1.0
    for (t0, m0), (t1, m1) in zip(curve, curve[1:]):
        if t0 <= t_since_ms <= t1:
            return m0 + (m1 - m0) * (t_since_ms - t0) / (t1 - t0) if t1 > t0 else m1
    return curve[0][1] if t_since_ms < curve[0][0] else curve[-1][1]


def offered_mbps(traffic: dict, t_since_ms: float) -> float:
    data_curve = tuple(tuple(k) for k in traffic.get("data_surge", DEFAULT_DATA_SURGE))
    voice_curve = tuple(tuple(k) for k in traffic.get("voice_surge", DEFAULT_VOICE_SURGE))
    return (float(traffic.get("data_mbps", 2.0)) * surge(data_curve, t_since_ms)
            + float(traffic.get("voice_mbps", 0.1)) * surge(voice_curve, t_since_ms))


def recovery_time(series, strike_ms: int, baseline: float, fraction: float, hold_ms: int = HOLD_MS):
    """First post-strike run of samples at or above fraction * baseline that
    lasts hold_ms, as ms after the strike; None if there is none."""
    target = fraction * baseline
    start = None
    for t, cov in series:
        if t < strike_ms:
            continue
        if cov < target:
            start = None
            continue
        if start is None:
            start = t
        if t - start >= hold_ms:
            return start - strike_ms
    return None


def max_coverage(masks: list[int], k: int) -> int:
    """Largest number of bits any k of the masks cover together."""
    best = 0
    for size in range(1, min(k, len(masks)) + 1):
        for combo in itertools.combinations(masks, size):
            union = 0
            for m in combo:
                union |= m
            best = max(best, bin(union).count("1"))
    return best


# --- RIS ----------------------------------------------------------------------


def panel_elements(center, rows: int, cols: int, pitch: float, normal_axis: int):
    """Element positions, row-major, in the plane normal to normal_axis."""
    u, v = [a for a in range(3) if a != normal_axis]
    out = []
    for r in range(rows):
        for c in range(cols):
            p = list(center)
            p[u] += (c - (cols - 1) / 2.0) * pitch
            p[v] += (r - (rows - 1) / 2.0) * pitch
            out.append(tuple(p))
    return out


def ris_gain(tx, elements, states, config, rx, freq_ghz: float, chan: Channel, boxes) -> complex:
    """Direct path plus one reflected phasor per element."""
    wavelength = SPEED_OF_LIGHT / (freq_ghz * 1e9)
    total = 0j
    for pos, s in zip(elements, config):
        amp, theta = states[s]
        d1, d2 = math.dist(tx, pos), math.dist(pos, rx)
        seg = 10.0 ** (-(chan.path_loss_db(d1, freq_ghz) + chan.path_loss_db(d2, freq_ghz)) / 20.0)
        total += amp * seg * cmath.exp(1j * (theta - 2.0 * math.pi * (d1 + d2) / wavelength))
    return total + direct_term(tx, rx, freq_ghz, chan, boxes)


def direct_term(tx, rx, freq_ghz: float, chan: Channel, boxes) -> complex:
    blocked = los_blocked(tx, rx, boxes)
    if blocked and chan.scatter_floor_db is None:
        return 0j
    d = math.dist(tx, rx)
    pl = chan.path_loss_db(d, freq_ghz) + (float(chan.scatter_floor_db) if blocked else 0.0)
    wavelength = SPEED_OF_LIGHT / (freq_ghz * 1e9)
    return 10.0 ** (-pl / 20.0) * cmath.exp(-2j * math.pi * d / wavelength)


def ris_bound_amplitude(tx, elements, states, rx, freq_ghz: float, chan: Channel, boxes) -> float:
    """Every phasor aligned at its largest state amplitude: no configuration
    can exceed this."""
    a_max = max(a for a, _ in states)
    total = abs(direct_term(tx, rx, freq_ghz, chan, boxes))
    for pos in elements:
        d1, d2 = math.dist(tx, pos), math.dist(pos, rx)
        total += a_max * 10.0 ** (-(chan.path_loss_db(d1, freq_ghz) + chan.path_loss_db(d2, freq_ghz)) / 20.0)
    return total


def power_dbm(tx_dbm: float, amplitude: float) -> float:
    return tx_dbm + 20.0 * math.log10(amplitude) if amplitude > 0 else -math.inf


def nearest_index(points, loc) -> int:
    """Nearest point, ties to the lowest index."""
    best, best_d = 0, math.inf
    for i, p in enumerate(points):
        d = math.dist(p, loc)
        if d < best_d:
            best, best_d = i, d
    return best


# --- seeded geometry of the RIS algorithm bench --------------------------------

# The bench draws its geometry from a stream keyed by SHA-256 of a label and
# the seed (numpy SeedSequence); the constants are those of `rrs ris bench`.
BENCH_CHANNEL = Channel({"exponent": 2.0, "d0_m": 0.1})
BENCH_FREQ_GHZ = 3.5
BENCH_TX_DBM = 20.0
BENCH_PITCH_M = 0.05


def bench_geometry(seed: int, n_elements: int):
    """(elements, tx, ue, blocker boxes) of one bench seed."""
    key = int.from_bytes(hashlib.sha256(b"bench.geometry").digest()[:8], "big")
    rng = np.random.default_rng(np.random.SeedSequence([seed, key]))

    def arc(r_lo, r_hi, a_lo, a_hi):
        r = rng.uniform(r_lo, r_hi)
        a = math.radians(rng.uniform(a_lo, a_hi))
        return (r * math.cos(a), r * math.sin(a), 1.0)

    tx = arc(2.5, 3.5, 60.0, 120.0)
    ue = arc(1.2, 2.2, 45.0, 135.0)
    mid = tuple((a + b) / 2.0 for a, b in zip(tx, ue))
    box = (tuple(c - 0.02 for c in mid), tuple(c + 0.02 for c in mid))
    elements = panel_elements((0.0, 0.0, 1.0), 1, n_elements, BENCH_PITCH_M, 1)
    return elements, tx, ue, (box,)
