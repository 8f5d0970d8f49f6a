"""Radio propagation: log-distance path loss, LOS blockage, cascaded RIS channel,
SNR and throughput mapping."""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

SPEED_OF_LIGHT = 299_792_458.0

# Staircase MCS table: (minimum SNR dB, rate Mbps). Below the floor the link
# delivers nothing; above the top row the rate is capped.
DEFAULT_MCS = (
    (-4.0, 0.5),
    (-1.0, 1.0),
    (2.0, 2.0),
    (5.0, 4.0),
    (8.0, 6.0),
    (11.0, 9.0),
    (14.0, 12.0),
    (17.0, 15.0),
    (20.0, 18.0),
    (23.0, 21.0),
    (26.0, 24.0),
)

# Four element states: {horizontal, vertical} polarization x {0, pi} phase shift.
# Cross-polarized reception is attenuated by a fixed amplitude factor.
CROSS_POL_AMPLITUDE = 0.5
HV4_STATES = (
    (1.0, 0.0),
    (1.0, math.pi),
    (CROSS_POL_AMPLITUDE, 0.0),
    (CROSS_POL_AMPLITUDE, math.pi),
)


class ChannelError(Exception):
    pass


class ZeroDistance(ChannelError):
    pass


class LengthMismatch(ChannelError):
    pass


@dataclass(frozen=True)
class ComplexGain:
    """Linear amplitude and phase wrapped to [0, 2*pi)."""

    amplitude: float
    phase: float

    def __post_init__(self) -> None:
        if self.amplitude < 0:
            raise ValueError("amplitude must be non-negative")
        object.__setattr__(self, "phase", self.phase % (2.0 * math.pi))

    @classmethod
    def from_complex(cls, value: complex) -> "ComplexGain":
        return cls(abs(value), math.atan2(value.imag, value.real))


@dataclass(frozen=True)
class ChannelParams:
    exponent: float = 2.0
    d0_m: float = 1.0
    blockage_penalty_db: float = 20.0
    noise_figure_db: float = 7.0
    bandwidth_hz: float = 20e6
    mcs_table: tuple[tuple[float, float], ...] = DEFAULT_MCS
    # Residual direct-path attenuation (dB) when LOS is blocked in the cascaded
    # model; None means the blocked direct path contributes nothing.
    scatter_floor_db: float | None = None
    fading: bool = False

    def noise_floor_dbm(self) -> float:
        return -174.0 + 10.0 * math.log10(self.bandwidth_hz) + self.noise_figure_db


def free_space_pl_db(distance_m: float, freq_ghz: float) -> float:
    wavelength = SPEED_OF_LIGHT / (freq_ghz * 1e9)
    return 20.0 * math.log10(4.0 * math.pi * distance_m / wavelength)


def path_loss(tx_pos, rx_pos, freq_ghz: float, params: ChannelParams) -> float:
    """Log-distance path loss in dB, referenced to free space at d0."""
    d = float(np.linalg.norm(np.asarray(rx_pos, float) - np.asarray(tx_pos, float)))
    if d <= 0.0:
        raise ZeroDistance("tx and rx positions coincide")
    d = max(d, params.d0_m)
    pl0 = free_space_pl_db(params.d0_m, freq_ghz)
    return pl0 + 10.0 * params.exponent * math.log10(d / params.d0_m)


def los_blocked(tx_pos, rx_pos, obstacles) -> bool:
    """True iff the tx->rx segment intersects any closed axis-aligned box."""
    if not len(obstacles):
        return False
    p = np.asarray(tx_pos, float)
    q = np.asarray(rx_pos, float)
    for box in obstacles:
        lo = np.asarray(box[0], float)
        hi = np.asarray(box[1], float)
        if _segment_hits_box(p, q, lo, hi):
            return True
    return False


def _segment_hits_box(p: np.ndarray, q: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> bool:
    # Slab method on the parametric segment p + t(q - p), t in [0, 1].
    d = q - p
    t_min, t_max = 0.0, 1.0
    for axis in range(3):
        if abs(d[axis]) < 1e-12:
            if p[axis] < lo[axis] or p[axis] > hi[axis]:
                return False
            continue
        t1 = (lo[axis] - p[axis]) / d[axis]
        t2 = (hi[axis] - p[axis]) / d[axis]
        if t1 > t2:
            t1, t2 = t2, t1
        t_min = max(t_min, t1)
        t_max = min(t_max, t2)
        if t_min > t_max:
            return False
    return True


def segment_blocked_many(tx_pos: np.ndarray, rx_positions: np.ndarray, obstacles) -> np.ndarray:
    """Vectorized blockage test: one tx against (M, 3) rx positions, equal to
    `los_blocked` per rx. The slab test of every box and rx at once, over
    (B, M, 3) arrays."""
    m = rx_positions.shape[0]
    if not len(obstacles):
        return np.zeros(m, dtype=bool)
    p = np.asarray(tx_pos, float)
    boxes = np.asarray(obstacles, float)  # (B, 2, 3)
    lo = boxes[:, None, 0, :]  # (B, 1, 3)
    hi = boxes[:, None, 1, :]
    d = rx_positions - p  # (M, 3)
    parallel = np.abs(d) < 1e-12
    outside = parallel & ((p < lo) | (p > hi))  # (B, M, 3)
    # Parallel axes divide by (nearly) zero; their quotients are masked out.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        t1 = (lo - p) / d
        t2 = (hi - p) / d
    swap = t1 > t2
    # A parallel axis leaves [0, 1] as it is (or rules the box out above).
    t_min = np.where(parallel, 0.0, np.where(swap, t2, t1)).max(axis=2, initial=0.0)
    t_max = np.where(parallel, 1.0, np.where(swap, t1, t2)).min(axis=2, initial=1.0)
    return (~outside.any(axis=2) & (t_min <= t_max)).any(axis=0)


@dataclass
class RisPanel:
    """Passive reflecting panel with discrete per-element states.

    Element positions derive from the panel center, a rows x cols layout and
    the element pitch; the panel plane is normal to one coordinate axis.
    """

    panel_id: str
    element_positions: np.ndarray  # (N, 3) meters
    states: tuple[tuple[float, float], ...] = HV4_STATES  # (amplitude, phase)
    partition: np.ndarray | None = None  # (N,) part id per element

    def __post_init__(self) -> None:
        # The geometry and the states are fixed once built: the kept arrays
        # of `part_elements`, `tx_half` and the state arrays derive from them.
        self.element_positions = _read_only(np.array(self.element_positions, float))
        if self.element_positions.ndim != 2 or self.element_positions.shape[1] != 3:
            raise ValueError("element_positions must be (N, 3)")
        if self.n_elements == 0:
            raise ValueError("panel must have at least one element")
        for amp, _ in self.states:
            if not 0.0 <= amp <= 1.0:
                raise ValueError("state amplitude must be in [0, 1]")
        if self.partition is None:
            self.partition = np.zeros(self.n_elements, dtype=int)
        else:
            self.partition = np.asarray(self.partition, dtype=int)
            if self.partition.shape != (self.n_elements,):
                raise ValueError("partition table must have one part id per element")
        self._parts: dict[int, np.ndarray] = {}
        self._tx_half: tuple[tuple, tuple[np.ndarray, np.ndarray]] | None = None

    @property
    def n_elements(self) -> int:
        return self.element_positions.shape[0]

    @property
    def n_states(self) -> int:
        return len(self.states)

    @cached_property
    def state_amps(self) -> np.ndarray:
        """The amplitude of each state, read-only, built on first use."""
        return _read_only(np.array([amp for amp, _ in self.states], float))

    @cached_property
    def state_phases(self) -> np.ndarray:
        """The phase of each state, read-only, built on first use."""
        return _read_only(np.array([phase for _, phase in self.states], float))

    def part_elements(self, part_id: int) -> np.ndarray:
        """The ascending element indices of one part, read-only, kept until
        the partition changes."""
        members = self._parts.get(part_id)
        if members is None:
            members = self._parts[part_id] = _read_only(np.flatnonzero(self.partition == part_id))
        return members

    def split_halves(self) -> None:
        """Partition into two contiguous halves (parts 0 and 1)."""
        half = self.n_elements // 2
        table = np.zeros(self.n_elements, dtype=int)
        table[half:] = 1
        self.partition = table
        self._parts = {}

    def tx_half(self, tx, freq_ghz: float, params: ChannelParams) -> tuple[np.ndarray, np.ndarray]:
        """The tx side of `reflected_terms`: each element's distance d1 from
        tx and its path loss pl1, read-only. The panel never moves, so they
        are kept for the last (tx, freq_ghz, params) asked for, and computed
        again when any of the three changes."""
        tx = np.asarray(tx, float)
        key = (tx.tobytes(), freq_ghz, params)
        if self._tx_half is None or self._tx_half[0] != key:
            d1 = np.linalg.norm(self.element_positions - tx, axis=1)
            if np.any(d1 <= 0.0):
                raise ZeroDistance("tx or rx coincides with a panel element")
            pl1 = _path_loss_db_vec(d1, freq_ghz, params)
            self._tx_half = (key, (_read_only(d1), _read_only(pl1)))
        return self._tx_half[1]

    @classmethod
    def planar(
        cls,
        panel_id: str,
        center,
        rows: int,
        cols: int,
        pitch_m: float,
        normal_axis: int = 1,
        states: tuple[tuple[float, float], ...] = HV4_STATES,
    ) -> "RisPanel":
        center = np.asarray(center, float)
        axes = [a for a in range(3) if a != normal_axis]
        r_idx = np.arange(rows) - (rows - 1) / 2.0
        c_idx = np.arange(cols) - (cols - 1) / 2.0
        positions = np.tile(center, (rows * cols, 1))
        rr, cc = np.meshgrid(r_idx, c_idx, indexing="ij")
        positions[:, axes[0]] += cc.ravel() * pitch_m
        positions[:, axes[1]] += rr.ravel() * pitch_m
        return cls(panel_id, positions, states=states)


def cascaded_gain(
    tx_pos,
    panel: RisPanel,
    config,
    rx_pos,
    freq_ghz: float,
    params: ChannelParams,
    obstacles=(),
) -> ComplexGain:
    """Total complex gain of direct path plus per-element reflected paths
    (see `reflected_terms`)."""
    config = np.asarray(config, dtype=int)
    if config.shape != (panel.n_elements,):
        raise LengthMismatch(
            f"config length {config.size} != element count {panel.n_elements}"
        )
    tx = np.asarray(tx_pos, float)
    rx = np.asarray(rx_pos, float)
    total = np.sum(reflected_terms(tx, panel, rx, freq_ghz, params, config))
    total += direct_term(tx, rx, freq_ghz, params, obstacles)
    return ComplexGain.from_complex(complex(total))


def reflected_terms(
    tx: np.ndarray,
    panel: RisPanel,
    rx: np.ndarray,
    freq_ghz: float,
    params: ChannelParams,
    config: np.ndarray | None = None,
) -> np.ndarray:
    """Reflected path of each element k: a * g_k * f_k * exp(j(theta - phi_k)),
    where g_k, f_k are segment amplitudes from path loss, phi_k is the
    distance-induced phase 2*pi*(d1+d2)/lambda and (a, theta) an element state.

    With a config, (N,) terms at the state config[k] of each element; without
    one, the (N, S) table of every state of every element. Both shapes come
    from the same element-wise operations, so a gathered table row equals the
    config's terms bit for bit. The tx half (d1 and its path loss) is the
    panel's kept `tx_half`.
    """
    wavelength = SPEED_OF_LIGHT / (freq_ghz * 1e9)
    d1, pl1 = panel.tx_half(tx, freq_ghz, params)
    d2 = np.linalg.norm(rx - panel.element_positions, axis=1)
    if np.any(d2 <= 0.0):
        raise ZeroDistance("tx or rx coincides with a panel element")
    pl2 = _path_loss_db_vec(d2, freq_ghz, params)
    seg_amp = 10.0 ** (-(pl1 + pl2) / 20.0)
    path_phase = 2.0 * math.pi * (d1 + d2) / wavelength
    if config is None:
        state_amp, state_phase = panel.state_amps, panel.state_phases
        seg_amp = seg_amp[:, None]
        path_phase = path_phase[:, None]
    else:
        state_amp, state_phase = panel.state_amps[config], panel.state_phases[config]
    return state_amp * seg_amp * np.exp(1j * (state_phase - path_phase))


def direct_term(tx, rx, freq_ghz, params: ChannelParams, obstacles) -> complex:
    """Complex gain of the direct tx -> rx path; a blocked path contributes
    nothing unless params.scatter_floor_db sets a residual attenuation."""
    blocked = los_blocked(tx, rx, obstacles)
    if blocked and params.scatter_floor_db is None:
        return 0.0
    d = float(np.linalg.norm(rx - tx))
    if d <= 0.0:
        raise ZeroDistance("tx and rx positions coincide")
    pl = path_loss(tx, rx, freq_ghz, params)
    if blocked:
        pl += params.scatter_floor_db
    wavelength = SPEED_OF_LIGHT / (freq_ghz * 1e9)
    amp = 10.0 ** (-pl / 20.0)
    return amp * np.exp(-2j * math.pi * d / wavelength)


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _path_loss_db_vec(d: np.ndarray, freq_ghz: float, params: ChannelParams) -> np.ndarray:
    d = np.maximum(d, params.d0_m)
    pl0 = free_space_pl_db(params.d0_m, freq_ghz)
    return pl0 + 10.0 * params.exponent * np.log10(d / params.d0_m)


def received_power_dbm(tx_power_dbm: float, gain: ComplexGain) -> float:
    if gain.amplitude <= 0.0:
        return -math.inf
    return tx_power_dbm + 20.0 * math.log10(gain.amplitude)


def throughput(snr: float, mcs_table=DEFAULT_MCS) -> float:
    """Staircase rate lookup; below the table floor the link carries nothing."""
    rate = 0.0
    prev = -math.inf
    for min_snr, mbps in mcs_table:
        if min_snr < prev:
            raise ValueError("MCS table must be sorted by min SNR")
        prev = min_snr
        if snr >= min_snr:
            rate = mbps
        else:
            break
    return rate


class McsStaircase:
    """`throughput` for many SNRs at once. The table is checked once; each
    lookup is then one searchsorted over its thresholds. SNRs must not be NaN."""

    def __init__(self, mcs_table=DEFAULT_MCS) -> None:
        self.min_snr = np.array([row[0] for row in mcs_table], float)
        if np.any(self.min_snr[1:] < self.min_snr[:-1]):
            raise ValueError("MCS table must be sorted by min SNR")
        self.rates = np.array([0.0] + [row[1] for row in mcs_table], float)

    def rates_at(self, snr: np.ndarray) -> np.ndarray:
        return self.rates[np.searchsorted(self.min_snr, snr, side="right")]
