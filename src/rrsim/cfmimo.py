"""Cell-free MIMO service model: user-centric AP clustering, maximum-ratio
downlink SINR and per-UE delivered throughput under load."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import AbstractSet, Sequence

import numpy as np

from .channel import DEFAULT_MCS, throughput

DEFAULT_REALIZATIONS = 50


class CfMimoError(Exception):
    pass


class NoActiveAps(CfMimoError):
    pass


class DimensionMismatch(CfMimoError):
    pass


@dataclass(frozen=True)
class ClusterAssignment:
    """UE id -> serving AP ids, ordered by descending large-scale gain."""

    serving: dict[str, tuple[str, ...]]

    def aps_for(self, ue_id: str) -> tuple[str, ...]:
        return self.serving.get(ue_id, ())


def top_l_clusters(
    ap_ids: Sequence[str], ue_ids: Sequence[str], gains_db: np.ndarray, max_aps: int
) -> ClusterAssignment:
    """Top-L AP selection per UE by large-scale gain, for all UEs in one sort;
    ties to the lower AP id.

    gains_db is (n_aps, n_ues): its rows follow ap_ids, which must be sorted,
    and its columns ue_ids. The sort is stable, so tied rows keep id order.
    """
    if max_aps < 1:
        raise ValueError("max_aps must be >= 1")
    rows = np.argsort(-gains_db, axis=0, kind="stable")[:max_aps]
    names = np.array(ap_ids, dtype=object)[rows]
    return ClusterAssignment(dict(zip(ue_ids, map(tuple, names.T.tolist()))))


def cluster(
    large_scale_gains_db: dict[str, dict[str, float]],
    max_aps: int,
    active_aps: AbstractSet[str] | None = None,
) -> ClusterAssignment:
    """`top_l_clusters` over gains given per UE.

    large_scale_gains_db maps ue_id -> {ap_id: gain dB}. Each UE may have
    its own APs, so each is one column of its active APs. APs may serve any
    number of UEs.
    """
    serving: dict[str, tuple[str, ...]] = {}
    for ue_id, gains in large_scale_gains_db.items():
        ap_ids = sorted(ap_id for ap_id in gains if active_aps is None or ap_id in active_aps)
        if not ap_ids:
            raise NoActiveAps(f"no active AP reaches UE {ue_id}")
        column = np.array([[gains[ap_id]] for ap_id in ap_ids], float)
        serving.update(top_l_clusters(ap_ids, (ue_id,), column, max_aps).serving)
    return ClusterAssignment(serving)


def fading_realization(
    rng: np.random.Generator,
    large_scale_amplitude: np.ndarray,
) -> np.ndarray:
    """One coherence block of complex Rayleigh fading scaled by the large-scale
    channel amplitude; shape (n_aps, n_ues)."""
    shape = large_scale_amplitude.shape
    fast = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / math.sqrt(2.0)
    return large_scale_amplitude * fast


def sinr(
    assignment: ClusterAssignment,
    fading: np.ndarray,
    ap_ids: list[str],
    ue_ids: list[str],
    ap_power_w: dict[str, float],
    noise_power_w: float,
) -> dict[str, float]:
    """Per-UE downlink SINR (linear) under maximum-ratio precoding.

    Each AP splits its power equally across the UEs it serves. fading is the
    (n_aps, n_ues) complex channel matrix for one coherence block.
    """
    n_aps, n_ues = len(ap_ids), len(ue_ids)
    if fading.shape != (n_aps, n_ues):
        raise DimensionMismatch(f"fading shape {fading.shape} != ({n_aps}, {n_ues})")
    ap_index = {ap: i for i, ap in enumerate(ap_ids)}
    ue_index = {ue: j for j, ue in enumerate(ue_ids)}

    served_count = {ap: 0 for ap in ap_ids}
    for ue in ue_ids:
        for ap in assignment.aps_for(ue):
            served_count[ap] += 1

    def power_share(ap: str) -> float:
        count = served_count[ap]
        return ap_power_w[ap] / count if count else 0.0

    result: dict[str, float] = {}
    for ue_k in ue_ids:
        k = ue_index[ue_k]
        cluster_k = assignment.aps_for(ue_k)
        if not cluster_k:
            result[ue_k] = 0.0
            continue
        signal = sum(
            math.sqrt(power_share(ap)) * abs(fading[ap_index[ap], k]) for ap in cluster_k
        )
        numerator = signal**2
        interference = 0.0
        for ue_i in ue_ids:
            if ue_i == ue_k:
                continue
            term = 0j
            for ap in assignment.aps_for(ue_i):
                m = ap_index[ap]
                h_mi = fading[m, ue_index[ue_i]]
                if abs(h_mi) == 0.0:
                    continue
                term += math.sqrt(power_share(ap)) * np.conj(h_mi) * fading[m, k] / abs(h_mi)
            interference += abs(term) ** 2
        result[ue_k] = numerator / (interference + noise_power_w)
    return result


def serve(
    assignment: ClusterAssignment,
    sinr_linear: dict[str, float],
    offered_mbps: dict[str, float],
    mcs_table=DEFAULT_MCS,
) -> dict[str, float]:
    """Delivered rate per UE: MCS capacity divided by scheduler contention at
    the UE's bottleneck AP, capped by the offered load."""
    served_count: dict[str, int] = {}
    for ue, aps in assignment.serving.items():
        for ap in aps:
            served_count[ap] = served_count.get(ap, 0) + 1

    delivered: dict[str, float] = {}
    for ue, offered in offered_mbps.items():
        if offered < 0:
            raise ValueError(f"offered load for {ue} must be non-negative")
        s = sinr_linear.get(ue, 0.0)
        if s <= 0.0:
            delivered[ue] = 0.0
            continue
        capacity = throughput(10.0 * math.log10(s), mcs_table)
        aps = assignment.aps_for(ue)
        contention = max((served_count[ap] for ap in aps), default=1)
        delivered[ue] = min(offered, capacity / max(contention, 1))
    return delivered


def average_sinr(
    assignment: ClusterAssignment,
    large_scale_amplitude: np.ndarray,
    ap_ids: list[str],
    ue_ids: list[str],
    ap_power_w: dict[str, float],
    noise_power_w: float,
    rng: np.random.Generator,
    realizations: int = DEFAULT_REALIZATIONS,
) -> dict[str, float]:
    """Monte Carlo mean SINR over seeded coherence blocks, reduced in a fixed
    order for determinism."""
    totals = {ue: 0.0 for ue in ue_ids}
    for _ in range(realizations):
        fading = fading_realization(rng, large_scale_amplitude)
        block = sinr(assignment, fading, ap_ids, ue_ids, ap_power_w, noise_power_w)
        for ue in ue_ids:
            totals[ue] += block[ue]
    return {ue: totals[ue] / realizations for ue in ue_ids}
