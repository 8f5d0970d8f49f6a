"""Cell-free MIMO: user-centric AP clustering, the top-L APs of each UE by
large-scale gain."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np


@dataclass(frozen=True)
class ClusterAssignment:
    """UE id -> serving AP ids, ordered by descending large-scale gain."""

    serving: dict[str, tuple[str, ...]]


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
