"""Shared fixed-trigger decision primitives (§4.3 and §6, Algorithm 1).

These are the two decisions the paper's production balancers make, pulled
out of :mod:`repro.balancer.wt` and :mod:`repro.balancer.interbs` so the
period-replay balancers and the snapshot planner in
:mod:`repro.balance.trigger` provably apply the *same* rules; the live
policy engine (:mod:`repro.live.policy`) applies the WT rule to per-node
loads through the same function.  Both reproduce their callers'
historical outputs exactly: the shed selection runs the original numpy
ops in the original order, and the swap rule picks the indices
``np.argmax``/``np.argmin`` pick.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np


def wt_swap_decision(
    loads: "Sequence[float] | np.ndarray", trigger_ratio: float
) -> "Optional[Tuple[int, int]]":
    """The §4.3 trigger: ``(hot, cold)`` WT indices to swap, or None.

    A swap fires when the hottest WT carries more than ``trigger_ratio``
    times the coldest WT's traffic.  An idle coldest WT makes any hot
    traffic exceed the trigger (hottest > ratio x 0), matching the
    production condition; an all-idle or perfectly even load vector
    never fires.

    ``loads`` must be non-negative.  Hot and cold are the first indices
    of the maximum and minimum, as ``np.argmax``/``np.argmin`` pick them.
    The vectors are a handful of WTs or nodes long and the rebinding
    replay calls this once per active period, so it works on Python
    floats rather than through three numpy reductions.
    """
    if isinstance(loads, np.ndarray):
        loads = loads.tolist()
    if not len(loads):
        return None
    hot_load = max(loads)
    # With non-negative loads the maximum is zero only when all are.
    if hot_load == 0:
        return None
    cold_load = min(loads)
    if hot_load > trigger_ratio * cold_load:
        return loads.index(hot_load), loads.index(cold_load)
    return None


def choose_shed_segments(
    segment_ids: Sequence[int],
    traffic: np.ndarray,
    shed_target: float,
    ceiling: float,
    max_segments: int,
) -> List[int]:
    """Algorithm 1's shed selection: hottest admissible segments first.

    Walks the exporter's segments hottest-first, skipping any hotter than
    ``ceiling`` (the §6.1.3 admission constraint — a segment hotter than
    a whole BS just moves the hotspot), until the shed traffic reaches
    ``shed_target`` or ``max_segments`` are chosen.  Zero-traffic
    segments are never shed.
    """
    segment_ids = np.asarray(segment_ids, dtype=np.int64)
    order = np.argsort(traffic)[::-1]
    chosen: List[int] = []
    shed = 0.0
    for index in order:
        if traffic[index] <= 0:
            break
        if traffic[index] > ceiling:
            continue
        chosen.append(int(segment_ids[index]))
        shed += float(traffic[index])
        if shed >= shed_target or len(chosen) >= max_segments:
            break
    return chosen
