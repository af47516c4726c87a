"""Per-period and per-IO numpy replays of the §4 balancers.

These are the original :mod:`repro.balancer` implementations: the
rebinding replay visits every period and bins per QP, the JSQ replay
updates a numpy backlog vector per IO, and the swap rule is three numpy
reductions.  The package's versions must return outcomes that compare
``==`` to these.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.balancer.dispatch import (
    DispatchConfig,
    DispatchOutcome,
    DispatchPolicy,
)
from repro.balancer.wt import RebindingConfig, RebindingOutcome
from repro.stats.skewness import normalized_cov, p2a
from repro.trace.dataset import TraceDataset
from repro.util.errors import ConfigError


def wt_swap_decision(
    loads: np.ndarray, trigger_ratio: float
) -> "Optional[Tuple[int, int]]":
    """The §4.3 trigger as numpy reductions: ``(hot, cold)`` or None."""
    loads = np.asarray(loads, dtype=float)
    if loads.size == 0 or loads.sum() == 0:
        return None
    hot = int(np.argmax(loads))
    cold = int(np.argmin(loads))
    if loads[hot] > trigger_ratio * loads[cold]:
        return hot, cold
    return None


def _qp_period_matrix(
    traces: TraceDataset, qp_ids: List[int], period_seconds: float
) -> "tuple[np.ndarray, np.ndarray]":
    """(QP x period traffic matrix, qp index array) for one node's traces."""
    qp_index = {qp: i for i, qp in enumerate(qp_ids)}
    num_periods = (
        int(np.floor(traces.timestamp.max() / period_seconds)) + 1
        if len(traces)
        else 1
    )
    matrix = np.zeros((len(qp_ids), num_periods))
    periods = np.floor(traces.timestamp / period_seconds).astype(np.int64)
    rows = np.array([qp_index[int(qp)] for qp in traces.qp_id])
    np.add.at(matrix, (rows, periods), traces.size_bytes.astype(float))
    return matrix, periods


def simulate_rebinding(
    traces: TraceDataset,
    hypervisor,
    config: RebindingConfig = RebindingConfig(),
) -> Optional[RebindingOutcome]:
    """Replay every period, re-binding individual QPs on each swap."""
    node_traces = traces.where(
        traces.compute_node_id == hypervisor.node_id
    )
    if len(node_traces) == 0:
        return None
    qp_ids = hypervisor.qp_ids
    matrix, __ = _qp_period_matrix(node_traces, qp_ids, config.period_seconds)
    num_periods = matrix.shape[1]
    workers = hypervisor.worker_ids
    wt_index = {wt: i for i, wt in enumerate(workers)}

    # binding[q] = worker index currently hosting QP q.
    binding = np.array(
        [wt_index[hypervisor.wt_of(qp)] for qp in qp_ids], dtype=np.int64
    )
    static_binding = binding.copy()
    num_wts = len(workers)

    static_totals = np.zeros(num_wts)
    dynamic_totals = np.zeros(num_wts)
    swaps = 0
    for period in range(num_periods):
        loads = np.zeros(num_wts)
        np.add.at(loads, binding, matrix[:, period])
        dynamic_totals += loads
        static_loads = np.zeros(num_wts)
        np.add.at(static_loads, static_binding, matrix[:, period])
        static_totals += static_loads
        decision = wt_swap_decision(loads, config.trigger_ratio)
        if decision is not None:
            hot, cold = decision
            swaps += 1
            hot_qps = binding == hot
            cold_qps = binding == cold
            binding[hot_qps] = cold
            binding[cold_qps] = hot

    cov_before = normalized_cov(static_totals) if static_totals.sum() else 0.0
    cov_after = normalized_cov(dynamic_totals) if dynamic_totals.sum() else 0.0
    if cov_before == 0.0:
        gain = 1.0
    else:
        gain = cov_after / cov_before
    return RebindingOutcome(
        node_id=hypervisor.node_id,
        rebinding_ratio=swaps / num_periods if num_periods else 0.0,
        rebinding_gain=gain,
        cov_before=cov_before,
        cov_after=cov_after,
    )


def hottest_wt_series(
    traces: TraceDataset,
    hypervisor,
    period_seconds: float = 0.010,
) -> "tuple[np.ndarray, float]":
    """The hottest WT's series, summed from the QP x period matrix."""
    if period_seconds <= 0:
        raise ConfigError("period_seconds must be positive")
    node_traces = traces.where(
        traces.compute_node_id == hypervisor.node_id
    )
    if len(node_traces) == 0:
        return np.zeros(1), 0.0
    qp_ids = hypervisor.qp_ids
    matrix, __ = _qp_period_matrix(node_traces, qp_ids, period_seconds)
    workers = hypervisor.worker_ids
    wt_index = {wt: i for i, wt in enumerate(workers)}
    wt_series = np.zeros((len(workers), matrix.shape[1]))
    for row, qp in enumerate(qp_ids):
        wt_series[wt_index[hypervisor.wt_of(qp)]] += matrix[row]
    hottest = int(np.argmax(wt_series.sum(axis=1)))
    series = wt_series[hottest]
    return series, p2a(series) if series.sum() else 0.0


def join_shortest_queue(
    timestamps: np.ndarray, sizes: np.ndarray, num_wts: int
) -> np.ndarray:
    """JSQ with a numpy backlog vector updated once per IO."""
    duration = max(float(timestamps[-1] - timestamps[0]), 1e-9)
    drain_rate = sizes.sum() / duration / num_wts  # bytes/s per WT
    backlog = np.zeros(num_wts)
    last_time = float(timestamps[0])
    assigned = np.empty(timestamps.size, dtype=np.int64)
    for index in range(timestamps.size):
        now = float(timestamps[index])
        backlog = np.maximum(backlog - drain_rate * (now - last_time), 0.0)
        last_time = now
        target = int(np.argmin(backlog))
        assigned[index] = target
        backlog[target] += sizes[index]
    return assigned


def simulate_dispatch(
    traces: TraceDataset,
    hypervisor,
    policy: DispatchPolicy,
    config: DispatchConfig = DispatchConfig(),
) -> Optional[DispatchOutcome]:
    """Dispatch replay with a per-IO home lookup and the numpy JSQ."""
    node_traces = traces.where(traces.compute_node_id == hypervisor.node_id)
    n = len(node_traces)
    if n == 0:
        return None
    order = np.argsort(node_traces.timestamp, kind="stable")
    timestamps = node_traces.timestamp[order]
    sizes = node_traces.size_bytes[order].astype(float)
    qp_ids = node_traces.qp_id[order]

    workers = hypervisor.worker_ids
    num_wts = len(workers)
    wt_index = {wt: i for i, wt in enumerate(workers)}
    home = np.array(
        [wt_index[hypervisor.wt_of(int(qp))] for qp in qp_ids],
        dtype=np.int64,
    )

    if policy is DispatchPolicy.HASH_QP:
        assigned = home
    elif policy is DispatchPolicy.ROUND_ROBIN:
        assigned = np.arange(n, dtype=np.int64) % num_wts
    elif policy is DispatchPolicy.JOIN_SHORTEST_QUEUE:
        assigned = join_shortest_queue(timestamps, sizes, num_wts)
    else:  # pragma: no cover - exhaustive enum
        raise ConfigError(f"unknown policy {policy}")

    dispatched = assigned != home
    windows = np.floor(timestamps / config.window_seconds).astype(np.int64)
    num_windows = int(windows.max()) + 1
    grid = np.zeros((num_windows, num_wts))
    np.add.at(grid, (windows, assigned), sizes)
    active = grid.sum(axis=1) > 0
    window_covs = [normalized_cov(row) for row in grid[active]]
    totals = grid.sum(axis=0)

    return DispatchOutcome(
        node_id=hypervisor.node_id,
        policy=policy,
        mean_window_cov=float(np.mean(window_covs)) if window_covs else 0.0,
        total_cov=normalized_cov(totals) if totals.sum() > 0 else 0.0,
        dispatched_fraction=float(dispatched.mean()),
        added_cost_us_per_io=float(dispatched.mean() * config.sync_cost_us),
    )
