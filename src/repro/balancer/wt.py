"""Hypervisor load-balancing analyses (§4).

All functions consume the simulator's datasets:

- the *metric* dataset (per QP-second aggregates) drives the WT-CoV
  distributions of Fig 2(a), the VM-VD-QP CoV decomposition of Fig 2(b),
  the hottest-QP shares of Fig 2(c), and the Type I/II/III classification;
- the *trace* dataset (per-IO, sub-second timestamps) drives the 10 ms
  rebinding simulation of Fig 2(d) and the hottest-WT burst series of
  Fig 2(e)/(f).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from repro.balance.policies import wt_swap_decision
from repro.cluster.hypervisor import Hypervisor
from repro.stats.skewness import normalized_cov, p2a, top_share
from repro.trace.dataset import ComputeMetricTable, TraceDataset
from repro.util.errors import ConfigError
from repro.workload.fleet import Fleet


def _direction_column(table: ComputeMetricTable, direction: str) -> np.ndarray:
    if direction == "read":
        return table.read_bytes
    if direction == "write":
        return table.write_bytes
    if direction == "total":
        return table.read_bytes + table.write_bytes
    raise ConfigError(
        f"direction must be 'read', 'write' or 'total', got {direction!r}"
    )


def _totals_by_key(keys: np.ndarray, values: np.ndarray) -> Dict[int, float]:
    """Per-key sums of ``values``, keys in first-appearance order.

    Each sum adds its rows left to right, so the floats (and any later
    reduction over the dict's values, which depends on key order) are
    reproducible exactly.
    """
    totals: Dict[int, float] = {}
    for key, value in zip(keys.tolist(), values.tolist()):
        totals[key] = totals.get(key, 0.0) + value
    return totals


# ---------------------------------------------------------------------------
# Fig 2(a): WT-CoV at multiple time scales
# ---------------------------------------------------------------------------

def wt_cov_samples(
    table: ComputeMetricTable,
    fleet: Fleet,
    window_seconds: int,
    direction: str,
    sample_fraction: float = 1.0,
    rng: "np.random.Generator | None" = None,
) -> List[float]:
    """Normalized WT-CoV per (node, window) sample.

    For every compute node and every time window, traffic is summed per
    worker thread (idle WTs count as zeros — they are what makes Type I
    skewness visible) and the normalized CoV across the node's WTs is one
    sample.  Windows with no traffic at all are skipped.  Set
    ``sample_fraction`` < 1 to subsample windows like the paper's 10%
    draw at the 1-minute scale.
    """
    if window_seconds <= 0:
        raise ConfigError("window_seconds must be positive")
    if not 0.0 < sample_fraction <= 1.0:
        raise ConfigError("sample_fraction must be in (0, 1]")
    values = _direction_column(table, direction)
    windows = table.timestamp // window_seconds
    num_windows = int(windows.max()) + 1 if len(table) else 0
    per_node = fleet.config.workers_per_node

    covs: List[float] = []
    for node_id in range(fleet.config.num_compute_nodes):
        node_mask = table.compute_node_id == node_id
        if not node_mask.any():
            continue
        wt_local = table.wt_id[node_mask] - node_id * per_node
        win = windows[node_mask]
        vals = values[node_mask]
        grid = np.zeros((num_windows, per_node))
        np.add.at(grid, (win, wt_local), vals)
        active = grid.sum(axis=1) > 0
        indices = np.nonzero(active)[0]
        if sample_fraction < 1.0 and indices.size:
            if rng is None:
                rng = np.random.default_rng(0)
            keep = max(1, int(round(sample_fraction * indices.size)))
            indices = rng.choice(indices, size=keep, replace=False)
        for index in indices:
            covs.append(normalized_cov(grid[index]))
    return covs


# ---------------------------------------------------------------------------
# Fig 2(b): the VM-VD-QP decomposition on the hottest VM of each node
# ---------------------------------------------------------------------------

def vm_vd_qp_covs(
    table: ComputeMetricTable, fleet: Fleet, direction: str
) -> Dict[str, List[float]]:
    """CoV_vm2qp, CoV_vm2vd and CoV_vd2qp for each node's hottest VM.

    Returns ``{"vm2qp": [...], "vm2vd": [...], "vd2qp": [...]}`` with one
    entry per compute node that carried traffic in ``direction``.
    CoV_vd2qp is measured on the hottest VD of the hottest VM.
    """
    values = _direction_column(table, direction)
    out: Dict[str, List[float]] = {"vm2qp": [], "vm2vd": [], "vd2qp": []}
    for node_id in range(fleet.config.num_compute_nodes):
        node_mask = table.compute_node_id == node_id
        if not values[node_mask].sum() > 0:
            continue
        vm_totals = _totals_by_key(table.vm_id[node_mask], values[node_mask])
        hottest_vm = max(vm_totals, key=vm_totals.get)

        vm_mask = node_mask & (table.vm_id == hottest_vm)
        # vm2qp: traffic split over all QPs of the hottest VM.
        qp_totals = _totals_by_key(table.qp_id[vm_mask], values[vm_mask])
        vm_vds = fleet.vds_of_vm(hottest_vm)
        all_qps = [qp_id for vd in vm_vds for qp_id in vd.qp_ids]
        qp_vector = [qp_totals.get(qp, 0.0) for qp in all_qps]
        if len(qp_vector) > 1:
            out["vm2qp"].append(normalized_cov(qp_vector))

        # vm2vd: split over all VDs of the hottest VM (idle VDs count).
        vd_totals = _totals_by_key(table.vd_id[vm_mask], values[vm_mask])
        vd_vector = [vd_totals.get(vd.vd_id, 0.0) for vd in vm_vds]
        if len(vd_vector) > 1:
            out["vm2vd"].append(normalized_cov(vd_vector))

        # vd2qp: split over the QPs of the hottest VD.
        if vd_totals:
            hottest_vd = max(vd_totals, key=vd_totals.get)
            vd_info = fleet.vds[hottest_vd]
            vd_qp_vector = [
                qp_totals.get(qp, 0.0) for qp in vd_info.qp_ids
            ]
            if len(vd_qp_vector) > 1:
                out["vd2qp"].append(normalized_cov(vd_qp_vector))
    return out


# ---------------------------------------------------------------------------
# Fig 2(c): hottest-QP traffic share per node
# ---------------------------------------------------------------------------

def hottest_qp_shares(
    table: ComputeMetricTable, fleet: Fleet, direction: str
) -> List[float]:
    """The traffic share of the hottest QP within each compute node."""
    values = _direction_column(table, direction)
    shares: List[float] = []
    for node_id in range(fleet.config.num_compute_nodes):
        node_mask = table.compute_node_id == node_id
        if not values[node_mask].sum() > 0:
            continue
        qp_totals = _totals_by_key(table.qp_id[node_mask], values[node_mask])
        shares.append(top_share(list(qp_totals.values())))
    return shares


# ---------------------------------------------------------------------------
# Type I/II/III classification (§4.2)
# ---------------------------------------------------------------------------

class NodeType(enum.Enum):
    """Root-cause category of a compute node's WT skewness."""

    IDLE_WTS = "Type I"           # fewer QPs than WTs -> idle workers
    SINGLE_QP_HOTSPOT = "Type II"  # hottest VM has exactly one QP
    MULTI_QP_HOTSPOT = "Type III"  # hottest VM has several, skewed QPs


def classify_node(
    table: ComputeMetricTable, fleet: Fleet, node_id: int
) -> Optional[NodeType]:
    """Classify one node; None if the node carried no traffic."""
    per_node = fleet.config.workers_per_node
    node_qps = [
        qp for qp in fleet.queue_pairs if qp.compute_node_id == node_id
    ]
    if len(node_qps) < per_node:
        return NodeType.IDLE_WTS
    node_mask = table.compute_node_id == node_id
    totals = table.read_bytes[node_mask] + table.write_bytes[node_mask]
    if not totals.sum() > 0:
        return None
    vm_totals = _totals_by_key(table.vm_id[node_mask], totals)
    hottest_vm = max(vm_totals, key=vm_totals.get)
    hottest_vm_qps = sum(
        vd.num_queue_pairs for vd in fleet.vds_of_vm(hottest_vm)
    )
    if hottest_vm_qps == 1:
        return NodeType.SINGLE_QP_HOTSPOT
    return NodeType.MULTI_QP_HOTSPOT


def classify_nodes(
    table: ComputeMetricTable, fleet: Fleet
) -> Dict[NodeType, float]:
    """Fraction of (traffic-carrying) nodes in each type."""
    counts: Dict[NodeType, int] = {t: 0 for t in NodeType}
    total = 0
    for node_id in range(fleet.config.num_compute_nodes):
        node_type = classify_node(table, fleet, node_id)
        if node_type is None:
            continue
        counts[node_type] += 1
        total += 1
    if total == 0:
        return {t: 0.0 for t in NodeType}
    return {t: counts[t] / total for t in NodeType}


# ---------------------------------------------------------------------------
# Fig 2(d)-(f): 10 ms rebinding simulation on the trace data
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RebindingConfig:
    """Parameters of the §4.3 rebinding simulation."""

    period_seconds: float = 0.010
    trigger_ratio: float = 1.2

    def __post_init__(self) -> None:
        if self.period_seconds <= 0:
            raise ConfigError("period_seconds must be positive")
        if self.trigger_ratio <= 1.0:
            raise ConfigError("trigger_ratio must exceed 1")


@dataclass(frozen=True)
class RebindingOutcome:
    """Result of simulating rebinding on one compute node."""

    node_id: int
    rebinding_ratio: float   # fraction of periods that triggered a swap
    rebinding_gain: float    # CoV after / CoV before (< 1 is better)
    cov_before: float
    cov_after: float

    @property
    def improved(self) -> bool:
        return self.rebinding_gain < 1.0


def _home_wts(qp_ids: np.ndarray, hypervisor: Hypervisor) -> np.ndarray:
    """Per IO, the index in ``worker_ids`` of the WT hosting its QP."""
    qps, rows = np.unique(qp_ids, return_inverse=True)
    wt_index = {wt: i for i, wt in enumerate(hypervisor.worker_ids)}
    return np.array(
        [wt_index[hypervisor.wt_of(int(qp))] for qp in qps], dtype=np.int64
    )[rows]


def _active_period_loads(
    node_traces: TraceDataset, hypervisor: Hypervisor, period_seconds: float
) -> "tuple[np.ndarray, np.ndarray, int]":
    """(active periods, active period x WT loads, period count).

    Each IO is binned by its period and by the WT statically hosting its
    QP; only periods that carry IOs get a row, in ascending order.  Sizes
    are integers, so every bin (and any later sum of bins) is exact
    regardless of summation order.
    """
    timestamps = node_traces.timestamp
    num_periods = int(np.floor(timestamps.max() / period_seconds)) + 1
    periods = np.floor(timestamps / period_seconds).astype(np.int64)
    active, rows = np.unique(periods, return_inverse=True)
    loads = np.zeros((active.size, len(hypervisor.worker_ids)))
    np.add.at(
        loads,
        (rows, _home_wts(node_traces.qp_id, hypervisor)),
        node_traces.size_bytes.astype(float),
    )
    return active, loads, num_periods


def simulate_rebinding(
    traces: TraceDataset,
    hypervisor: Hypervisor,
    config: RebindingConfig = RebindingConfig(),
) -> Optional[RebindingOutcome]:
    """Replay one node's traces through the periodic rebinding balancer.

    Every ``period_seconds``, if the hottest WT carries more than
    ``trigger_ratio`` times the coldest WT's traffic, the two WTs swap
    their QP sets (the FinNVMe/LPNS-style rebinding the paper evaluates).

    A swap exchanges whole QP sets, so the dynamic binding is always a
    permutation of the static per-WT groups: ``group_of[wt]`` names the
    static group WT ``wt`` hosts now, and a swap exchanges two entries.
    The replay bins the IOs once into (active period x static group)
    loads and visits only periods that carry IOs.  An idle period adds
    nothing and its all-zero load vector never fires, so skipping it is
    exact; the rebinding ratio still divides by every period.

    Returns None when the node has no traced IOs.  Note the paper's prose
    defines gain as before/after but reads "gain of 1%" as a large
    improvement; we use after/before so that < 1 consistently means the
    rebinding helped (the figure's semantics).
    """
    node_traces = traces.for_node(hypervisor.node_id)
    if len(node_traces) == 0:
        return None
    __, group_loads, num_periods = _active_period_loads(
        node_traces, hypervisor, config.period_seconds
    )
    num_wts = group_loads.shape[1]
    group_of = list(range(num_wts))
    dynamic = [0.0] * num_wts
    swaps = 0
    for row in group_loads.tolist():
        loads = [row[group] for group in group_of]
        for wt, load in enumerate(loads):
            dynamic[wt] += load
        decision = wt_swap_decision(loads, config.trigger_ratio)
        if decision is not None:
            hot, cold = decision
            swaps += 1
            group_of[hot], group_of[cold] = group_of[cold], group_of[hot]

    static_totals = group_loads.sum(axis=0)
    dynamic_totals = np.array(dynamic)
    cov_before = normalized_cov(static_totals) if static_totals.sum() else 0.0
    cov_after = normalized_cov(dynamic_totals) if dynamic_totals.sum() else 0.0
    if cov_before == 0.0:
        gain = 1.0
    else:
        gain = cov_after / cov_before
    return RebindingOutcome(
        node_id=hypervisor.node_id,
        rebinding_ratio=swaps / num_periods,
        rebinding_gain=gain,
        cov_before=cov_before,
        cov_after=cov_after,
    )


def hottest_wt_series(
    traces: TraceDataset,
    hypervisor: Hypervisor,
    period_seconds: float = 0.010,
) -> "tuple[np.ndarray, float]":
    """The hottest WT's traffic series at ``period_seconds`` and its P2A.

    This is Fig 2(e)/(f): the node whose hottest WT has the highest P2A is
    the "node-b" (bursty) exemplar; the lowest is "node-r".
    """
    if period_seconds <= 0:
        raise ConfigError("period_seconds must be positive")
    node_traces = traces.for_node(hypervisor.node_id)
    if len(node_traces) == 0:
        return np.zeros(1), 0.0
    active, loads, num_periods = _active_period_loads(
        node_traces, hypervisor, period_seconds
    )
    hottest = int(np.argmax(loads.sum(axis=0)))
    series = np.zeros(num_periods)
    series[active] = loads[:, hottest]
    return series, p2a(series) if series.sum() else 0.0
