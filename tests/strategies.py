"""Tiny in-repo generative strategies for property-based tests.

Not a hypothesis clone: a *strategy* here is a plain function from a
seeded :class:`numpy.random.Generator` to a value, and :func:`examples`
materializes a deterministic list of them for
``pytest.mark.parametrize``.  Every example is fully determined by the
``seed`` argument, so a failing case reproduces by its parametrize id
alone — no shrinking, no database, no new dependency.
"""

from __future__ import annotations

from typing import Callable, List, TypeVar

import numpy as np

from repro.faults.generate import PlanShape, random_fault_plan
from repro.faults.plan import (
    DEGRADE_COMPONENTS,
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)

T = TypeVar("T")

#: Domain-separation constant so strategy streams never collide with the
#: simulator's own seeded streams.
_STRATEGY_SALT = 0xFA017


def rng_for(seed: int) -> np.random.Generator:
    """The deterministic generator behind one strategy example."""
    return np.random.default_rng([_STRATEGY_SALT, seed])


def examples(
    strategy: Callable[[np.random.Generator], T],
    count: int,
    seed: int = 0,
) -> List[T]:
    """``count`` deterministic examples of one strategy.

    Example ``i`` depends only on ``(seed, i)``, never on ``count`` —
    growing the suite never changes existing cases.
    """
    return [strategy(rng_for(seed * 1_000_003 + i)) for i in range(count)]


# -- strategies --------------------------------------------------------------


def plan_shapes(rng: np.random.Generator) -> PlanShape:
    """A small but non-degenerate fleet shape."""
    return PlanShape(
        num_block_servers=int(rng.integers(2, 13)),
        num_storage_nodes=int(rng.integers(1, 5)),
        num_queue_pairs=int(rng.integers(2, 41)),
        duration_seconds=int(rng.integers(10, 241)),
    )


def fault_events(rng: np.random.Generator) -> FaultEvent:
    """One valid event of any kind over a bounded window."""
    duration = int(rng.integers(10, 241))
    start = int(rng.integers(0, duration))
    end = int(rng.integers(start + 1, duration + 1))
    kind = list(FaultKind)[int(rng.integers(0, len(FaultKind)))]
    if kind is FaultKind.DEGRADE:
        return FaultEvent(
            kind=kind,
            start_s=start,
            end_s=end,
            component=DEGRADE_COMPONENTS[
                int(rng.integers(0, len(DEGRADE_COMPONENTS)))
            ],
            multiplier=float(1.0 + 9.0 * rng.random()),
        )
    if kind is FaultKind.MIGRATION_BLACKOUT:
        return FaultEvent(kind=kind, start_s=start, end_s=end)
    return FaultEvent(
        kind=kind,
        start_s=start,
        end_s=end,
        target=int(rng.integers(0, 16)),
        dc=int(rng.integers(0, 3)) if rng.random() < 0.3 else None,
    )


def fault_plans(rng: np.random.Generator) -> FaultPlan:
    """A plan drawn against a random shape (the sweep generator)."""
    shape = plan_shapes(rng)
    return random_fault_plan(
        int(rng.integers(0, 2**31)),
        shape,
        policy=(
            RedirectPolicy.REDIRECT
            if rng.random() < 0.5
            else RedirectPolicy.QUEUE
        ),
        label="strategies",
    )


def fault_plans_with_shape(
    rng: np.random.Generator, shape: PlanShape
) -> FaultPlan:
    """A plan targeting one fixed fleet shape (for simulation properties)."""
    return random_fault_plan(
        int(rng.integers(0, 2**31)),
        shape,
        num_events=int(rng.integers(1, 9)),
        label="strategies-fixed",
    )


# -- balance strategies -------------------------------------------------------


def cluster_state_shapes(rng: np.random.Generator):
    """A small but non-degenerate cluster shape for the balance planner."""
    from repro.balance.generate import StateShape

    return StateShape(
        num_compute_nodes=int(rng.integers(2, 9)),
        workers_per_node=int(rng.integers(2, 5)),
        num_block_servers=int(rng.integers(2, 13)),
        num_vds=int(rng.integers(4, 33)),
        max_qps_per_vd=int(rng.integers(1, 5)),
        max_segments_per_vd=int(rng.integers(1, 9)),
    )


def cluster_states(rng: np.random.Generator):
    """A skewed :class:`ClusterState` drawn against a random shape."""
    from repro.balance.generate import random_cluster_state

    return random_cluster_state(
        int(rng.integers(0, 2**31)),
        cluster_state_shapes(rng),
        label="strategies",
    )


# -- streaming-engine strategies ---------------------------------------------


def offered_series(rng: np.random.Generator) -> np.ndarray:
    """A bursty non-negative offered-traffic series (units/s)."""
    length = int(rng.integers(8, 121))
    base = rng.gamma(shape=1.5, scale=100.0, size=length)
    # Occasional idle spells and hard bursts: the cases where bucket
    # backlog state actually carries across a chunk boundary.
    base[rng.random(length) < 0.2] = 0.0
    burst = rng.random(length) < 0.15
    base[burst] *= 25.0
    return base


def bucket_configs(rng: np.random.Generator):
    """A token-bucket config spanning tight to generous caps."""
    from repro.throttle.tokenbucket import TokenBucketConfig

    return TokenBucketConfig(
        rate_per_second=float(10.0 ** rng.uniform(0.5, 3.0)),
        burst_seconds=float(rng.uniform(0.0, 4.0)),
    )


def page_streams(rng: np.random.Generator) -> np.ndarray:
    """A skewed page-access stream (hot set + cold tail + scans)."""
    length = int(rng.integers(16, 400))
    hot = int(rng.integers(4, 64))
    universe = hot + int(rng.integers(16, 512))
    if rng.random() < 0.5:
        # Zipf-ish: most accesses hit the hot set.
        pages = np.where(
            rng.random(length) < 0.8,
            rng.integers(0, hot, size=length),
            rng.integers(0, universe, size=length),
        )
    else:
        # Sequential scan with jitter (defeats LRU, favors FIFO).
        pages = (np.arange(length) + rng.integers(0, 8, size=length)) % universe
    return pages.astype(np.int64)


def cut_points(rng: np.random.Generator, length: int) -> "List[int]":
    """Strictly increasing interior cut positions for a series of ``length``."""
    if length < 2:
        return []
    count = int(rng.integers(0, min(6, length - 1) + 1))
    if count == 0:
        return []
    cuts = rng.choice(np.arange(1, length), size=count, replace=False)
    return sorted(int(c) for c in cuts)


# -- balancer replay strategies ----------------------------------------------


class NodeBinding:
    """A hypervisor stand-in: one node's WTs and a fixed QP -> WT binding.

    It offers what the §4 replays read from a
    :class:`~repro.cluster.hypervisor.Hypervisor` (``node_id``,
    ``worker_ids``, ``qp_ids``, ``wt_of``) without needing a fleet, so
    a strategy can pick shapes no fleet builder produces: one QP, fewer
    QPs than WTs, WTs left idle by an uneven binding.
    """

    def __init__(self, node_id: int, worker_ids, binding) -> None:
        self.node_id = node_id
        self.worker_ids = list(worker_ids)
        self._binding = dict(binding)

    @property
    def qp_ids(self) -> "List[int]":
        return sorted(self._binding)

    def wt_of(self, qp_id: int) -> int:
        return self._binding[qp_id]


#: Period lengths (s) and trigger ratios the replay cases draw from.
REPLAY_PERIODS = (0.001, 0.01, 0.05, 0.25)
REPLAY_TRIGGERS = (1.01, 1.2, 2.0, 1e12)


def node_replays(
    rng: np.random.Generator,
    num_wts: "int | None" = None,
    num_qps: "int | None" = None,
    span_periods: "float | None" = None,
    sizes: "str | None" = None,
):
    """``(traces, node, RebindingConfig)`` for one node's replay.

    Every shape argument left as None is drawn.  ``span_periods`` is the
    trace length in periods (below 1 puts every IO in one period; large
    spans over few IOs leave most periods empty).  ``sizes`` is
    ``"ties"`` (sizes from {0, 1, 2, 4}, so per-period loads tie and
    often sum to zero), ``"blocks"`` (4 KiB multiples, some zero) or
    ``"zero"`` (every IO zero-sized).  The traces also carry IOs of a
    second node, on QPs this node does not host, which the replays must
    ignore.
    """
    from repro.balancer.wt import RebindingConfig
    from repro.trace.dataset import TraceDataset

    node_id = int(rng.integers(0, 4))
    if num_wts is None:
        num_wts = int(rng.integers(1, 6))
    if num_qps is None:
        num_qps = int(rng.integers(1, 3 * num_wts + 2))
    period = float(rng.choice(REPLAY_PERIODS))
    trigger = float(rng.choice(REPLAY_TRIGGERS))
    if span_periods is None:
        span_periods = float(rng.choice([0.9, 4.0, 40.0, 400.0]))
    if sizes is None:
        sizes = str(rng.choice(["ties", "blocks"]))

    worker_ids = [10 * node_id + 100 + index for index in range(num_wts)]
    qp_ids = sorted(
        int(qp) for qp in rng.choice(500, size=num_qps, replace=False)
    )
    if rng.random() < 0.5:
        hosts = [index % num_wts for index in range(num_qps)]
    else:
        hosts = rng.integers(0, num_wts, size=num_qps).tolist()
    node = NodeBinding(
        node_id,
        worker_ids,
        {qp: worker_ids[host] for qp, host in zip(qp_ids, hosts)},
    )

    count = int(rng.integers(1, 300))
    span = span_periods * period
    if rng.random() < 0.5:
        timestamps = rng.uniform(0.0, span, size=count)
    else:
        # Bursts: IOs cluster around a few instants, periods between
        # them stay empty.
        centres = rng.uniform(0.0, span, size=int(rng.integers(1, 6)))
        jitter = rng.uniform(0.0, 0.5 * period, size=count)
        timestamps = np.minimum(
            centres[rng.integers(0, centres.size, size=count)] + jitter,
            span,
        )
    if sizes == "ties":
        size_bytes = rng.choice([0, 1, 2, 4], size=count)
    elif sizes == "blocks":
        size_bytes = 4096 * rng.integers(0, 64, size=count)
    else:
        size_bytes = np.zeros(count, dtype=np.int64)
    io_qps = np.array(qp_ids)[rng.integers(0, num_qps, size=count)]

    # A second node's IOs, interleaved in dataset order.
    others = int(rng.integers(0, 40))
    own = np.ones(count + others, dtype=bool)
    own[rng.choice(count + others, size=others, replace=False)] = False
    rows = count + others
    timestamp = np.empty(rows)
    timestamp[own] = timestamps
    timestamp[~own] = rng.uniform(0.0, span, size=others)
    size_column = np.empty(rows, dtype=np.int64)
    size_column[own] = size_bytes
    size_column[~own] = 4096
    qp_column = np.empty(rows, dtype=np.int64)
    qp_column[own] = io_qps
    qp_column[~own] = 1000 + rng.integers(0, 8, size=others)
    node_column = np.where(own, node_id, node_id + 1)

    columns = {name: np.zeros(rows) for name in TraceDataset.INT_FIELDS}
    columns.update(
        {name: np.zeros(rows) for name in TraceDataset.FLOAT_FIELDS}
    )
    columns.update(
        timestamp=timestamp,
        size_bytes=size_column,
        qp_id=qp_column,
        compute_node_id=node_column,
    )
    traces = TraceDataset(**columns)
    return traces, node, RebindingConfig(
        period_seconds=period, trigger_ratio=trigger
    )
