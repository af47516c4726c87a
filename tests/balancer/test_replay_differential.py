"""The §4 replays against their per-period / per-IO numpy oracles.

``simulate_rebinding`` walks only the periods that carry IOs over a
permutation of static WT groups, ``_join_shortest_queue`` is a scalar
loop and ``wt_swap_decision`` a scalar scan; the oracles in
``tests.oracles.balancer`` are the numpy formulations they replaced.
Every outcome must compare ``==`` — the replays feed pinned digests, so
close is not enough.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.balance.policies import wt_swap_decision
from repro.balancer import (
    DispatchPolicy,
    RebindingConfig,
    hottest_wt_series,
    simulate_dispatch,
    simulate_rebinding,
)
from repro.balancer.dispatch import _join_shortest_queue
from repro.cluster import EBSSimulator, SimulationConfig
from repro.util.rng import RngFactory
from tests.oracles import balancer as oracle
from tests.strategies import node_replays, rng_for


@pytest.fixture(scope="module")
def sim(small_fleet):
    config = SimulationConfig(
        duration_seconds=120, trace_sampling_rate=1.0 / 5.0
    )
    return EBSSimulator(small_fleet, config, RngFactory(11)).run()


def _series_equal(left, right) -> bool:
    (series_a, p2a_a), (series_b, p2a_b) = left, right
    return (
        series_a.dtype == series_b.dtype
        and np.array_equal(series_a, series_b)
        and p2a_a == p2a_b
    )


def assert_replays_match(traces, node, config) -> None:
    assert simulate_rebinding(traces, node, config) == (
        oracle.simulate_rebinding(traces, node, config)
    )
    assert _series_equal(
        hottest_wt_series(traces, node, config.period_seconds),
        oracle.hottest_wt_series(traces, node, config.period_seconds),
    )
    for policy in DispatchPolicy:
        assert simulate_dispatch(traces, node, policy) == (
            oracle.simulate_dispatch(traces, node, policy)
        )


def assert_jsq_matches(traces, node_id) -> None:
    node_traces = traces.where(traces.compute_node_id == node_id)
    if len(node_traces) == 0:
        return
    order = np.argsort(node_traces.timestamp, kind="stable")
    timestamps = node_traces.timestamp[order]
    sizes = node_traces.size_bytes[order].astype(float)
    for num_wts in (1, 2, 4, 7):
        assert np.array_equal(
            _join_shortest_queue(timestamps, sizes, num_wts),
            oracle.join_shortest_queue(timestamps, sizes, num_wts),
        )


class TestRandomNodes:
    @settings(max_examples=120, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_replays_match_oracles(self, seed):
        traces, node, config = node_replays(rng_for(seed))
        assert_replays_match(traces, node, config)
        assert_jsq_matches(traces, node.node_id)


@pytest.mark.parametrize(
    "case, shape",
    [
        ("empty periods", dict(span_periods=400.0)),
        ("one period", dict(span_periods=0.9)),
        ("idle WTs", dict(num_wts=5, num_qps=2)),
        ("fewer QPs than WTs", dict(num_wts=4, num_qps=3)),
        ("single QP", dict(num_qps=1)),
        ("single WT", dict(num_wts=1)),
        ("zero-size IOs", dict(sizes="zero")),
        ("argmax/argmin ties", dict(num_wts=4, num_qps=8, sizes="ties")),
    ],
)
@pytest.mark.parametrize("seed", range(6))
def test_edge_shapes_match_oracles(case, shape, seed):
    traces, node, config = node_replays(rng_for(seed), **shape)
    assert_replays_match(traces, node, config)
    assert_jsq_matches(traces, node.node_id)


@pytest.mark.parametrize("period", [0.002, 0.01, 0.1, 1.0])
@pytest.mark.parametrize("trigger", [1.05, 1.2, 3.0])
def test_configs_match_oracle_on_one_node(sim, period, trigger):
    config = RebindingConfig(period_seconds=period, trigger_ratio=trigger)
    hypervisor = sim.hypervisors.node(1)
    assert simulate_rebinding(sim.traces, hypervisor, config) == (
        oracle.simulate_rebinding(sim.traces, hypervisor, config)
    )


def test_every_fleet_node_matches_oracles(sim):
    config = RebindingConfig()
    for hypervisor in sim.hypervisors:
        assert_replays_match(sim.traces, hypervisor, config)
        assert_jsq_matches(sim.traces, hypervisor.node_id)


def test_fine_periods_stay_bounded_by_io_count(sim):
    # 10 us periods over 120 s are 12M periods: a QP x period matrix
    # would take ~100 MB per QP, while the active-period replay holds a
    # few arrays the size of the node's IO count.
    config = RebindingConfig(period_seconds=1e-5)
    hypervisor = min(
        (hv for hv in sim.hypervisors if len(sim.traces.for_node(hv.node_id))),
        key=lambda hv: len(sim.traces.for_node(hv.node_id)),
    )
    num_ios = len(sim.traces.for_node(hypervisor.node_id))
    tracemalloc.start()
    try:
        outcome = simulate_rebinding(sim.traces, hypervisor, config)
        __, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert outcome is not None
    assert 0.0 < outcome.rebinding_ratio < 1.0
    assert peak < 1024 * num_ios + (1 << 20)


class TestSwapRule:
    @settings(max_examples=300, deadline=None)
    @given(
        loads=st.lists(
            st.one_of(
                st.integers(0, 3).map(float),
                st.floats(0.0, 1e6, allow_nan=False),
            ),
            max_size=8,
        ),
        trigger=st.sampled_from([1.0000001, 1.2, 2.0, 1e12]),
    )
    def test_matches_numpy_formulation(self, loads, trigger):
        expected = oracle.wt_swap_decision(np.array(loads), trigger)
        assert wt_swap_decision(loads, trigger) == expected
        assert wt_swap_decision(np.array(loads), trigger) == expected

    def test_first_index_ties(self):
        assert wt_swap_decision([4.0, 1.0, 4.0, 1.0], 1.2) == (0, 1)
        assert wt_swap_decision([1.0, 1.0, 1.0], 1.2) is None
