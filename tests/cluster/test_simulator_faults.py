"""Differential tests: scalar vs vectorized simulation under fault plans.

The contract being pinned: for ANY fault plan, the vectorized pass-1 and
the per-VD trace pipeline produce datasets bit-identical to the scalar
reference — dtypes included — and identical for any worker count.  A
no-fault plan must reproduce the fault-free golden digest exactly.
"""

import hashlib

import numpy as np
import pytest

from repro.cluster.simulator import EBSSimulator, SimulationConfig
from repro.faults.generate import PlanShape, random_fault_plan
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet

from tests.cluster.test_simulator_fastpath import (
    GOLDEN_DIGEST,
    GOLDEN_FLEET,
    GOLDEN_SIM,
    _result_digest,
)
from tests.oracles.pass1 import ReferencePass1Simulator

#: The issue's acceptance bar: at least 25 seeded plans in the harness.
NUM_DIFFERENTIAL_PLANS = 25


def _build_fleet():
    return build_fleet(GOLDEN_FLEET, RngFactory(11))


def _shape() -> PlanShape:
    return PlanShape.of_fleet(_build_fleet(), GOLDEN_SIM.duration_seconds)


def _run(plan, reference: bool = False, workers: int = 1, seed: int = 11):
    rngs = RngFactory(seed)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    simulator_cls = ReferencePass1Simulator if reference else EBSSimulator
    simulator = simulator_cls(fleet, GOLDEN_SIM, rngs, fault_plan=plan)
    return simulator.run(workers=workers)


def _plan_for(seed: int) -> FaultPlan:
    policy = (
        RedirectPolicy.REDIRECT if seed % 2 == 0 else RedirectPolicy.QUEUE
    )
    return random_fault_plan(
        seed, _shape(), policy=policy, label="differential"
    )


class TestNoFaultIdentity:
    def test_empty_plan_reproduces_golden_digest(self):
        result = _run(FaultPlan())
        assert result.faults is None
        assert _result_digest(result) == GOLDEN_DIGEST

    def test_none_plan_reproduces_golden_digest(self):
        assert _result_digest(_run(None)) == GOLDEN_DIGEST

    def test_out_of_horizon_plan_reproduces_traces(self):
        """Events entirely past the horizon leave the datasets untouched."""
        t = GOLDEN_SIM.duration_seconds
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH,
                    start_s=t + 10,
                    end_s=t + 20,
                    target=0,
                ),
            )
        )
        result = _run(plan)
        assert result.faults is not None  # the plan is non-empty...
        assert _result_digest(result) == GOLDEN_DIGEST  # ...but inert


class TestDifferentialUnderFaults:
    @pytest.mark.parametrize("seed", range(NUM_DIFFERENTIAL_PLANS))
    def test_scalar_and_fast_paths_are_bit_identical(self, seed):
        plan = _plan_for(seed)
        slow = _run(plan, reference=True)
        fast = _run(plan)
        assert _result_digest(slow) == _result_digest(fast)

    @pytest.mark.parametrize("seed", range(NUM_DIFFERENTIAL_PLANS))
    def test_fault_accounting_matches_across_paths(self, seed):
        plan = _plan_for(seed)
        slow = _run(plan, reference=True)
        fast = _run(plan)
        if slow.faults is None:
            assert fast.faults is None
            return
        assert slow.faults.accounting == fast.faults.accounting
        assert slow.faults.trace_stats == fast.faults.trace_stats


class TestWorkerParityUnderFaults:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_workers_do_not_change_results(self, seed):
        plan = _plan_for(seed)
        sequential = _run(plan, workers=1)
        fanned = _run(plan, workers=2)
        assert _result_digest(sequential) == _result_digest(fanned)
        if sequential.faults is not None:
            assert (
                sequential.faults.trace_stats == fanned.faults.trace_stats
            )

    def test_seed_changes_results(self):
        plan = _plan_for(0)
        assert _result_digest(_run(plan, seed=11)) != (
            _result_digest(_run(plan, seed=12))
        )


class TestFaultEffectsAreReal:
    """Guard against the harness passing because faults are silently inert."""

    def test_some_differential_plan_changes_the_datasets(self):
        changed = 0
        for seed in range(6):
            plan = _plan_for(seed)
            if _result_digest(_run(plan)) != GOLDEN_DIGEST:
                changed += 1
        assert changed > 0

    def test_crash_moves_load_off_the_failed_bs(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=0, end_s=45, target=0
                ),
            ),
            policy=RedirectPolicy.REDIRECT,
        )
        result = _run(plan)
        assert np.all(result.bs_load_bps[0] == 0.0)
        assert result.faults.accounting.redirected_ios > 0

    def test_degrade_inflates_in_window_latency(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.DEGRADE,
                    start_s=0,
                    end_s=45,
                    component="all",
                    multiplier=10.0,
                ),
            )
        )
        base = _run(None)
        degraded = _run(plan)
        total = lambda r: float(  # noqa: E731
            sum(
                r.traces.columns()[c].sum()
                for c in r.traces.columns()
                if c.endswith("_us")
            )
        )
        assert total(degraded) > 5.0 * total(base)
        assert degraded.faults.degraded_latency_fraction == 1.0

    def test_stall_replay_reaches_hypervisors(self):
        fleet = _build_fleet()
        qp = fleet.queue_pairs[0].qp_id
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.QP_STALL, start_s=5, end_s=60, target=qp
                ),
            )
        )
        result = _run(plan)
        node = result.fleet.queue_pairs[qp].compute_node_id
        log = result.hypervisors.node(node).stall_log
        assert any(
            entry.qp_id == qp and entry.action == "stall" for entry in log
        )
        # Window end (60) is past the horizon: still stalled at the end.
        assert result.hypervisors.node(node).is_stalled(qp)

    def test_crash_replay_reaches_storage_failure_log(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=5, end_s=20, target=1
                ),
            )
        )
        result = _run(plan)
        actions = [
            (event.bs_id, event.action)
            for event in result.storage.failure_log
        ]
        assert (1, "fail") in actions and (1, "recover") in actions
        assert not result.storage.is_failed(1)


def _digest_plan_outcome(plan) -> str:
    """Digest of datasets AND fault attribution, for the golden pin."""
    result = _run(plan)
    h = hashlib.sha256()
    h.update(_result_digest(result).encode())
    if result.faults is not None:
        import json

        h.update(
            json.dumps(result.faults.to_dict(), sort_keys=True).encode()
        )
    return h.hexdigest()


class TestGoldenFaultDigest:
    """One pinned end-to-end digest under a fixed non-trivial plan.

    If this moves, either the RNG stream layout or the fault semantics
    changed — both need a deliberate digest update with justification.
    """

    PLAN = FaultPlan(
        events=(
            FaultEvent(kind=FaultKind.BS_CRASH, start_s=5, end_s=25, target=2),
            FaultEvent(kind=FaultKind.QP_STALL, start_s=10, end_s=30, target=4),
            FaultEvent(
                kind=FaultKind.DEGRADE,
                start_s=0,
                end_s=40,
                component="chunk_server",
                multiplier=3.0,
            ),
        ),
        policy=RedirectPolicy.REDIRECT,
        retry_backoff_us=250.0,
    )

    def test_digest_is_stable_across_runs(self):
        assert _digest_plan_outcome(self.PLAN) == _digest_plan_outcome(
            self.PLAN
        )

    def test_scalar_path_agrees(self):
        fast = _run(self.PLAN)
        slow = _run(self.PLAN, reference=True)
        assert _result_digest(fast) == _result_digest(slow)
