"""Simulator-level redundancy tests: parity, digests, failover, guards.

Pins the three load-bearing guarantees of the redundancy redesign:

- **r=1 golden parity** — ``redundancy="r=1"`` with the primary policy
  is byte-for-byte the no-redundancy simulator (same golden digest), on
  both the vectorized pass 1 and the scalar reference oracle;
- **differential** — for every read policy and for EC, the vectorized
  pass-1 is bit-identical to the scalar reference, with and without a
  fault plan;
- **failover accounting** — IO mass is conserved (delivered + dropped
  == offered) when a crash window hits a replicated cluster, and the
  unsupported combinations (streaming, qp_stall) are rejected loudly.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.hypervisor import HypervisorSet
from repro.cluster.simulator import EBSSimulator, SimulationConfig
from repro.cluster.storage import StorageCluster
from repro.cluster.redundancy import READ_POLICY_NAMES, RedundancyConfig
from repro.engine.executor import StreamingSimulator
from repro.faults.plan import (
    FaultEvent,
    FaultKind,
    FaultPlan,
    RedirectPolicy,
)
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.workload.fleet import build_fleet
from repro.workload.generator import WorkloadGenerator

from tests.cluster.test_simulator_fastpath import (
    GOLDEN_DIGEST,
    GOLDEN_FLEET,
    GOLDEN_SIM,
    _result_digest,
    _tables_equal,
)
from tests.oracles.pass1 import ReferencePass1Simulator

#: Non-trivial schemes that fit the 3-BS golden fleet.
SCHEMES = ["r=2", "r=3", "ec=2+1"]


def _run(
    redundancy, read_policy="primary", reference=False, plan=None, seed=11
):
    rngs = RngFactory(seed)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    config = replace(
        GOLDEN_SIM, redundancy=redundancy, read_policy=read_policy
    )
    simulator = ReferencePass1Simulator if reference else EBSSimulator
    return simulator(fleet, config, rngs, fault_plan=plan).run()


class TestGoldenParity:
    """r=1 + primary must run the legacy code paths untouched."""

    def test_r1_primary_reproduces_the_golden_digest(self):
        assert _result_digest(_run("r=1")) == GOLDEN_DIGEST

    def test_r1_primary_reference_path_matches_too(self):
        assert _result_digest(_run("r=1", reference=True)) == GOLDEN_DIGEST

    def test_trivial_scheme_is_detected(self):
        config = replace(GOLDEN_SIM, redundancy="r=1")
        assert config.redundancy_config() is None
        assert SimulationConfig().redundancy_config() is None
        nontrivial = replace(
            GOLDEN_SIM, redundancy="r=1", read_policy="least_loaded"
        )
        assert nontrivial.redundancy_config() is not None

    def test_nontrivial_redundancy_changes_the_result(self):
        assert _result_digest(_run("r=2")) != GOLDEN_DIGEST


class TestDifferential:
    """Scalar vs vectorized pass 1 under every policy and scheme."""

    @pytest.fixture(scope="class")
    def inputs(self, small_fleet):
        rngs = RngFactory(13)
        config = SimulationConfig(
            duration_seconds=90, trace_sampling_rate=1.0 / 10.0
        )
        generator = WorkloadGenerator(
            small_fleet, config.duration_seconds, rngs,
            diurnal_amplitude=config.diurnal_amplitude,
        )
        traffic = generator.generate_all()
        return small_fleet, config, traffic

    def _pass1_pair(self, fleet, config, traffic, plan=None):
        reference = ReferencePass1Simulator(
            fleet, config, RngFactory(13), fault_plan=plan
        )
        simulator = EBSSimulator(
            fleet, config, RngFactory(13), fault_plan=plan
        )
        storage = StorageCluster(
            fleet, redundancy=config.redundancy_config()
        )
        qp_to_wt, seg_to_bs = simulator.bindings(
            HypervisorSet(fleet), storage
        )
        ref = reference.run_pass1(traffic, qp_to_wt, seg_to_bs)
        fast = simulator.run_pass1(traffic, qp_to_wt, seg_to_bs)
        return ref, fast

    @pytest.mark.parametrize("policy", READ_POLICY_NAMES)
    def test_fast_path_bit_identical_per_policy(self, inputs, policy):
        fleet, config, traffic = inputs
        config = replace(config, redundancy="r=3", read_policy=policy)
        ref, fast = self._pass1_pair(fleet, config, traffic)
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])
        assert _tables_equal(ref[2], fast[2])
        assert _tables_equal(ref[3], fast[3])

    @pytest.mark.parametrize("spec", ["r=2", "ec=2+1", "ec=4+2"])
    def test_fast_path_bit_identical_per_scheme(self, inputs, spec):
        fleet, config, traffic = inputs
        config = replace(
            config, redundancy=spec, read_policy="least_loaded"
        )
        ref, fast = self._pass1_pair(fleet, config, traffic)
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])
        assert _tables_equal(ref[2], fast[2])
        assert _tables_equal(ref[3], fast[3])

    def test_fast_path_bit_identical_under_a_crash_plan(self, inputs):
        fleet, config, traffic = inputs
        config = replace(
            config, redundancy="r=2", read_policy="least_loaded"
        )
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=20, end_s=50, target=1
                ),
            ),
            policy=RedirectPolicy.QUEUE,
        )
        ref, fast = self._pass1_pair(fleet, config, traffic, plan=plan)
        np.testing.assert_array_equal(ref[0], fast[0])
        np.testing.assert_array_equal(ref[1], fast[1])
        assert _tables_equal(ref[2], fast[2])
        assert _tables_equal(ref[3], fast[3])

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_full_run_digest_stable_across_paths(self, spec):
        slow = _run(spec, read_policy="power_of_two", reference=True)
        fast = _run(spec, read_policy="power_of_two")
        assert _result_digest(slow) == _result_digest(fast)

    def test_same_seed_same_digest(self):
        a = _run("r=3", read_policy="power_of_two")
        b = _run("r=3", read_policy="power_of_two")
        assert _result_digest(a) == _result_digest(b)


def _run_unfiltered(redundancy, read_policy="primary"):
    """Zero recording thresholds: per-copy metric rows are never masked,
    so the byte totals below are exact, not threshold-dependent."""
    rngs = RngFactory(11)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    config = replace(
        GOLDEN_SIM,
        min_record_bytes=0.0,
        min_record_iops=0.0,
        redundancy=redundancy,
        read_policy=read_policy,
    )
    return EBSSimulator(fleet, config, rngs).run()


class TestReplicaMass:
    """The offered load grid carries the scheme's write fan-out."""

    @pytest.mark.parametrize(
        "spec, amplification",
        [("r=2", 2.0), ("r=3", 3.0), ("ec=2+1", 1.5)],
    )
    def test_write_bytes_amplified_by_the_scheme(self, spec, amplification):
        base = _run_unfiltered(None)
        redundant = _run_unfiltered(spec)
        base_write = float(
            np.asarray(base.metrics.storage.columns()["write_bytes"]).sum()
        )
        red_write = float(
            np.asarray(
                redundant.metrics.storage.columns()["write_bytes"]
            ).sum()
        )
        assert red_write == pytest.approx(
            amplification * base_write, rel=1e-9
        )

    def test_read_bytes_conserved_across_copies(self):
        # A read policy steers reads, it must not create or destroy them.
        base = _run_unfiltered(None)
        for policy in READ_POLICY_NAMES:
            redundant = _run_unfiltered("r=3", read_policy=policy)
            base_read = float(
                np.asarray(base.metrics.storage.columns()["read_bytes"]).sum()
            )
            red_read = float(
                np.asarray(
                    redundant.metrics.storage.columns()["read_bytes"]
                ).sum()
            )
            assert red_read == pytest.approx(base_read, rel=1e-9), policy

    def test_cov_monotone_under_replication(self):
        covs = []
        for spec in (None, "r=2", "r=3"):
            result = _run(spec, read_policy="least_loaded" if spec else "primary")
            load = result.bs_load_bps.sum(axis=1)
            covs.append(float(np.std(load) / np.mean(load)))
        assert covs[1] <= covs[0] + 1e-9
        assert covs[2] <= covs[1] + 1e-9


class TestFailover:
    def _crash_plan(self, target=0):
        return FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.BS_CRASH, start_s=15, end_s=30,
                    target=target,
                ),
            ),
            policy=RedirectPolicy.QUEUE,
        )

    @pytest.mark.parametrize("spec", SCHEMES)
    def test_io_mass_conserved_under_crash(self, spec):
        result = _run(
            spec, read_policy="least_loaded", plan=self._crash_plan()
        )
        outcome = result.faults
        assert outcome is not None
        offered = outcome.accounting.offered_storage_ios
        storage_residual, compute_residual = outcome.conservation_residual()
        assert storage_residual <= 1e-6 * max(offered, 1.0)
        assert compute_residual <= 1e-6 * max(
            outcome.accounting.offered_compute_ios, 1.0
        )

    def test_reads_fail_over_instead_of_queueing(self):
        # Single-copy: a crash queues/blocks reads on the downed BS.
        # Replicated: reads fail over to a surviving copy, so the
        # redirected counter moves and the queued counter drops.
        single = _run(None, plan=self._crash_plan()).faults
        replicated = _run(
            "r=3", read_policy="primary", plan=self._crash_plan()
        ).faults
        assert single.accounting.queued_ios > 0
        assert replicated.accounting.queued_ios == 0
        assert replicated.accounting.redirected_ios > 0

    def test_qp_stall_with_redundancy_rejected(self):
        plan = FaultPlan(
            events=(
                FaultEvent(
                    kind=FaultKind.QP_STALL, start_s=10, end_s=20, target=0
                ),
            ),
            policy=RedirectPolicy.QUEUE,
        )
        with pytest.raises(ConfigError, match="qp_stall"):
            _run("r=2", plan=plan)

    def test_qp_stall_with_trivial_redundancy_still_allowed(self):
        result = _run(
            "r=1",
            plan=FaultPlan(
                events=(
                    FaultEvent(
                        kind=FaultKind.QP_STALL, start_s=10, end_s=20,
                        target=0,
                    ),
                ),
                policy=RedirectPolicy.QUEUE,
            ),
        )
        assert result.faults is not None


class TestEngineGuards:
    def test_streaming_rejects_redundancy(self):
        rngs = RngFactory(11)
        fleet = build_fleet(GOLDEN_FLEET, rngs)
        config = replace(GOLDEN_SIM, redundancy="r=2")
        simulator = EBSSimulator(fleet, config, rngs)
        with pytest.raises(ConfigError, match="streaming"):
            StreamingSimulator(simulator, chunk_epochs=16)

    def test_streaming_accepts_trivial_redundancy(self):
        rngs = RngFactory(11)
        fleet = build_fleet(GOLDEN_FLEET, rngs)
        config = replace(GOLDEN_SIM, redundancy="r=1")
        simulator = EBSSimulator(fleet, config, rngs)
        StreamingSimulator(simulator, chunk_epochs=16)  # must not raise

    def test_scheme_too_wide_for_the_fleet_rejected(self):
        rngs = RngFactory(11)
        fleet = build_fleet(GOLDEN_FLEET, rngs)  # 3 BlockServers
        config = replace(GOLDEN_SIM, redundancy="ec=4+2")
        with pytest.raises(ConfigError, match="distinct"):
            EBSSimulator(fleet, config, rngs)

    def test_simulation_result_storage_carries_the_scheme(self):
        result = _run("r=3", read_policy="least_loaded")
        assert result.storage.width == 3
        assert result.storage.scheme == RedundancyConfig.parse("r=3")
        result.storage.check_invariants()
