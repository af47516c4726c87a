"""Fast-path equivalence, worker stability, and regression tests.

Covers the vectorized pass 1 (must be bit-identical to the scalar
reference in ``tests.oracles.pass1``, dtypes included), the
seed-determinism of the whole simulator (golden digest, stable across
worker counts and reached through the reference too), and the
``_ColumnBuffer`` empty-dtype / ``_normalized_probabilities``
regressions.
"""

import hashlib
from dataclasses import replace

import numpy as np
import pytest

from repro.cluster.hypervisor import HypervisorSet
from repro.cluster.simulator import (
    EBSSimulator,
    SimulationConfig,
    _ColumnBuffer,
    _normalized_probabilities,
)
from repro.cluster.storage import StorageCluster
from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.util.errors import ConfigError
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet
from repro.workload.generator import WorkloadGenerator

from tests.oracles.pass1 import ReferencePass1Simulator

#: SHA-256 over every trace column, metric column, and load grid of the
#: golden run below.  Any change to RNG stream layout, accumulation
#: order, or output dtypes shows up here.
GOLDEN_DIGEST = (
    "c687f029ac846fe4bb7c258242262c6667979a881ac3af485d4d299b976fbaf8"
)

GOLDEN_FLEET = FleetConfig(
    dc_id=0, num_users=4, num_vms=12, num_compute_nodes=4,
    num_storage_nodes=3,
)
GOLDEN_SIM = SimulationConfig(duration_seconds=45, trace_sampling_rate=0.2)


def _golden_run(workers: int = 1, simulator=EBSSimulator):
    rngs = RngFactory(11)
    fleet = build_fleet(GOLDEN_FLEET, rngs)
    return simulator(fleet, GOLDEN_SIM, rngs).run(workers=workers)


def _result_digest(result) -> str:
    h = hashlib.sha256()
    for name in sorted(result.traces.columns()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(result.traces.columns()[name]).tobytes())
    for table in (result.metrics.compute, result.metrics.storage):
        for name in sorted(table.columns()):
            h.update(name.encode())
            h.update(np.ascontiguousarray(table.columns()[name]).tobytes())
    h.update(np.ascontiguousarray(result.wt_load_bps).tobytes())
    h.update(np.ascontiguousarray(result.bs_load_bps).tobytes())
    return h.hexdigest()


def _tables_equal(a, b) -> bool:
    acols, bcols = a.columns(), b.columns()
    return acols.keys() == bcols.keys() and all(
        acols[name].dtype == bcols[name].dtype
        and np.array_equal(acols[name], bcols[name])
        for name in acols
    )


class TestPass1Equivalence:
    @pytest.fixture(scope="class")
    def pass1_inputs(self, small_fleet):
        config = SimulationConfig(
            duration_seconds=120, trace_sampling_rate=1.0 / 10.0
        )
        rngs = RngFactory(13)
        simulator = EBSSimulator(small_fleet, config, rngs)
        reference = ReferencePass1Simulator(small_fleet, config, rngs)
        generator = WorkloadGenerator(
            small_fleet, config.duration_seconds, rngs,
            diurnal_amplitude=config.diurnal_amplitude,
        )
        traffic = generator.generate_all()
        qp_to_wt, seg_to_bs = simulator.bindings(
            HypervisorSet(small_fleet), StorageCluster(small_fleet)
        )
        return simulator, reference, traffic, qp_to_wt, seg_to_bs

    def test_fast_pass1_bit_identical(self, pass1_inputs):
        simulator, reference, traffic, qp_to_wt, seg_to_bs = pass1_inputs
        ref = reference.run_pass1(traffic, qp_to_wt, seg_to_bs)
        fast = simulator.run_pass1(traffic, qp_to_wt, seg_to_bs)
        np.testing.assert_array_equal(ref[0], fast[0])  # WT load grid
        np.testing.assert_array_equal(ref[1], fast[1])  # BS load grid
        assert _tables_equal(ref[2], fast[2])           # compute metrics
        assert _tables_equal(ref[3], fast[3])           # storage metrics


class TestSeedDeterminism:
    def test_golden_digest(self):
        assert _result_digest(_golden_run()) == GOLDEN_DIGEST

    def test_reference_pass1_reproduces_the_golden_digest(self):
        run = _golden_run(simulator=ReferencePass1Simulator)
        assert _result_digest(run) == GOLDEN_DIGEST

    def test_workers_do_not_change_results(self):
        assert _result_digest(_golden_run(workers=2)) == GOLDEN_DIGEST

    def test_study_build_workers_stable(self):
        config = replace(
            StudyConfig.scale("small"),
            duration_seconds=60,
        )
        sequential = Study(config)
        sequential.build(workers=1)
        parallel = Study(config)
        parallel.build(workers=2)
        for a, b in zip(sequential.results, parallel.results):
            assert _result_digest(a) == _result_digest(b)


class TestColumnBufferRegression:
    def test_empty_buffer_keeps_declared_dtypes(self):
        # Regression: the empty fallback used to be float64 for every
        # column, so a quiet fleet produced float id columns.
        buf = _ColumnBuffer(("vd_id", "qp_id"), ("read_bytes",))
        out = buf.concatenated()
        assert out["vd_id"].dtype == np.int64
        assert out["qp_id"].dtype == np.int64
        assert out["read_bytes"].dtype == np.float64
        assert all(arr.size == 0 for arr in out.values())

    def test_zero_traffic_fleet_yields_typed_empty_datasets(self):
        # Thresholds above any plausible per-QP load plus a vanishing
        # sampling rate: nothing is recorded or traced, but dataset
        # columns must still carry their declared dtypes.
        rngs = RngFactory(17)
        fleet = build_fleet(GOLDEN_FLEET, rngs)
        config = SimulationConfig(
            duration_seconds=20,
            trace_sampling_rate=1e-12,
            min_record_bytes=1e18,
            min_record_iops=1e18,
        )
        result = EBSSimulator(fleet, config, rngs).run()
        assert len(result.metrics.compute) == 0
        assert len(result.metrics.storage) == 0
        assert len(result.traces) == 0
        for table in (
            result.metrics.compute, result.metrics.storage, result.traces
        ):
            for name in table.INT_FIELDS:
                assert table.columns()[name].dtype == np.int64, name
            for name in table.FLOAT_FIELDS:
                assert table.columns()[name].dtype == np.float64, name


class TestNormalizedProbabilities:
    def test_renormalizes_float_drift(self):
        # Regression: accumulated float drift made rng.choice reject the
        # weight vector outright.
        drifted = np.array([0.25, 0.25, 0.25, 0.25 + 3e-8])
        p = _normalized_probabilities(drifted, "qp weights")
        assert p.sum() == pytest.approx(1.0, abs=1e-15)
        rng = np.random.default_rng(0)
        rng.choice(4, size=10, p=p)  # must not raise

    def test_rejects_real_bugs(self):
        with pytest.raises(ConfigError):
            _normalized_probabilities(np.array([0.5, -0.1]), "w")
        with pytest.raises(ConfigError):
            _normalized_probabilities(np.array([0.0, 0.0]), "w")
        with pytest.raises(ConfigError):
            _normalized_probabilities(np.array([np.nan, 1.0]), "w")
        with pytest.raises(ConfigError):
            _normalized_probabilities(np.zeros(0), "w")
