"""The determinism contract: streamed == monolithic, byte for byte.

For a fixed seed, every ``chunk_epochs`` × ``workers`` combination must
produce the same result digest, the same merged ``sim.*``/``workload.*``
telemetry metrics, and the same fault outcome as the single-shot run.
The in-suite matrix here is the local twin of the nightly CI job.
"""

import numpy as np
import pytest

from repro.cluster.simulator import EBSSimulator, SimulationConfig
from repro.core.config import StudyConfig
from repro.core.study import Study
from repro.engine import StreamingSimulator, result_digest, snapshot_digest
from repro.faults.plan import FaultEvent, FaultKind, FaultPlan
from repro.obs.runtime import Telemetry, telemetry_session
from repro.util.rng import RngFactory
from repro.workload.fleet import FleetConfig, build_fleet

FLEET = FleetConfig(
    dc_id=0, num_users=4, num_vms=12, num_compute_nodes=4,
    num_storage_nodes=3,
)
SIM = SimulationConfig(duration_seconds=45, trace_sampling_rate=0.2)
#: 9s epochs make 45s runs exercise multi-shard plans (incl. ragged).
EPOCH = 9
PLAN = FaultPlan(events=(
    FaultEvent(kind=FaultKind.BS_CRASH, target=1, start_s=10, end_s=20),
    FaultEvent(kind=FaultKind.QP_STALL, target=2, start_s=5, end_s=12),
))


#: 50s is NOT a multiple of the 9s epoch: the final epoch itself is
#: partial (5s), on top of whatever ragged final *shard* the chunking
#: produces — the worst-case carry-over geometry.
RAGGED_SIM = SimulationConfig(duration_seconds=50, trace_sampling_rate=0.2)


def _run(
    streamed, chunk_epochs=2, workers=1, plan=None, telemetry=False,
    cleanup=True, sim=SIM, series_dtype="float64", vd_batch_size=5,
):
    """One run; ``cleanup=False`` keeps the shard store alive so the
    caller can read the lazy ``result.traffic`` view (caller must call
    ``engine.cleanup()``)."""
    rngs = RngFactory(11)
    fleet = build_fleet(FLEET, rngs)
    simulator = EBSSimulator(fleet, sim, rngs, fault_plan=plan)
    session = Telemetry(enabled=telemetry)
    engine = None
    with telemetry_session(session) as handle:
        if streamed:
            engine = StreamingSimulator(
                simulator, chunk_epochs, epoch_seconds=EPOCH,
                vd_batch_size=vd_batch_size, series_dtype=series_dtype,
            )
            try:
                result = engine.run(workers=workers)
                snapshot = handle.snapshot() if telemetry else None
            finally:
                if cleanup:
                    engine.cleanup()
        else:
            result = simulator.run(workers=workers)
            snapshot = handle.snapshot() if telemetry else None
    return result, snapshot, engine


@pytest.fixture(scope="module")
def monolithic():
    result, _, _ = _run(False)
    return result


class TestDigestParity:
    @pytest.mark.parametrize("chunk_epochs", [1, 2, 5, 7])
    @pytest.mark.parametrize("workers", [1, 2])
    def test_streamed_digest_matches_monolithic(
        self, monolithic, chunk_epochs, workers
    ):
        # chunk_epochs=7 exceeds the run's 5 epochs: the whole
        # simulation must collapse into one (clamped) shard.
        result, _, _ = _run(
            True, chunk_epochs=chunk_epochs, workers=workers
        )
        assert result_digest(result) == result_digest(monolithic)

    def test_streamed_traffic_view_matches(self, monolithic):
        result, _, engine = _run(True, chunk_epochs=2, cleanup=False)
        try:
            assert len(result.traffic) == len(monolithic.traffic)
            for got, want in zip(result.traffic, monolithic.traffic):
                assert got.vd_id == want.vd_id
                assert np.array_equal(got.read_bytes, want.read_bytes)
                assert np.array_equal(got.write_iops, want.write_iops)
        finally:
            engine.cleanup()

    def test_grids_and_tables_bitwise(self, monolithic):
        result, _, _ = _run(True, chunk_epochs=3)
        assert result.wt_load_bps.dtype == monolithic.wt_load_bps.dtype
        assert np.array_equal(result.wt_load_bps, monolithic.wt_load_bps)
        assert np.array_equal(result.bs_load_bps, monolithic.bs_load_bps)
        for name, column in monolithic.metrics.compute.columns().items():
            got = result.metrics.compute.columns()[name]
            assert got.dtype == column.dtype
            assert np.array_equal(got, column)


@pytest.fixture(scope="module")
def ragged_monolithic():
    result, _, _ = _run(False, sim=RAGGED_SIM)
    return result


class TestGeometryEdgeCases:
    """The shard-geometry corners: oversize chunks and partial epochs."""

    @pytest.mark.parametrize(
        "chunk_epochs,workers", [(2, 1), (4, 2), (7, 1)]
    )
    def test_partial_final_epoch_matches_monolithic(
        self, ragged_monolithic, chunk_epochs, workers
    ):
        """50s over 9s epochs: the last epoch is 5s, shards are ragged.

        chunk=2 -> shards 18+18+14s; chunk=4 -> 36+14s; chunk=7 (> the
        run's 6 epochs) -> one 50s shard.  All must match the
        single-shot digest exactly.
        """
        result, _, _ = _run(
            True,
            sim=RAGGED_SIM,
            chunk_epochs=chunk_epochs,
            workers=workers,
        )
        assert result_digest(result) == result_digest(ragged_monolithic)

    def test_oversize_chunk_collapses_to_one_shard(self):
        from repro.engine.plan import plan_for

        plan = plan_for(45, num_vds=12, chunk_epochs=7, epoch_seconds=9)
        assert plan.num_shards == 1
        assert plan.shard_bounds(0) == (0, 45)

    def test_ragged_plan_bounds_cover_exactly_once(self):
        from repro.engine.plan import plan_for

        plan = plan_for(50, num_vds=12, chunk_epochs=2, epoch_seconds=9)
        bounds = plan.all_shard_bounds()
        assert bounds == [(0, 18), (18, 36), (36, 50)]
        assert bounds[0][0] == 0 and bounds[-1][1] == 50
        for (_, t1), (t0, _) in zip(bounds, bounds[1:]):
            assert t1 == t0  # contiguous, no overlap, no gap


class TestFormatParity:
    """Both raw-store read paths land on the monolithic bytes at float64.

    :class:`TestDigestParity` streams multi-batch stores, whose shard
    reads copy batch rows into one block.  A single-batch store hands
    pass 1 zero-copy memmap views instead; both must match the
    monolithic digest across the geometry matrix.  The float32 opt-in
    must be deterministic under its own digest.
    """

    @pytest.mark.parametrize(
        "chunk_epochs,workers", [(1, 1), (2, 2), (5, 1)]
    )
    def test_raw_digests_match_monolithic(
        self, monolithic, chunk_epochs, workers
    ):
        batched, _, _ = _run(
            True, chunk_epochs=chunk_epochs, workers=workers,
        )
        single, _, _ = _run(
            True, chunk_epochs=chunk_epochs, workers=workers,
            vd_batch_size=len(monolithic.traffic),
        )
        assert result_digest(batched) == result_digest(monolithic)
        assert result_digest(single) == result_digest(monolithic)

    def test_float32_is_deterministic_with_its_own_digest(self, monolithic):
        first, _, _ = _run(True, series_dtype="float32")
        second, _, _ = _run(True, series_dtype="float32")
        # Deterministic: same geometry + dtype => same bytes...
        assert result_digest(first) == result_digest(second)
        # ...but the storage cast is lossy, so float32 runs pin their own
        # golden digest instead of reusing the float64 one.
        assert result_digest(first) != result_digest(monolithic)
        geom, _, _ = _run(
            True, chunk_epochs=5, workers=2, series_dtype="float32"
        )
        assert result_digest(geom) == result_digest(first)


class TestTelemetryParity:
    def test_metric_namespaces_match(self):
        _, mono, _ = _run(False, telemetry=True)
        _, streamed, _ = _run(
            True, chunk_epochs=2, workers=2, telemetry=True
        )
        assert snapshot_digest(mono) == snapshot_digest(streamed)


class TestFaultParity:
    def test_fault_run_digest_and_outcome(self):
        mono, mono_snap, _ = _run(False, plan=PLAN, telemetry=True)
        streamed, s_snap, _ = _run(
            True, chunk_epochs=2, workers=2, plan=PLAN, telemetry=True
        )
        assert result_digest(mono) == result_digest(streamed)
        assert mono.faults is not None and streamed.faults is not None
        assert mono.faults.accounting == streamed.faults.accounting
        assert mono.faults.trace_stats == streamed.faults.trace_stats
        assert mono.faults.windows == streamed.faults.windows
        assert snapshot_digest(mono_snap) == snapshot_digest(s_snap)


class TestStudyIntegration:
    def test_streamed_study_matches_monolithic(self, tmp_path):
        config = StudyConfig.scale("small", seed=5)
        mono = Study(config).build()
        streamed = Study(
            config,
            chunk_epochs=2,
            shard_dir=str(tmp_path / "shards"),
        ).build()
        try:
            assert len(mono.results) == len(streamed.results)
            for a, b in zip(mono.results, streamed.results):
                assert result_digest(a) == result_digest(b)
            # Experiments consume the lazy traffic view unchanged.
            got = streamed.run("table3")
            want = mono.run("table3")
            assert got.rows == want.rows
        finally:
            streamed.cleanup()

    def test_streamed_study_rejects_bad_chunk(self):
        with pytest.raises(Exception):
            Study(StudyConfig.scale("small"), chunk_epochs=0)
