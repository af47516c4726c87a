"""The streaming executor: bounded-memory runs, bit-identical results.

:class:`StreamingSimulator` wraps an :class:`EBSSimulator` and replays
its exact pipeline out-of-core:

1. **Spill** — workload generation proceeds in fleet-order VD batches
   (:meth:`WorkloadGenerator.iter_batches`); each batch's series are cut
   at epoch multiples and written to a :class:`ShardStore`, then dropped
   from RAM.  Per-entity weight vectors (small) accumulate incrementally.
2. **Pass 1, shard by shard** — each time shard reloads its
   ``(num_vds, L)`` series window and runs the *same* vectorized pass
   the monolithic path uses (:meth:`EBSSimulator._pass1_fast` with
   ``stacked``/``t0``), yielding a :class:`ShardPart`.
3. **Tree-merge** — parts combine pairwise
   (:func:`repro.engine.merge.merge_shard_parts`) into full-run load
   grids and canonically ordered metric tables; pass-1 telemetry is
   recorded once post-merge, exactly like a monolithic run.
4. **Pass 2, batch by batch** — sampled traces reload one VD batch at a
   time (optionally fanned out over worker processes that open the
   store themselves); per-VD columns feed
   :meth:`EBSSimulator._collect_trace_columns` in fleet order.

Fault-plan runs with churn need the full stacked matrices for
``timeline.adjust`` and therefore materialize traffic up front — the
documented memory trade-off; their pass 1 still streams over
window-sliced :class:`FaultAdjustedInputs`.

The determinism contract: for a fixed seed, any ``chunk_epochs`` /
``vd_batch_size`` / ``workers`` choice produces a result whose
:func:`repro.engine.digest.result_digest` — and whose ``sim.*`` /
``workload.*`` telemetry metrics — equal the monolithic run's.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from typing import List, Optional

import numpy as np

from repro.cluster.simulator import (
    EBSSimulator,
    SimulationResult,
    _trace_chunk_worker,
)
from repro.engine.arena import Arena
from repro.engine.merge import ShardPart, merge_shard_parts
from repro.engine.plan import EPOCH_SECONDS, StreamPlan, plan_for
from repro.engine.shards import ShardStore, StreamedTraffic, purge_store
from repro.faults.timeline import FaultAdjustedInputs
from repro.obs.runtime import get_telemetry, peak_rss_bytes
from repro.trace.dataset import MetricDataset, SpecDataset
from repro.util.errors import ConfigError
from repro.workload.generator import VdTraffic, WorkloadGenerator

from concurrent.futures import ProcessPoolExecutor


def _pass2_batch_worker(
    payload: "tuple[EBSSimulator, str, int, np.ndarray, np.ndarray, np.ndarray, np.ndarray, bool]",
):
    """Module-level pass-2 worker that reloads its own VD batch.

    The payload ships only ids and grids; the batch's traffic comes out
    of the shard store inside the child, so the parent never holds more
    than its own working batch.  Reuses the monolithic chunk worker for
    the actual per-VD work (and its telemetry-snapshot protocol).
    """
    (
        simulator, store_dir, batch, qp_to_wt, seg_to_bs,
        wt_load, bs_load, telemetry_on,
    ) = payload
    chunk = ShardStore.open(store_dir).traffic_batch(batch)
    return _trace_chunk_worker((
        simulator, chunk, qp_to_wt, seg_to_bs, wt_load, bs_load,
        telemetry_on,
    ))


def _window_adjusted(
    adjusted: FaultAdjustedInputs, t0: int, t1: int
) -> FaultAdjustedInputs:
    """Slice fault-adjusted inputs to one shard window.

    Per-second series slice along time; ``seg_bs_ep`` stays whole (it is
    epoch-indexed) and ``epoch_index`` slices so ``ep_idx[ts]`` inside
    the windowed pass resolves the same epoch a monolithic pass sees at
    second ``t0 + ts``.
    """
    return replace(
        adjusted,
        qp_rb=adjusted.qp_rb[:, t0:t1],
        qp_wb=adjusted.qp_wb[:, t0:t1],
        qp_ri=adjusted.qp_ri[:, t0:t1],
        qp_wi=adjusted.qp_wi[:, t0:t1],
        seg_rb=adjusted.seg_rb[:, t0:t1],
        seg_wb=adjusted.seg_wb[:, t0:t1],
        seg_ri=adjusted.seg_ri[:, t0:t1],
        seg_wi=adjusted.seg_wi[:, t0:t1],
        epoch_index=adjusted.epoch_index[t0:t1],
    )


class StreamingSimulator:
    """Run one :class:`EBSSimulator` out-of-core against a shard store."""

    def __init__(
        self,
        simulator: EBSSimulator,
        chunk_epochs: int,
        shard_dir: "Optional[str]" = None,
        max_rss_mb: "Optional[int]" = None,
        epoch_seconds: int = EPOCH_SECONDS,
        vd_batch_size: "Optional[int]" = None,
        series_dtype: str = "float64",
    ):
        if simulator._redundancy is not None:
            raise ConfigError(
                "the streaming engine does not support non-trivial "
                "redundancy (r>1 / ec or a non-primary read policy); run "
                "monolithic, or use redundancy=None / 'r=1' with the "
                "primary policy"
            )
        self._sim = simulator
        self.plan: StreamPlan = plan_for(
            duration_seconds=simulator.config.duration_seconds,
            num_vds=len(simulator.fleet.vds),
            chunk_epochs=chunk_epochs,
            epoch_seconds=epoch_seconds,
            max_rss_mb=max_rss_mb,
            vd_batch_size=vd_batch_size,
            series_itemsize=np.dtype(series_dtype).itemsize,
        )
        #: True when we created a temp dir and own its cleanup.
        self.owns_directory = shard_dir is None
        self._directory = (
            tempfile.mkdtemp(prefix="repro-shards-")
            if shard_dir is None
            else str(shard_dir)
        )
        self.store = ShardStore(
            self._directory, self.plan, series_dtype=series_dtype
        )
        #: Scratch buffers reused across shard reloads (never shipped to
        #: worker processes; see :class:`repro.engine.arena.Arena`).
        self._arena = Arena()

    # -- lifecycle -----------------------------------------------------------

    def cleanup(self) -> None:
        """Delete the shard store if this run created a temp directory."""
        if self.owns_directory:
            purge_store(self._directory)

    # -- phase 1: spill ------------------------------------------------------

    def _spill(self, generator: WorkloadGenerator) -> "tuple[np.ndarray, ...]":
        """Generate + spill every VD batch; return stacked weight vectors."""
        fleet = self._sim.fleet
        telemetry = get_telemetry()
        qp_rw = np.zeros(len(fleet.queue_pairs))
        qp_ww = np.zeros(len(fleet.queue_pairs))
        seg_rw = np.zeros(len(fleet.segments))
        seg_ww = np.zeros(len(fleet.segments))
        batch_index = 0
        for start, batch in generator.iter_batches(self.plan.vd_batch_size):
            if batch and batch[0].vd_id != start:
                raise ConfigError(
                    "fleet VD ids are not contiguous fleet-order indexes; "
                    "the shard store's row order would be wrong"
                )
            with telemetry.span(
                "engine.spill.batch",
                dc=fleet.config.dc_id,
                batch=batch_index,
                vds=len(batch),
            ):
                self.store.spill_batch(batch_index, batch)
            for tr in batch:
                vd = fleet.vds[tr.vd_id]
                qs = slice(
                    vd.first_qp_id, vd.first_qp_id + vd.num_queue_pairs
                )
                qp_rw[qs] = tr.qp_read_weights
                qp_ww[qs] = tr.qp_write_weights
                ss = slice(
                    vd.first_segment_id,
                    vd.first_segment_id + vd.num_segments,
                )
                seg_rw[ss] = tr.segment_read_weights
                seg_ww[ss] = tr.segment_write_weights
            batch_index += 1
        if telemetry.enabled:
            telemetry.counter(
                "engine.batches_spilled", dc=fleet.config.dc_id
            ).inc(batch_index)
        weights = (qp_rw, qp_ww, seg_rw, seg_ww)
        self.store.finalize(weights)
        return weights

    # -- phase 2/3: sharded pass 1 + tree merge ------------------------------

    def _pass1_streamed(
        self,
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        adjusted: "Optional[FaultAdjustedInputs]",
    ):
        sim = self._sim
        telemetry = get_telemetry()
        dc = sim.fleet.config.dc_id
        weights = self.store.stacked_weights()
        timeline = sim._timeline
        parts: List[ShardPart] = []
        for shard in range(self.plan.num_shards):
            t0, t1 = self.plan.shard_bounds(shard)
            with telemetry.span(
                "engine.pass1.shard", dc=dc, shard=shard, t0=t0, t1=t1
            ):
                if adjusted is not None:
                    # Thread the fault carry-over across the boundary:
                    # the drain memo round-trips and the epoch cursor
                    # pins where this shard re-enters the epoch grid.
                    if timeline is not None:
                        timeline.restore_state(timeline.save_state())
                        telemetry.gauge(
                            "engine.pass1.epoch_cursor", dc=dc
                        ).set(timeline.epoch_cursor(t0))
                    window = _window_adjusted(adjusted, t0, t1)
                    wt_load, bs_load, cbuf, sbuf = sim._pass1_fast(
                        None, qp_to_wt, seg_to_bs, adjusted=window, t0=t0
                    )
                else:
                    series = self.store.series_for_shard(
                        shard, arena=self._arena
                    )
                    wt_load, bs_load, cbuf, sbuf = sim._pass1_fast(
                        None,
                        qp_to_wt,
                        seg_to_bs,
                        stacked=series + weights,
                        t0=t0,
                    )
                parts.append(ShardPart(
                    t0=t0,
                    t1=t1,
                    wt_load=wt_load,
                    bs_load=bs_load,
                    compute_cols=cbuf.concatenated(),
                    storage_cols=sbuf.concatenated(),
                ))
        with telemetry.span("engine.merge", dc=dc, shards=len(parts)):
            wt_load, bs_load, compute_table, storage_table = (
                merge_shard_parts(parts)
            )
        # Recorded once, post-merge: metric parity with the monolithic
        # run_pass1 holds for any chunk_epochs choice.
        sim._record_pass1_telemetry(
            wt_load, bs_load, compute_table, storage_table
        )
        return wt_load, bs_load, compute_table, storage_table

    # -- phase 4: batch-wise pass 2 ------------------------------------------

    def _pass2_streamed(
        self,
        qp_to_wt: np.ndarray,
        seg_to_bs: np.ndarray,
        wt_load: np.ndarray,
        bs_load: np.ndarray,
        workers: int,
        traffic_list: "Optional[List[VdTraffic]]",
    ):
        sim = self._sim
        telemetry = get_telemetry()
        dc = sim.fleet.config.dc_id

        def batch_traffic(batch: int) -> List[VdTraffic]:
            if traffic_list is not None:
                v0, v1 = self.plan.batch_bounds(batch)
                return traffic_list[v0:v1]
            return self.store.traffic_batch(batch)

        if workers <= 1:
            def columns_in_order():
                for batch in range(self.plan.num_batches):
                    with telemetry.span(
                        "engine.pass2.batch", dc=dc, batch=batch
                    ):
                        for vd_traffic in batch_traffic(batch):
                            yield sim._trace_columns_for_vd(
                                vd_traffic, qp_to_wt, seg_to_bs,
                                wt_load, bs_load,
                            )
            return sim._collect_trace_columns(columns_in_order())

        # Fan batches out over processes, and merge snapshots in batch
        # order — counters are integer-valued, so the merged metrics
        # equal the sequential run's byte for byte.  Fault-free workers
        # reload their batch from the store themselves (the payload
        # carries only ids + grids); fault runs already hold the
        # materialized list, so they ship slices like the monolithic
        # worker path does.
        if traffic_list is None:
            payloads = [
                (
                    sim, str(self._directory), batch, qp_to_wt, seg_to_bs,
                    wt_load, bs_load, telemetry.enabled,
                )
                for batch in range(self.plan.num_batches)
            ]
            worker = _pass2_batch_worker
        else:
            payloads = [
                (
                    sim, batch_traffic(batch), qp_to_wt, seg_to_bs,
                    wt_load, bs_load, telemetry.enabled,
                )
                for batch in range(self.plan.num_batches)
            ]
            worker = _trace_chunk_worker
        with ProcessPoolExecutor(
            max_workers=min(workers, len(payloads))
        ) as pool:
            chunk_results = list(pool.map(worker, payloads))
        for _, snapshot in chunk_results:
            telemetry.merge_snapshot(snapshot)
        return sim._collect_trace_columns(
            columns for chunk, _ in chunk_results for columns in chunk
        )

    # -- the full streamed run -----------------------------------------------

    def run(self, workers: int = 1) -> SimulationResult:
        """Execute the wrapped simulation out-of-core.

        Byte-identical to :meth:`EBSSimulator.run` for the same seed —
        same datasets, same grids, same ``sim.*``/``workload.*`` metric
        totals — for any ``workers`` / plan geometry.
        """
        from repro.cluster.hypervisor import HypervisorSet
        from repro.cluster.storage import StorageCluster

        if workers < 1:
            raise ConfigError(f"workers must be >= 1, got {workers}")
        sim = self._sim
        fleet = sim.fleet
        cfg = sim.config
        telemetry = get_telemetry()
        dc = fleet.config.dc_id

        hypervisors = HypervisorSet(fleet)
        storage = StorageCluster(fleet)
        generator = WorkloadGenerator(
            fleet,
            cfg.duration_seconds,
            sim._rngs,
            diurnal_amplitude=cfg.diurnal_amplitude,
        )
        with telemetry.span(
            "engine.spill",
            dc=dc,
            vds=len(fleet.vds),
            shards=self.plan.num_shards,
            batches=self.plan.num_batches,
        ):
            self._spill(generator)

        qp_to_wt, seg_to_bs = sim.bindings(hypervisors, storage)

        # Fault churn needs the full stacked matrices for timeline.adjust:
        # materialize once and keep the list for pass 2 / the result.
        # Fault-free runs stay bounded.
        traffic_list: Optional[List[VdTraffic]] = None
        timeline = sim._timeline
        if timeline is not None and timeline.has_churn:
            traffic_list = self.store.materialize()
        adjusted = (
            sim.fault_adjusted_inputs(traffic_list, qp_to_wt, seg_to_bs)
            if traffic_list is not None
            else None
        )

        wt_load, bs_load, compute_table, storage_table = (
            self._pass1_streamed(qp_to_wt, seg_to_bs, adjusted)
        )
        metrics = MetricDataset(
            compute=compute_table,
            storage=storage_table,
            duration_seconds=cfg.duration_seconds,
        )

        traces, trace_fault_stats = self._pass2_streamed(
            qp_to_wt, seg_to_bs, wt_load, bs_load, workers, traffic_list
        )

        specs = SpecDataset(
            vd_specs=[fleet.vd_spec(vd.vd_id) for vd in fleet.vds],
            vm_specs=[fleet.vm_spec(vm.vm_id) for vm in fleet.vms],
        )
        faults = sim._finalize_faults(
            hypervisors, storage, adjusted, traces, trace_fault_stats
        )
        if telemetry.enabled:
            telemetry.gauge("engine.peak_rss_bytes", dc=dc).set_max(
                peak_rss_bytes()
            )
        traffic = (
            traffic_list
            if traffic_list is not None
            else StreamedTraffic(self.store)
        )
        return SimulationResult(
            fleet=fleet,
            config=cfg,
            metrics=metrics,
            traces=traces,
            specs=specs,
            hypervisors=hypervisors,
            storage=storage,
            traffic=traffic,  # type: ignore[arg-type]
            wt_load_bps=wt_load,
            bs_load_bps=bs_load,
            faults=faults,
        )
